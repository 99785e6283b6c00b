// Overhead: the paper's motivating arithmetic, end to end. A phased
// workload (init scan → pointer-chasing compute → scan → …) runs under
// the h=1 baseline and the decoupled algorithm; the timing model then
// converts the cost counters into execution-time breakdowns across
// storage generations, showing (a) translation overhead growing as
// storage gets faster and (b) decoupling clawing it back.
package main

import (
	"fmt"
	"log"

	"addrxlat/internal/core"
	"addrxlat/internal/mm"
	"addrxlat/internal/timing"
	"addrxlat/internal/workload"
)

func main() {
	const (
		vPages   = 1 << 18
		ramPages = 1 << 16
		entries  = 128
		n        = 1_500_000
	)
	scan, err := workload.NewSequential(1 << 14)
	if err != nil {
		log.Fatal(err)
	}
	chase, err := workload.NewZipf(1<<16, 1.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	phased, err := workload.NewPhased([]workload.Phase{
		{Gen: scan, Length: 50_000},
		{Gen: chase, Length: 200_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	warm := workload.Take(phased, n)
	meas := workload.Take(phased, n)
	fmt.Printf("workload: %s, %d measured accesses (%d phase switches)\n\n",
		phased.Name(), n, phased.Switches())

	h1, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: 1, TLBEntries: entries, RAMPages: ramPages, VirtualPages: vPages, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc: core.IcebergAlloc, RAMPages: ramPages, VirtualPages: vPages,
		TLBEntries: entries, ValueBits: 64, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	storages := []struct {
		name  string
		table timing.CostTable
	}{
		{"disk  (5 ms)", timing.DiskStorage},
		{"nvme (20 µs)", timing.NVMeStorage},
		{"cxl   (1 µs)", timing.CXLStorage},
	}
	for _, alg := range []mm.Algorithm{h1, z} {
		costs := mm.RunWarm(alg, warm, meas)
		fmt.Printf("%s\n  counters: %s\n", alg.Name(), costs)
		for _, st := range storages {
			b, err := timing.Estimate(timing.Counters{
				Accesses:       costs.Accesses,
				TLBMisses:      costs.TLBMisses,
				DecodingMisses: costs.DecodingMisses,
				IOs:            costs.IOs,
			}, st.table)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-14s address translation %5.1f%% of time, paging %5.1f%%\n",
				st.name, 100*b.ATFraction(), 100*b.IOFraction())
		}
		fmt.Println()
	}
	fmt.Println("faster storage inflates the translation share; decoupling deflates it.")
}
