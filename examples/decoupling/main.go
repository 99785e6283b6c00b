// Decoupling: the Simulation Theorem (Theorem 4) live. Build Z from a
// TLB-optimizing side X and an IO-optimizing side Y via huge-page
// decoupling, and show that Z simultaneously matches the best TLB-miss
// count of any physical-huge-page configuration and the best IO count.
package main

import (
	"fmt"
	"log"

	"addrxlat/internal/core"
	"addrxlat/internal/mm"
	"addrxlat/internal/policy"
	"addrxlat/internal/workload"
)

func main() {
	const (
		hotPages   = 1 << 12
		totalPages = 1 << 18
		ramPages   = 1 << 16
		tlbEntries = 64
		nAccesses  = 2_000_000
	)
	gen, err := workload.NewBimodal(hotPages, totalPages, 0.9999, 3)
	if err != nil {
		log.Fatal(err)
	}
	warm := workload.Take(gen, nAccesses)
	meas := workload.Take(gen, nAccesses)

	// Z: the decoupled algorithm with the Iceberg (Theorem 3) scheme.
	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     ramPages,
		VirtualPages: totalPages,
		TLBEntries:   tlbEntries,
		ValueBits:    64,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	hmax := uint64(z.Params().HMax)
	fmt.Printf("decoupling parameters: %s\n\n", z.Params())

	// The two physical-huge-page baselines Z must beat simultaneously.
	h1, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: 1, TLBEntries: tlbEntries, RAMPages: ramPages, VirtualPages: totalPages, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	hBig, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: hmax, TLBEntries: tlbEntries, RAMPages: ramPages, VirtualPages: totalPages, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The side optimizers of the theorem statement (Lemma 1's paging
	// problems).
	x, err := mm.NewTLBOnly(hmax, tlbEntries, totalPages, policy.LRUKind, 7)
	if err != nil {
		log.Fatal(err)
	}
	y, err := mm.NewRAMOnly(z.Params().MaxResident, totalPages, policy.LRUKind, 7)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-34s %12s %12s %14s\n", "algorithm", "IOs", "TLB misses", "total (ε=.01)")
	for _, alg := range []mm.Algorithm{h1, hBig, x, y, z} {
		c := mm.RunWarm(alg, warm, meas)
		fmt.Printf("%-34s %12d %12d %14.1f\n", alg.Name(), c.IOs, c.TLBMisses, c.Total(0.01))
	}
	fmt.Printf("\npaging failures in Z: %d (the n/poly(P) slack of Theorem 4)\n",
		z.Scheme().TotalFailures())
	fmt.Println("Z pairs the huge-page baseline's TLB column with the h=1 baseline's IO column.")
}
