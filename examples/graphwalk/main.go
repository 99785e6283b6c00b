// Graphwalk: the Figure 1b workload end-to-end — a Pareto random walk over
// a page graph (PageRank-like access pattern), compared across the h=1
// baseline, a huge-page baseline, and the decoupled algorithm.
package main

import (
	"fmt"
	"log"

	"addrxlat/internal/core"
	"addrxlat/internal/mm"
	"addrxlat/internal/trace"
	"addrxlat/internal/workload"
)

func main() {
	const (
		totalPages = 1 << 18 // 1 GiB virtual space
		ramPages   = 1 << 17 // 512 MiB RAM (half the space, as in Fig 1b)
		tlbEntries = 64
		nAccesses  = 1_500_000
	)
	gen, err := workload.NewGraphWalk(totalPages, 0.01, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random walk: %d-page graph, out-degree %d, Pareto α=0.01\n",
		totalPages, gen.OutDegree())

	warm := workload.Take(gen, nAccesses)
	meas := workload.Take(gen, nAccesses)
	fmt.Printf("trace stats: %s\n\n", trace.Summarize(meas))

	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     ramPages,
		VirtualPages: totalPages,
		TLBEntries:   tlbEntries,
		ValueBits:    64,
		Seed:         5,
	})
	if err != nil {
		log.Fatal(err)
	}
	hmax := uint64(z.Params().HMax)

	algos := []mm.Algorithm{}
	for _, h := range []uint64{1, hmax, 256} {
		a, err := mm.NewHugePage(mm.HugePageConfig{
			HugePageSize: h, TLBEntries: tlbEntries, RAMPages: ramPages, VirtualPages: totalPages, Seed: 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		algos = append(algos, a)
	}
	algos = append(algos, z)

	fmt.Printf("%-34s %12s %12s %14s\n", "algorithm", "IOs", "TLB misses", "total (ε=.01)")
	for _, alg := range algos {
		c := mm.RunWarm(alg, warm, meas)
		fmt.Printf("%-34s %12d %12d %14.1f\n", alg.Name(), c.IOs, c.TLBMisses, c.Total(0.01))
	}
}
