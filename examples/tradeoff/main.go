// Tradeoff: a miniature Figure 1a — sweep the physical huge-page size on a
// bimodal workload and watch IOs explode while TLB misses collapse. This
// is the tension huge-page decoupling resolves.
package main

import (
	"fmt"
	"log"

	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

func main() {
	const (
		hotPages   = 1 << 12 // 16 MiB hot set
		totalPages = 1 << 18 // 1 GiB virtual space
		ramPages   = 1 << 16 // 256 MiB RAM
		tlbEntries = 64
		nAccesses  = 2_000_000
	)

	gen, err := workload.NewBimodal(hotPages, totalPages, 0.9999, 1)
	if err != nil {
		log.Fatal(err)
	}
	warm := workload.Take(gen, nAccesses)
	meas := workload.Take(gen, nAccesses)

	fmt.Printf("bimodal workload: %d hot pages in %d-page space, RAM %d pages, TLB %d entries\n\n",
		hotPages, totalPages, ramPages, tlbEntries)
	fmt.Printf("%-6s %12s %12s %14s\n", "h", "IOs", "TLB misses", "total (ε=.01)")
	for h := uint64(1); h <= 1024; h *= 2 {
		alg, err := mm.NewHugePage(mm.HugePageConfig{
			HugePageSize: h,
			TLBEntries:   tlbEntries,
			RAMPages:     ramPages,
			VirtualPages: totalPages,
			Seed:         1,
		})
		if err != nil {
			log.Fatal(err)
		}
		c := mm.RunWarm(alg, warm, meas)
		fmt.Printf("%-6d %12d %12d %14.1f\n", h, c.IOs, c.TLBMisses, c.Total(0.01))
	}
	fmt.Println("\nno single h wins on both columns — that is the paper's Figure 1.")
}
