package experiments

import (
	"fmt"

	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
	"addrxlat/internal/workload"
)

// Tenants quantifies the introduction's shared-TLB observation: as more
// threads/VMs share one TLB, the effective per-tenant capacity shrinks
// and the aggregate miss rate climbs. Each tenant runs an identical
// bimodal workload in its own address space; the merged stream hits one
// shared TLB of fixed size.
func Tenants(entries int, hotPages uint64, nAccesses int, seed uint64) (*Table, error) {
	if entries <= 0 || hotPages == 0 || nAccesses <= 0 {
		return nil, fmt.Errorf("experiments: invalid tenants config")
	}
	counts := []int{1, 2, 4, 8, 16}
	t := &Table{
		Name: "e6-tenants",
		Caption: fmt.Sprintf(
			"Shared-TLB contention: miss rate as tenants share a %d-entry TLB (bimodal, hot=%d pages each, %d total accesses)",
			entries, hotPages, nAccesses),
		Columns: []string{"tenants", "tlb_misses", "miss_rate", "effective_entries_per_tenant"},
	}
	type res struct {
		misses uint64
	}
	results := make([]res, len(counts))
	err := forEach(len(counts), func(ci int) error {
		k := counts[ci]
		gens := make([]workload.Generator, k)
		for i := range gens {
			g, err := workload.NewBimodal(hotPages, hotPages*16, 0.999, seed+uint64(i)*97)
			if err != nil {
				return err
			}
			gens[i] = g
		}
		var spaceBits uint = 1
		for hotPages*16>>spaceBits != 0 {
			spaceBits++
		}
		merged, err := workload.NewInterleave(gens, spaceBits, seed^0x7e7a)
		if err != nil {
			return err
		}
		// Interleaved pages are tenant<<spaceBits | page: below k<<spaceBits.
		shared, err := tlb.New(entries, uint64(k)<<spaceBits, policy.LRUKind, seed)
		if err != nil {
			return err
		}
		// Warm then measure.
		for i := 0; i < nAccesses/2; i++ {
			touch(shared, merged.Next())
		}
		shared.ResetCounters()
		for i := 0; i < nAccesses; i++ {
			touch(shared, merged.Next())
		}
		results[ci].misses = shared.Misses()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range counts {
		misses := results[i].misses
		t.AddRow(k, misses, float64(misses)/float64(nAccesses), entries/k)
	}
	return t, nil
}

// touch performs one TLB reference, inserting on miss.
func touch(t *tlb.TLB, page uint64) {
	if !t.Lookup(page) {
		t.Insert(page)
	}
}
