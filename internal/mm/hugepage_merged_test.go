package mm

import (
	"testing"

	"addrxlat/internal/policy"
	"addrxlat/internal/workload"
)

// TestHugePageMergedLRUMatchesComposed pins the merged recency-stack fast
// path against the original TLB+RAM composition: identical cost counters
// and occupancy across huge-page sizes, TLB/RAM shapes (including TLB
// larger than the frame count, where the caches genuinely diverge), and
// workloads from cache-friendly to thrashing.
func TestHugePageMergedLRUMatchesComposed(t *testing.T) {
	shapes := []struct {
		h        uint64
		tlb      int
		ramPages uint64
	}{
		{1, 16, 8192},
		{64, 16, 8192},
		{1024, 16, 8192}, // 8 frames < 16 TLB entries: stale TLB translations
		{1, 512, 1024},
		{8, 4, 64},
		{1, 1, 1},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			gen, err := workload.NewBimodal(256, 1<<15, 0.99, seed)
			if err != nil {
				t.Fatal(err)
			}
			reqs := workload.Take(gen, 30000)

			merged, err := NewHugePage(HugePageConfig{
				HugePageSize: sh.h, TLBEntries: sh.tlb, RAMPages: sh.ramPages, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			composed, err := NewHugePage(HugePageConfig{
				HugePageSize: sh.h, TLBEntries: sh.tlb, RAMPages: sh.ramPages, Seed: seed,
				disableMergedLRU: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if merged.stack == nil || composed.stack != nil {
				t.Fatalf("shape %+v: fast-path selection wrong (merged=%v composed=%v)",
					sh, merged.stack != nil, composed.stack != nil)
			}

			// Interleave batch and single-access servicing to cover both
			// entry points, with a warmup reset in the middle as RunWarm does.
			half := len(reqs) / 2
			merged.AccessBatch(reqs[:half])
			composed.AccessBatch(reqs[:half])
			merged.ResetCosts()
			composed.ResetCosts()
			for _, v := range reqs[half:] {
				merged.Access(v)
				composed.Access(v)
			}

			if merged.Costs() != composed.Costs() {
				t.Fatalf("shape %+v seed %d: merged costs %v != composed costs %v",
					sh, seed, merged.Costs(), composed.Costs())
			}
			if merged.TLBLen() != composed.TLBLen() {
				t.Fatalf("shape %+v seed %d: TLBLen %d != %d", sh, seed, merged.TLBLen(), composed.TLBLen())
			}
			if merged.ResidentHugePages() != composed.ResidentHugePages() {
				t.Fatalf("shape %+v seed %d: resident %d != %d",
					sh, seed, merged.ResidentHugePages(), composed.ResidentHugePages())
			}
		}
	}
}

// TestHugePageKeyIndexBound pins the choice between the two LRU paths on
// the address-space bound: the merged stack is pre-sized for ⌈V/h⌉ huge
// pages at h = 1 over the paper's Figure 1 address space (64 GiB of 4 KiB
// pages) and grows when V is unknown, and the two-structure path takes
// over when ⌈V/h⌉ does not fit the stack's 29-bit key index. Either way
// the counters equal those of the forced two-structure path.
func TestHugePageKeyIndexBound(t *testing.T) {
	cases := []struct {
		name   string
		h, va  uint64
		merged bool
	}{
		{"fig1 VA at h=1", 1, 64 << 30 / 4096, true},
		{"unknown VA", 64, 0, true},
		{"past bound at h=1", 1, policy.KeyIndexBound + 1, false},
		{"past bound at h=64", 64, policy.KeyIndexBound*64 + 1, false},
		{"replayed page numbers", 8, 1 << 40, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := HugePageConfig{HugePageSize: c.h, TLBEntries: 16, RAMPages: 1 << 12, VirtualPages: c.va, Seed: 1}
			got, err := NewHugePage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if (got.stack != nil) != c.merged {
				t.Fatalf("merged path = %v, want %v", got.stack != nil, c.merged)
			}
			cfg.disableMergedLRU = true
			want, err := NewHugePage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewBimodal(256*c.h, 1<<16, 0.9, 7)
			if err != nil {
				t.Fatal(err)
			}
			reqs := workload.Take(gen, 20000)
			for i := 0; c.va > 0 && i < len(reqs); i += 97 {
				reqs[i] = c.va - 1 - uint64(i%3) // the top of the address space
			}
			got.AccessBatch(reqs)
			want.AccessBatch(reqs)
			if got.Costs() != want.Costs() {
				t.Fatalf("costs %v, two-structure path %v", got.Costs(), want.Costs())
			}
		})
	}
}
