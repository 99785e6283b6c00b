package mm

import (
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/hashutil"
)

// failureTrace is uniform over 1<<16 pages — far beyond RAM below — with a third of requests repeating their predecessor, so failed pages
// are re-hit back to back (the batch kernel's repeat collapse).
func failureTrace(seed uint64, n int) []uint64 {
	r := hashutil.NewRNG(seed)
	reqs := make([]uint64, n)
	for i := range reqs {
		if i > 0 && r.Float64() < 0.35 {
			reqs[i] = reqs[i-1]
		} else {
			reqs[i] = r.Uint64n(1 << 16)
		}
	}
	return reqs
}

// TestFailureIOIsDecodingMiss pins the identity the serving layer's retry
// trigger rests on: the Theorem 4 failure path is the only source of both
// failure IOs and decoding misses, and charges exactly one of each, so
// attributed IOFailure, attributed DecodeMisses, and the cost model's
// DecodingMisses agree after every chunk — through scalar Access and
// through AccessBatch at uneven chunk sizes, for Decoupled and for Hybrid
// (which passes its inner delta through).
func TestFailureIOIsDecodingMiss(t *testing.T) {
	iceberg := DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: 1 << 12, VirtualPages: 1 << 16, TLBEntries: 64, ValueBits: 64}
	// SingleChoice (k=1, Theorem 1) at a small geometry overflows buckets,
	// so this configuration actually takes the failure path.
	single := DecoupledConfig{Alloc: core.SingleChoice, RAMPages: 1 << 8, VirtualPages: 1 << 16, TLBEntries: 64, ValueBits: 64}
	cases := []struct {
		name   string
		cfg    DecoupledConfig
		hybrid bool // wrap in Hybrid with groups of 4
		fails  bool // the trace must produce failure IOs
	}{
		{"decoupled-iceberg", iceberg, false, false},
		{"decoupled-singlechoice", single, false, true},
		{"hybrid-iceberg", iceberg, true, false},
		{"hybrid-singlechoice", single, true, true},
	}
	build := func(cfg DecoupledConfig, hybrid bool) (Algorithm, error) {
		if hybrid {
			return NewHybrid(HybridConfig{Decoupled: cfg, GroupSize: 4})
		}
		return NewDecoupled(cfg)
	}
	// Failures are rare (a handful per 10⁵ accesses here), so each case
	// runs three seeds and the failing cases must fail on at least one.
	reqs := failureTrace(7003, 200000)
	modes := []struct {
		batch bool
		chunk int
	}{{false, 777}, {false, 1023}, {true, 777}, {true, 1023}}
	for _, tc := range cases {
		for _, m := range modes {
			var failures uint64
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := tc.cfg
				cfg.Seed = seed
				a, err := build(cfg, tc.hybrid)
				if err != nil {
					t.Fatal(err)
				}
				ex := EnableExplain(a)
				for lo := 0; lo < len(reqs); lo += m.chunk {
					part := reqs[lo:min(lo+m.chunk, len(reqs))]
					if m.batch {
						a.AccessBatch(part)
					} else {
						for _, v := range part {
							a.Access(v)
						}
					}
					if d := a.Costs().DecodingMisses; ex.IOFailure != d || ex.DecodeMisses != d {
						t.Fatalf("%s seed %d batch=%v chunk %d at %d: IOFailure %d, DecodeMisses %d, Costs.DecodingMisses %d",
							tc.name, seed, m.batch, m.chunk, lo, ex.IOFailure, ex.DecodeMisses, d)
					}
				}
				failures += ex.IOFailure
			}
			if tc.fails && failures == 0 {
				t.Fatalf("%s batch=%v chunk %d: no failure IOs, so the identity is vacuous", tc.name, m.batch, m.chunk)
			}
		}
	}
}
