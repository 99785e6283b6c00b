package mm

import (
	"reflect"
	"testing"

	"addrxlat/internal/explain"
	"addrxlat/internal/hashutil"
)

// stagedTrace builds a trace shaped to exercise every staged-kernel path:
// heavy consecutive repeats (the run-length collapse), a hot set small
// enough to promote regions and stay TLB-resident (the repeat-key
// shortcut), and a uniform tail that forces faults, evictions, and TLB
// shootdowns mid-chunk.
func stagedTrace(seed uint64, n int) []uint64 {
	r := hashutil.NewRNG(seed)
	reqs := make([]uint64, n)
	var prev uint64
	for i := range reqs {
		switch p := r.Float64(); {
		case i > 0 && p < 0.35:
			reqs[i] = prev // consecutive repeat
		case p < 0.85:
			reqs[i] = r.Uint64n(1 << 9) // hot set
		default:
			reqs[i] = r.Uint64n(1 << 15) // cold tail
		}
		prev = reqs[i]
	}
	return reqs
}

// TestStagedBatchMatchesScalar is the batch-equivalence contract, pinned
// directly for every algorithm: servicing a trace through AccessBatch in
// chunks of 777 and of 1023 requests must leave cost counters — and,
// with attribution armed, explain counters — identical to repeated scalar
// Access calls. Chunk sizes are uneven so runs and repeat-key state cross
// chunk boundaries, where the kernels' memory of the previous request
// resets.
func TestStagedBatchMatchesScalar(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, withExplain := range []bool{false, true} {
			reqs := stagedTrace(seed*1000+3, 40000)
			scalar := allAlgorithms(t, seed)
			chunked := map[int][]Algorithm{777: allAlgorithms(t, seed), 1023: allAlgorithms(t, seed)}
			for i := range scalar {
				name := scalar[i].Name()
				if withExplain {
					EnableExplain(scalar[i])
				}
				for _, v := range reqs {
					scalar[i].Access(v)
				}
				for chunk, algs := range chunked {
					a := algs[i]
					if withExplain {
						EnableExplain(a)
					}
					for lo := 0; lo < len(reqs); lo += chunk {
						a.AccessBatch(reqs[lo:min(lo+chunk, len(reqs))])
					}
					if sco, bco := scalar[i].Costs(), a.Costs(); sco != bco {
						t.Errorf("seed %d explain=%v %s: AccessBatch (chunk %d) diverged:\n scalar %+v\n batch  %+v",
							seed, withExplain, name, chunk, sco, bco)
					}
					if withExplain {
						if se, be := explainOf(t, scalar[i]), explainOf(t, a); !reflect.DeepEqual(se, be) {
							t.Errorf("seed %d %s: explain counters diverged (chunk %d):\n scalar %+v\n batch  %+v",
								seed, name, chunk, se, be)
						}
					}
				}
			}
		}
	}
}

// explainOf snapshots an algorithm's explain counters, failing if
// attribution was supposed to be armed but is not.
func explainOf(t *testing.T, a Algorithm) explain.Counters {
	t.Helper()
	e, ok := a.(Explainer)
	if !ok {
		return explain.Counters{}
	}
	if e.Explain() == nil {
		t.Fatalf("%s: explain not armed", a.Name())
	}
	return e.Explain().Snapshot()
}

// TestStagedBatchScratchReuse pins the steady-state allocation contract
// of the batch kernels: after a first call warms caches and sizes reused
// buffers (Decoupled's miss column), AccessBatch allocates nothing. The
// explain-armed HugePage cases cover its scalar path, which steps the
// recency stack one key at a time through RecencyStack.Access.
func TestStagedBatchScratchReuse(t *testing.T) {
	reqs := stagedTrace(9, 1<<14)
	cases := []struct {
		idx     int // HugePage h=1/h=64, Decoupled, THP, Superpage
		explain bool
	}{{0, false}, {1, false}, {2, false}, {4, false}, {5, false}, {0, true}, {1, true}}
	for _, c := range cases {
		a := allAlgorithms(t, 3)[c.idx]
		if c.explain {
			EnableExplain(a)
		}
		a.AccessBatch(reqs) // warm caches and size reused buffers
		allocs := testing.AllocsPerRun(5, func() {
			a.AccessBatch(reqs)
		})
		if allocs > 0 {
			t.Errorf("%s explain=%v: AccessBatch allocates %.1f per call in steady state", a.Name(), c.explain, allocs)
		}
	}
}

// TestHybridBatchNoAllocs pins Hybrid's batch path to zero steady-state
// allocations: the group-key column lives in an on-stack block, and the
// inner Decoupled kernel reuses its own miss column.
func TestHybridBatchNoAllocs(t *testing.T) {
	reqs := stagedTrace(11, 1<<14)
	for _, withExplain := range []bool{false, true} {
		h := allAlgorithms(t, 3)[3].(*Hybrid)
		if withExplain {
			EnableExplain(h)
		}
		h.AccessBatch(reqs) // warm caches, the classifier, and the miss column
		allocs := testing.AllocsPerRun(5, func() {
			h.AccessBatch(reqs)
		})
		if allocs > 0 {
			t.Errorf("%s explain=%v: AccessBatch allocates %.1f per call in steady state",
				h.Name(), withExplain, allocs)
		}
	}
}
