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
// directly for every algorithm: servicing a trace through AccessBatch
// (and through the staged AccessBatchScratch kernels, via AccessChunk
// with a shared scratch) must leave cost counters — and, with attribution
// armed, explain counters — identical to repeated scalar Access calls.
// Chunk sizes are uneven so runs and repeat-key state cross chunk
// boundaries, where the kernels' memory of the previous request resets.
func TestStagedBatchMatchesScalar(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, withExplain := range []bool{false, true} {
			reqs := stagedTrace(seed*1000+3, 40000)
			scalar := allAlgorithms(t, seed)
			batch := allAlgorithms(t, seed)
			staged := allAlgorithms(t, seed)
			sc := &Scratch{}
			for i := range scalar {
				name := scalar[i].Name()
				if withExplain {
					EnableExplain(scalar[i])
					EnableExplain(batch[i])
					EnableExplain(staged[i])
				}
				for _, v := range reqs {
					scalar[i].Access(v)
				}
				if b, ok := batch[i].(Batcher); ok {
					for lo := 0; lo < len(reqs); lo += 777 {
						hi := min(lo+777, len(reqs))
						b.AccessBatch(reqs[lo:hi])
					}
				} else {
					t.Fatalf("%s: no Batcher", name)
				}
				for lo := 0; lo < len(reqs); lo += 1023 {
					hi := min(lo+1023, len(reqs))
					AccessChunk(staged[i], reqs[lo:hi], sc)
				}

				if sco, bco := scalar[i].Costs(), batch[i].Costs(); sco != bco {
					t.Errorf("seed %d explain=%v %s: AccessBatch diverged:\n scalar %+v\n batch  %+v",
						seed, withExplain, name, sco, bco)
				}
				if sco, stc := scalar[i].Costs(), staged[i].Costs(); sco != stc {
					t.Errorf("seed %d explain=%v %s: staged kernel diverged:\n scalar %+v\n staged %+v",
						seed, withExplain, name, sco, stc)
				}
				if withExplain {
					se := explainOf(t, scalar[i])
					be := explainOf(t, batch[i])
					ste := explainOf(t, staged[i])
					if !reflect.DeepEqual(se, be) {
						t.Errorf("seed %d %s: explain counters diverged (batch):\n scalar %+v\n batch  %+v", seed, name, se, be)
					}
					if !reflect.DeepEqual(se, ste) {
						t.Errorf("seed %d %s: explain counters diverged (staged):\n scalar %+v\n staged %+v", seed, name, ste, se)
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

// TestStagedBatchScratchReuse pins the steady-state allocation contract:
// after the first chunk sizes the scratch, staged batch execution stays
// allocation-free for the algorithms with staged kernels.
func TestStagedBatchScratchReuse(t *testing.T) {
	reqs := stagedTrace(9, 1<<14)
	for _, idx := range []int{0, 1, 2, 4, 5} { // HugePage h=1/h=64, Decoupled, THP, Superpage
		a := allAlgorithms(t, 3)[idx]
		sb, ok := a.(StagedBatcher)
		if !ok {
			t.Fatalf("%s: expected StagedBatcher", a.Name())
		}
		sc := &Scratch{}
		sb.AccessBatchScratch(reqs, sc) // warm caches and size the scratch
		allocs := testing.AllocsPerRun(5, func() {
			sb.AccessBatchScratch(reqs, sc)
		})
		if allocs > 0 {
			t.Errorf("%s: staged batch allocates %.1f per chunk in steady state", a.Name(), allocs)
		}
	}
}

// TestAccessChunkDispatch pins the dispatch helper's fallback ladder on a
// plain non-batching Algorithm stub.
func TestAccessChunkDispatch(t *testing.T) {
	s := &scalarOnly{}
	AccessChunk(s, []uint64{1, 2, 3}, &Scratch{})
	if s.costs.Accesses != 3 {
		t.Fatalf("scalar fallback serviced %d of 3 accesses", s.costs.Accesses)
	}
}

type scalarOnly struct{ costs Costs }

func (s *scalarOnly) Access(uint64) { s.costs.Accesses++ }
func (s *scalarOnly) Costs() Costs  { return s.costs }
func (s *scalarOnly) ResetCosts()   { s.costs = Costs{} }
func (s *scalarOnly) Name() string  { return "scalar-only" }

// TestHybridBatchNoAllocs pins Hybrid's batch path to zero steady-state
// allocations: the group-key column lives in an on-stack block, and the
// inner Decoupled kernel reuses its own scratch.
func TestHybridBatchNoAllocs(t *testing.T) {
	reqs := stagedTrace(11, 1<<14)
	for _, withExplain := range []bool{false, true} {
		h := allAlgorithms(t, 3)[3].(*Hybrid)
		if withExplain {
			EnableExplain(h)
		}
		h.AccessBatch(reqs) // warm caches, the classifier, and the scratch
		allocs := testing.AllocsPerRun(5, func() {
			h.AccessBatch(reqs)
		})
		if allocs > 0 {
			t.Errorf("%s explain=%v: AccessBatch allocates %.1f per call in steady state",
				h.Name(), withExplain, allocs)
		}
	}
}
