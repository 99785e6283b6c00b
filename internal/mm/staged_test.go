package mm

import (
	"fmt"
	"reflect"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/explain"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
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

// kernelCase is one configuration of a simulator with a fused access
// kernel, paired with its reference-model twin.
type kernelCase struct {
	name string
	sim  func(seed uint64) (Algorithm, error)
	ref  func(seed uint64) refModel
}

// kernelCases covers every fused kernel on allAlgorithms' machine: the
// LRU configurations, Decoupled and Hybrid with stateful non-LRU X and Y
// (ARC, LFU, 2Q, Clock, Random — 2Q evicting on hits), a failing
// SingleChoice allocator, and THP and Superpage over an address space
// whose regions and tagged keys pass policy.KeyIndexBound, which puts
// their unit LRU and TLB on the map-backed LRU (and Superpage's regions
// in a map).
func kernelCases() []kernelCase {
	const ram, vspace, entries = 1 << 12, 1 << 16, 64
	hp := func(h uint64) kernelCase {
		cfg := func(seed uint64) HugePageConfig {
			return HugePageConfig{HugePageSize: h, TLBEntries: entries, RAMPages: ram, Seed: seed}
		}
		return kernelCase{fmt.Sprintf("hugepage(h=%d)", h),
			func(seed uint64) (Algorithm, error) { return NewHugePage(cfg(seed)) },
			func(seed uint64) refModel { return newRefHugePage(cfg(seed)) }}
	}
	dec := func(name string, alloc core.AllocKind, p uint64, x, y policy.Kind) kernelCase {
		cfg := func(seed uint64) DecoupledConfig {
			return DecoupledConfig{Alloc: alloc, RAMPages: p, VirtualPages: vspace, TLBEntries: entries, ValueBits: 64,
				TLBPolicy: x, RAMPolicy: y, Seed: seed}
		}
		return kernelCase{name,
			func(seed uint64) (Algorithm, error) { return NewDecoupled(cfg(seed)) },
			func(seed uint64) refModel { return newRefDecoupled(cfg(seed)) }}
	}
	hyb := func(name string, x, y policy.Kind) kernelCase {
		cfg := func(seed uint64) HybridConfig {
			return HybridConfig{GroupSize: 4, Decoupled: DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: ram,
				VirtualPages: vspace, TLBEntries: entries, ValueBits: 64, TLBPolicy: x, RAMPolicy: y, Seed: seed}}
		}
		return kernelCase{name,
			func(seed uint64) (Algorithm, error) { return NewHybrid(cfg(seed)) },
			func(seed uint64) refModel { return newRefHybrid(cfg(seed)) }}
	}
	thp := func(name string, v uint64) kernelCase {
		cfg := func(seed uint64) THPConfig {
			return THPConfig{HugePageSize: 16, TLBEntries: entries, RAMPages: ram, VirtualPages: v, Seed: seed}
		}
		return kernelCase{name,
			func(seed uint64) (Algorithm, error) { return NewTHP(cfg(seed)) },
			func(seed uint64) refModel { return newRefTHP(cfg(seed)) }}
	}
	sp := func(name string, v uint64) kernelCase {
		cfg := func(seed uint64) SuperpageConfig {
			return SuperpageConfig{HugePageSize: 16, TLBEntries: entries, RAMPages: ram, VirtualPages: v, Seed: seed}
		}
		return kernelCase{name,
			func(seed uint64) (Algorithm, error) { return NewSuperpage(cfg(seed)) },
			func(seed uint64) refModel { return newRefSuperpage(cfg(seed)) }}
	}
	const past = 1 << 40 // regions and tagged keys pass KeyIndexBound
	return []kernelCase{
		hp(1), hp(64),
		dec("decoupled", core.IcebergAlloc, ram, policy.LRUKind, policy.LRUKind),
		dec("decoupled(arc/lfu)", core.IcebergAlloc, ram, policy.ARCKind, policy.LFUKind),
		dec("decoupled(2q/random)", core.IcebergAlloc, ram, policy.TwoQKind, policy.RandomKind),
		dec("decoupled(random/2q)", core.IcebergAlloc, ram, policy.RandomKind, policy.TwoQKind),
		dec("decoupled(singlechoice)", core.SingleChoice, 1<<8, policy.LRUKind, policy.LRUKind),
		hyb("hybrid", policy.LRUKind, policy.LRUKind),
		hyb("hybrid(clock/2q)", policy.ClockKind, policy.TwoQKind),
		thp("thp", 0), thp("thp(map)", past),
		sp("superpage", 0), sp("superpage(map)", past),
	}
}

// TestStagedBatchMatchesScalar is the batch-equivalence contract, checked
// against the reference model (reference_test.go) rather than a second
// code path: for every fused kernel, servicing a trace through
// AccessBatch in chunks of 777 and of 1023 requests, and one request at a
// time through Access, must leave cost counters equal to the reference's.
// Chunk sizes are uneven so runs and repeat-key state cross chunk
// boundaries, where the kernels' memory of the previous request resets.
// With attribution armed the chunked runs' explain counters must equal
// the one-request run's, and arming it must not change the costs.
func TestStagedBatchMatchesScalar(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		reqs := stagedTrace(seed*1000+3, 40000)
		for _, kc := range kernelCases() {
			want := refRun(kc.ref(seed), reqs)
			run := func(chunk int, withExplain bool) (Costs, explain.Counters) {
				a, err := kc.sim(seed)
				if err != nil {
					t.Fatal(err)
				}
				if withExplain {
					EnableExplain(a)
				}
				for lo := 0; lo < len(reqs); lo += chunk {
					if chunk == 1 {
						a.Access(reqs[lo])
					} else {
						a.AccessBatch(reqs[lo:min(lo+chunk, len(reqs))])
					}
				}
				if withExplain {
					return a.Costs(), explainOf(t, a)
				}
				return a.Costs(), explain.Counters{}
			}
			if got, _ := run(777, false); got != want {
				t.Errorf("seed %d %s: AccessBatch (chunk 777) diverged from the reference:\n ref   %+v\n batch %+v",
					seed, kc.name, want, got)
			}
			_, one := run(1, true)
			for _, chunk := range []int{1, 777, 1023} {
				got, ex := run(chunk, true)
				if got != want {
					t.Errorf("seed %d %s explain armed: chunk %d diverged from the reference:\n ref   %+v\n batch %+v",
						seed, kc.name, chunk, want, got)
				}
				if !reflect.DeepEqual(ex, one) {
					t.Errorf("seed %d %s: explain counters at chunk %d diverged from one-request Access:\n one   %+v\n batch %+v",
						seed, kc.name, chunk, one, ex)
				}
			}
		}
	}
}

// FuzzKernelVsReference runs every fused kernel on a random small machine
// (huge-page size, RAM, TLB entries, replacement policies) over a random
// trace cut into random chunks, and checks its costs against the
// reference model's after every chunk.
func FuzzKernelVsReference(f *testing.F) {
	f.Add(uint64(1), uint16(0), stagedBytes(1, 3000))
	f.Add(uint64(7), uint16(0x1234), stagedBytes(7, 3000))
	f.Add(uint64(42), uint16(0xfedc), stagedBytes(42, 3000))
	f.Add(uint64(9), uint16(0x1de5), stagedBytes(9, 3000)) // h=4, ARC X over 2Q Y, which evicts on hits
	kinds := policy.Kinds()
	f.Fuzz(func(t *testing.T, seed uint64, geo uint16, trace []byte) {
		h := uint64(2) << (geo & 3)          // 2..16
		ram := uint64(256) << (geo >> 2 & 3) // 256..2048 pages
		entries := 4 << (geo >> 4 & 3)       // 4..32 entries
		x, y := kinds[int(geo>>6&7)%len(kinds)], kinds[int(geo>>9&7)%len(kinds)]
		const vspace = 1 << 14
		vs := make([]uint64, min(len(trace)/2, 4000)) // the naive reference is O(regions) per fault
		for i := range vs {
			vs[i] = uint64(trace[2*i])<<8 | uint64(trace[2*i+1])
			vs[i] %= vspace >> (geo >> 12 & 3) // narrower spaces repeat more
		}
		dcfg := DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: ram, VirtualPages: vspace, TLBEntries: entries, ValueBits: 64,
			TLBPolicy: x, RAMPolicy: y, Seed: seed}
		hcfg := HybridConfig{Decoupled: dcfg, GroupSize: h / 2}
		hpcfg := HugePageConfig{HugePageSize: h, TLBEntries: entries, RAMPages: ram, Seed: seed}
		tcfg := THPConfig{HugePageSize: h, TLBEntries: entries, RAMPages: ram, PromoteThreshold: int(seed%h) + 1, Seed: seed}
		scfg := SuperpageConfig{HugePageSize: h, TLBEntries: entries, RAMPages: ram, Seed: seed}
		if seed&1 == 1 { // odd seeds put THP's and Superpage's caches on the map LRU
			tcfg.VirtualPages, scfg.VirtualPages = 1<<40, 1<<40
		}
		pairs := []struct {
			sim func() (Algorithm, error)
			ref refModel
		}{
			{func() (Algorithm, error) { return NewHugePage(hpcfg) }, newRefHugePage(hpcfg)},
			{func() (Algorithm, error) { return NewDecoupled(dcfg) }, newRefDecoupled(dcfg)},
			{func() (Algorithm, error) { return NewHybrid(hcfg) }, newRefHybrid(hcfg)},
			{func() (Algorithm, error) { return NewTHP(tcfg) }, newRefTHP(tcfg)},
			{func() (Algorithm, error) { return NewSuperpage(scfg) }, newRefSuperpage(scfg)},
		}
		for _, p := range pairs {
			a, err := p.sim()
			if err != nil {
				t.Fatal(err)
			}
			rng := hashutil.NewRNG(seed)
			for lo := 0; lo < len(vs); {
				hi := min(lo+1+int(rng.Uint64n(600)), len(vs))
				a.AccessBatch(vs[lo:hi])
				for _, v := range vs[lo:hi] {
					p.ref.access(v)
				}
				if got, want := a.Costs(), p.ref.costs(); got != want {
					t.Fatalf("%s after %d requests: kernel %+v, reference %+v", a.Name(), hi, got, want)
				}
				lo = hi
			}
		}
	})
}

// stagedBytes encodes a stagedTrace over 1<<14 pages as the fuzz target's
// big-endian trace bytes.
func stagedBytes(seed uint64, n int) []byte {
	b := make([]byte, 0, 2*n)
	for _, v := range stagedTrace(seed, n) {
		v %= 1 << 14
		b = append(b, byte(v>>8), byte(v))
	}
	return b
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
// buffers (Decoupled's miss column), AccessBatch allocates nothing, and
// neither does the one-request Access of the simulators whose Access is
// AccessBatch. The explain-armed HugePage cases cover its scalar path,
// which steps the recency stack one key at a time through
// RecencyStack.Access.
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
	// Access is AccessBatch over a one-element array on the stack.
	for _, idx := range []int{2, 3, 4, 5} { // Decoupled, Hybrid, THP, Superpage
		a := allAlgorithms(t, 3)[idx]
		a.AccessBatch(reqs)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			a.Access(reqs[i%len(reqs)])
			i++
		})
		if allocs > 0 {
			t.Errorf("%s: Access allocates %.2f per call in steady state", a.Name(), allocs)
		}
	}
}

// TestHybridBatchNoAllocs pins Hybrid's batch path to zero steady-state
// allocations: the group-key column lives in a block inside the Hybrid,
// and the inner Decoupled kernel reuses its own miss column.
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
