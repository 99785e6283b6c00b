package mm

import (
	"runtime"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/hashutil"
)

// TestSparseAddressSpace serves a trace spread over V = 2⁴⁰ pages — half
// uniform over the whole space, half from a pool of pages scattered
// across it, so pages hit, fault and evict — through Decoupled, Hybrid
// and Superpage, whose per-huge-page and per-region tables would be flat
// arrays of terabytes if sized by V. Each run must allocate a bounded
// heap and cost exactly what the reference model says.
func TestSparseAddressSpace(t *testing.T) {
	const vspace, ram, entries = 1 << 40, 1 << 12, 64
	r := hashutil.NewRNG(5)
	pool := make([]uint64, 2048)
	for i := range pool {
		pool[i] = r.Uint64n(vspace)
	}
	reqs := make([]uint64, 20000)
	for i := range reqs {
		if r.Float64() < 0.5 {
			reqs[i] = r.Uint64n(vspace)
		} else {
			reqs[i] = pool[r.Uint64n(uint64(len(pool)))]
		}
	}
	dcfg := DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: ram, VirtualPages: vspace, TLBEntries: entries, ValueBits: 64, Seed: 3}
	hcfg := HybridConfig{Decoupled: dcfg, GroupSize: 4}
	scfg := SuperpageConfig{HugePageSize: 16, TLBEntries: entries, RAMPages: ram, VirtualPages: vspace, Seed: 3}
	cases := []struct {
		sim func() (Algorithm, error)
		ref refModel
	}{
		{func() (Algorithm, error) { return NewDecoupled(dcfg) }, newRefDecoupled(dcfg)},
		{func() (Algorithm, error) { return NewHybrid(hcfg) }, newRefHybrid(hcfg)},
		{func() (Algorithm, error) { return NewSuperpage(scfg) }, newRefSuperpage(scfg)},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := c.sim()
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(reqs); lo += 1000 {
			a.AccessBatch(reqs[lo : lo+1000])
		}
		runtime.ReadMemStats(&after)
		const limit = 64 << 20
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Errorf("%s allocated %d MiB over %d requests (limit %d MiB)", a.Name(), alloc>>20, len(reqs), limit>>20)
		}
		if got, want := a.Costs(), refRun(c.ref, reqs); got != want {
			t.Errorf("%s at V=2^40: costs %+v, reference %+v", a.Name(), got, want)
		}
		if a.Costs().IOs == uint64(len(reqs)) {
			t.Errorf("%s: every request faulted, so the trace exercised no hits", a.Name())
		}
	}
}
