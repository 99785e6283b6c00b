package experiments

import (
	"fmt"

	"addrxlat/internal/core"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// Related compares the Section 7 TLB-coverage designs that *rely on
// physical contiguity when it happens to exist* — coalesced TLBs (CoLT)
// and direct segments — against classical paging and huge-page
// decoupling, on a workload mixing a sequential primary region (where
// contiguity arises naturally) with scattered accesses (where it does
// not). The paper's point: decoupling needs no contiguity at all.
func Related(s Scale, seed uint64) (*Table, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	vPages := s.pages(8 * paperGiB)
	ramPages := s.pages(4 * paperGiB)
	entries := s.entries(paperTLBEntries, 16)
	n := s.accesses(20_000_000)

	// Workload: the application prefaults its primary region (one quarter
	// of VA) with a sequential initialization pass — which is what hands
	// CoLT its physical contiguity — then runs steady-state traffic: 60%
	// sequential scanning of the primary region, 40% uniform over the
	// rest of the space.
	seg, err := workload.NewSequential(vPages / 4)
	if err != nil {
		return nil, err
	}
	rest, err := workload.NewUniform(vPages-vPages/4, seed)
	if err != nil {
		return nil, err
	}
	r := &mixRNG{state: seed ^ 0x5eed}
	warm := make([]uint64, 0, n+int(vPages/4))
	for v := uint64(0); v < vPages/4; v++ {
		warm = append(warm, v) // init prefault
	}
	mixed := func() uint64 {
		if r.next()%10 < 6 {
			return seg.Next()
		}
		return vPages/4 + rest.Next()
	}
	for i := 0; i < n; i++ {
		warm = append(warm, mixed())
	}
	meas := make([]uint64, n)
	for i := range meas {
		meas[i] = mixed()
	}

	plain, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: 1, TLBEntries: entries, RAMPages: ramPages, VirtualPages: vPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	co, err := mm.NewCoalesced(mm.CoalescedConfig{
		CoalesceLimit: 8, TLBEntries: entries, RAMPages: ramPages, VirtualPages: vPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	// The segment is pinned RAM; cap it at half of RAM so conventional
	// paging keeps enough frames at aggressive scales.
	segPages := vPages / 4
	if segPages > ramPages/2 {
		segPages = ramPages / 2
	}
	ds, err := mm.NewDirectSegment(mm.DirectSegmentConfig{
		SegmentStart: 0, SegmentPages: segPages, TLBEntries: entries,
		RAMPages: ramPages, VirtualPages: vPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc: core.IcebergAlloc, RAMPages: ramPages, VirtualPages: vPages,
		TLBEntries: entries, ValueBits: 64, Seed: seed,
	})
	if err != nil {
		return nil, err
	}

	algos := []mm.Algorithm{plain, co, ds, z}
	costs := make([]mm.Costs, len(algos))
	if err := forEach(len(algos), func(i int) error {
		var err error
		costs[i], err = s.runWarm("e7-mixed", algos[i], warm, meas)
		return err
	}); err != nil {
		return nil, err
	}

	t := &Table{
		Name: "e7-related",
		Caption: fmt.Sprintf(
			"Section 7 contiguity-dependent TLB designs vs decoupling (60%% sequential primary region + 40%% scattered; V=%d, RAM=%d, TLB=%d, ε=0.01)",
			vPages, ramPages, entries),
		Columns: []string{"algo", "ios", "tlb_misses", "total_cost", "notes"},
	}
	for i, a := range algos {
		c := costs[i]
		notes := "-"
		switch v := a.(type) {
		case *mm.Coalesced:
			notes = fmt.Sprintf("coalesced_fills=%d single_fills=%d", v.CoalescedFills(), v.SingleFills())
		case *mm.DirectSegment:
			notes = fmt.Sprintf("segment_accesses=%d", v.SegmentAccesses())
		case *mm.Decoupled:
			notes = fmt.Sprintf("hmax=%d failures=%d", v.Params().HMax, v.Scheme().TotalFailures())
		}
		t.AddRow(a.Name(), c.IOs, c.TLBMisses, c.Total(paperEpsilon), notes)
	}
	return t, nil
}

// mixRNG is a tiny local splitmix stream for the 60/40 mixing decisions,
// separate from the tenant generators' own streams.
type mixRNG struct{ state uint64 }

func (m *mixRNG) next() uint64 {
	m.state += 0x9e3779b97f4a7c15
	z := m.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return z
}
