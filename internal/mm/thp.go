package mm

import (
	"fmt"
	"math/bits"

	"addrxlat/internal/dense"
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// THPConfig configures the transparent-huge-page baseline: an OS-style
// adaptive policy (cf. Linux THP, discussed in the paper's Section 7) that
// promotes a huge-page region to a physically contiguous huge page once
// enough of its base pages are resident, and demotes it wholesale on
// eviction.
type THPConfig struct {
	// HugePageSize h: pages per promotable region (power of two ≥ 2).
	HugePageSize uint64
	// PromoteThreshold: a region is promoted when this many of its base
	// pages are simultaneously resident. 0 defaults to h/2 (Linux's
	// max_ptes_none default allows promotion at half-utilization).
	PromoteThreshold int
	// TLBEntries, RAMPages, Seed as elsewhere.
	TLBEntries int
	RAMPages   uint64
	// VirtualPages V: the address space in base pages, 0 when unknown.
	// The unit LRU and the TLB are pre-sized for the tagged keys below 2V
	// (with V unknown they grow on demand); see taggedKeyBound.
	VirtualPages uint64
	Seed         uint64
}

func (c *THPConfig) validate() error {
	if c.HugePageSize < 2 || c.HugePageSize&(c.HugePageSize-1) != 0 {
		return fmt.Errorf("mm: THP huge-page size %d must be a power of two ≥ 2", c.HugePageSize)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive")
	}
	if c.RAMPages < c.HugePageSize {
		return fmt.Errorf("mm: RAM (%d pages) below one huge page (%d)", c.RAMPages, c.HugePageSize)
	}
	if c.PromoteThreshold == 0 {
		c.PromoteThreshold = int(c.HugePageSize / 2)
	}
	if c.PromoteThreshold < 1 || c.PromoteThreshold > int(c.HugePageSize) {
		return fmt.Errorf("mm: promote threshold %d outside [1, %d]", c.PromoteThreshold, c.HugePageSize)
	}
	return nil
}

// THP is the adaptive mixed-page-size baseline. RAM is tracked in *units*:
// a unit is either a single base page or a whole promoted region. Units
// live in one LRU; evicting a promoted region frees (and demotes) the
// whole region — the indivisible-mapping-unit behavior the paper's
// Section 7 calls out as THP's swapping-cost problem.
//
// TLB keys distinguish base-page entries (covering 1 page) from huge
// entries (covering h pages); promotion invalidates the region's base
// entries, modeling the shootdown.
type THP struct {
	cfg THPConfig
	tlb *tlb.TLB
	ram unitLRU // keys are unit ids (see unitBase/unitHuge)

	// Per-region state is flat, indexed by region number. resident uses
	// sentinel 0: a present region always has ≥ 1 resident base page.
	resident *dense.Table[uint32] // region -> resident base pages (unpromoted regions only)
	promoted *dense.Bitset        // regions currently promoted
	used     uint64               // resident base pages across all units

	costs      Costs
	ex         *explain.Counters
	promotions uint64
	demotions  uint64
}

var _ Algorithm = (*THP)(nil)

// Unit-id tagging: base pages and promoted regions share the LRU keyspace.
func unitBase(v uint64) uint64    { return v << 1 }
func unitHuge(r uint64) uint64    { return r<<1 | 1 }
func isHugeUnit(id uint64) bool   { return id&1 == 1 }
func unitRegion(id uint64) uint64 { return id >> 1 }

// TLB keys get the same tagging (a huge entry and a base entry must not
// collide).
func tlbBase(v uint64) uint64 { return v << 1 }
func tlbHuge(r uint64) uint64 { return r<<1 | 1 }

// taggedKeyBound returns the bound of the tagged unit and TLB keys over an
// address space of virtualPages base pages: every one lies below 2V, 0
// when V is unknown (the key-indexed arrays then grow on demand). A bound
// past policy.KeyIndexBound puts the unit LRU and the TLB on the map LRU.
func taggedKeyBound(virtualPages uint64) uint64 { return 2 * virtualPages }

// regionBound returns ⌈V/h⌉, the bound of the region numbers of an
// address space of virtualPages base pages (0 when V is unknown).
func regionBound(virtualPages, h uint64) uint64 { return (virtualPages + h - 1) / h }

// NewTHP builds the adaptive baseline.
func NewTHP(cfg THPConfig) (*THP, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	keys := taggedKeyBound(cfg.VirtualPages)
	t, err := tlb.New(cfg.TLBEntries, keys, policy.LRUKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &THP{
		cfg:      cfg,
		tlb:      t,
		ram:      newUnitLRU(int(cfg.RAMPages), keys), // capacity checked in pages manually
		resident: dense.NewTable[uint32](0, regionBound(cfg.VirtualPages, cfg.HugePageSize)),
		promoted: dense.NewBitset(regionBound(cfg.VirtualPages, cfg.HugePageSize)),
	}, nil
}

// pagesOf returns the RAM footprint of a unit.
func (m *THP) pagesOf(id uint64) uint64 {
	if isHugeUnit(id) {
		return m.cfg.HugePageSize
	}
	return 1
}

// evictUntilFits evicts LRU units until `need` more pages fit in RAM.
func (m *THP) evictUntilFits(need uint64) {
	for m.used+need > m.cfg.RAMPages {
		id, ok := m.ram.EvictLRU()
		if !ok {
			panic("mm: THP cannot free enough RAM")
		}
		m.dropUnit(id)
	}
}

// dropUnit releases a unit's pages and TLB entries.
func (m *THP) dropUnit(id uint64) {
	m.used -= m.pagesOf(id)
	m.ex.Evict()
	if isHugeUnit(id) {
		r := unitRegion(id)
		m.promoted.Remove(r)
		m.demotions++
		m.ex.Demote()
		if m.tlb.Invalidate(tlbHuge(r)) {
			m.ex.TLBInvalidated(tlbHuge(r))
		}
	} else {
		v := unitRegion(id) // same shift
		r := v / m.cfg.HugePageSize
		if c := m.resident.At(r); c <= 1 {
			m.resident.Delete(r)
		} else {
			m.resident.Set(r, c-1)
		}
		if m.tlb.Invalidate(tlbBase(v)) {
			m.ex.TLBInvalidated(tlbBase(v))
		}
	}
}

// Access implements Algorithm: AccessBatch over one request.
func (m *THP) Access(v uint64) {
	vs := [1]uint64{v}
	m.AccessBatch(vs[:])
}

// promote converts region r into a physically contiguous huge page:
// fetch its missing base pages (IO amplification), retire the base units,
// and install the huge unit.
func (m *THP) promote(r uint64) {
	have := uint64(m.resident.At(r))
	missing := m.cfg.HugePageSize - have
	m.costs.IOs += missing
	m.ex.AmplifiedIO(missing)

	// Retire the region's base units (their pages fold into the huge
	// unit) and their base TLB entries.
	start := r * m.cfg.HugePageSize
	for v := start; v < start+m.cfg.HugePageSize; v++ {
		id := unitBase(v)
		if m.ram.Remove(id) {
			m.used--
			if m.tlb.Invalidate(tlbBase(v)) {
				m.ex.TLBInvalidated(tlbBase(v))
			}
		}
	}
	m.resident.Delete(r)

	// Make room for the full huge page and install it.
	m.evictUntilFits(m.cfg.HugePageSize)
	m.ram.Access(unitHuge(r))
	m.used += m.cfg.HugePageSize
	m.promoted.Add(r)
	m.promotions++
	m.ex.Promote()
}

// AccessBatch implements Algorithm; it is THP's one access body. Request
// v in region r refreshes r's huge unit when r is promoted, else v's base
// unit; a base-page fault costs one IO, may evict LRU units to make room,
// and promotes r once PromoteThreshold of its base pages are resident.
// The request then looks up the unit's TLB entry (huge or base), a miss
// costing ε. The RAM side invalidates TLB entries mid-stream (promotion
// shootdowns, demotion on eviction), so the TLB work stays in order,
// with two exact shortcuts:
//
//   - a request repeating the previous one is a recency no-op everywhere
//     — its unit and TLB entry are both MRU — so it collapses to one TLB
//     hit count;
//   - a request whose TLB key equals the previous key (same promoted
//     region) skips the TLB probe: the entry is MRU, and the RAM path of
//     a same-key access is a pure recency refresh that cannot have
//     invalidated it.
//
// The resident-hit path probes and refreshes its unit in one step
// (Touch), and the TLB probe fills on a miss (LookupOrReserve).
func (m *THP) AccessBatch(vs []uint64) {
	t, ram := m.tlb, m.ram
	rshift := uint(bits.TrailingZeros64(m.cfg.HugePageSize))
	var prevV, prevKey uint64
	havePrev := false
	for _, v := range vs {
		if havePrev && v == prevV {
			t.NoteRepeatHit()
			continue
		}
		r := v >> rshift
		var tlbKey uint64
		if m.promoted.Contains(r) {
			ram.Access(unitHuge(r)) // always a hit; refreshes recency
			tlbKey = tlbHuge(r)
		} else if id := unitBase(v); ram.Touch(id) {
			tlbKey = tlbBase(v)
		} else {
			m.costs.IOs++ // base-page fault
			m.ex.DemandIO()
			m.evictUntilFits(1)
			ram.Access(id)
			m.used++
			count := m.resident.At(r) + 1
			m.resident.Set(r, count)
			if int(count) >= m.cfg.PromoteThreshold {
				m.promote(r)
				tlbKey = tlbHuge(r)
			} else {
				tlbKey = tlbBase(v)
			}
		}
		if havePrev && tlbKey == prevKey {
			t.NoteRepeatHit()
		} else if !t.LookupOrReserve(tlbKey) {
			m.costs.TLBMisses++
			m.ex.TLBMiss(tlbKey)
		}
		havePrev, prevV, prevKey = true, v, tlbKey
	}
	m.costs.Accesses += uint64(len(vs))
}

// Costs implements Algorithm.
func (m *THP) Costs() Costs { return m.costs }

// ResetCosts implements Algorithm.
func (m *THP) ResetCosts() {
	m.costs = Costs{}
	m.ex.Reset()
	m.tlb.ResetCounters()
}

// EnableExplain implements Explainer.
func (m *THP) EnableExplain() {
	if m.ex == nil {
		m.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (m *THP) Explain() *explain.Counters { return m.ex }

// ExplainGauges implements Gauger: RAM occupancy in base pages, the mix of
// promoted regions, and current TLB reach (huge entries cover h pages,
// base entries one).
func (m *THP) ExplainGauges() (explain.Gauges, bool) {
	g := occupancyGauges(m.used, m.cfg.RAMPages)
	g.CoveragePages = m.cfg.HugePageSize
	promoted := uint64(m.promoted.Len())
	g.PromotedRegions = promoted
	g.TLBReachPages = uint64(m.tlb.Len()) + promoted*(m.cfg.HugePageSize-1)
	return g, true
}

// Name implements Algorithm.
func (m *THP) Name() string {
	return fmt.Sprintf("thp(h=%d,promote@%d)", m.cfg.HugePageSize, m.cfg.PromoteThreshold)
}

// Promotions and Demotions report adaptive-policy activity.
func (m *THP) Promotions() uint64 { return m.promotions }

// Demotions reports how many promoted regions were evicted wholesale.
func (m *THP) Demotions() uint64 { return m.demotions }

// PromotedRegions reports the current number of promoted regions.
func (m *THP) PromotedRegions() int { return m.promoted.Len() }
