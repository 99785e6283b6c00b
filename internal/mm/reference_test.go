package mm

import (
	"fmt"

	"addrxlat/internal/core"
	"addrxlat/internal/policy"
)

// This file is a deliberately naive reference model of the simulators
// with fused access kernels — HugePage, THP, Superpage, Decoupled and
// Hybrid — written from the cost model of Section 5 and each simulator's
// doc comment: every IO costs 1, every TLB insertion and decoding miss ε,
// evictions and shootdowns are free. It shares no data structure with the
// kernels: caches are a map of last-use stamps over an append-only use
// log, and per-page and per-region state lives in Go maps. Its Decoupled
// drives its own core.Scheme (whose allocator and decoder core's tests
// pin) and uses policy.New only for the non-LRU replacement policies.
// TestStagedBatchMatchesScalar and FuzzKernelVsReference check the
// kernels against it.

// refModel is one simulator's reference twin.
type refModel interface {
	access(v uint64)
	costs() Costs
}

// refRun services every request and returns the counters.
func refRun(m refModel, vs []uint64) Costs {
	for _, v := range vs {
		m.access(v)
	}
	return m.costs()
}

// refLRU is an LRU cache of capacity cap (0: unbounded, evicted by hand).
// stamp holds each cached key's last use; log records every use in order,
// so the least recent key is the first log entry whose stamp is current.
type refLRU struct {
	cap   int
	clock uint64
	stamp map[uint64]uint64
	log   []refUse
}

type refUse struct{ key, stamp uint64 }

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, stamp: map[uint64]uint64{}}
}

func (l *refLRU) Contains(k uint64) bool { _, ok := l.stamp[k]; return ok }

// touch makes k the most recent key, caching it if absent.
func (l *refLRU) touch(k uint64) {
	l.clock++
	l.stamp[k] = l.clock
	l.log = append(l.log, refUse{k, l.clock})
}

func (l *refLRU) remove(k uint64) bool {
	ok := l.Contains(k)
	delete(l.stamp, k)
	return ok
}

// keys returns the cached keys, least recent first, dropping the stale
// uses from the log on the way.
func (l *refLRU) keys() []uint64 {
	live := l.log[:0]
	for _, u := range l.log {
		if s, ok := l.stamp[u.key]; ok && s == u.stamp {
			live = append(live, u)
		}
	}
	l.log = live
	ks := make([]uint64, len(live))
	for i, u := range live {
		ks[i] = u.key
	}
	return ks
}

// evict removes and returns the least recent key.
func (l *refLRU) evict() uint64 {
	for i, u := range l.log {
		if s, ok := l.stamp[u.key]; ok && s == u.stamp {
			delete(l.stamp, u.key)
			l.log = l.log[i+1:]
			return u.key
		}
	}
	panic("reference: evict from an empty LRU")
}

// Access is the policy.Policy contract: report a hit, or cache k,
// evicting the least recent key when full.
func (l *refLRU) Access(k uint64) (hit bool, victim uint64) {
	hit, victim = l.Contains(k), policy.NoEviction
	if !hit && len(l.stamp) == l.cap {
		victim = l.evict()
	}
	l.touch(k)
	return hit, victim
}

// refPolicy is the slice of policy.Policy the Decoupled reference needs.
type refPolicy interface {
	Access(k uint64) (hit bool, victim uint64)
	Contains(k uint64) bool
}

// newRefPolicy returns refLRU for LRU and the policy package's cache for
// every other kind.
func newRefPolicy(kind policy.Kind, capacity int, seed uint64) refPolicy {
	if kind == policy.LRUKind {
		return newRefLRU(capacity)
	}
	p, err := policy.New(kind, capacity, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// refHugePage: huge page u = v/h is one RAM frame (a fault moves h pages)
// and one TLB entry.
type refHugePage struct {
	h        uint64
	ram, tlb *refLRU
	c        Costs
}

func newRefHugePage(cfg HugePageConfig) *refHugePage {
	return &refHugePage{h: cfg.HugePageSize, ram: newRefLRU(int(cfg.RAMPages / cfg.HugePageSize)), tlb: newRefLRU(cfg.TLBEntries)}
}

func (m *refHugePage) access(v uint64) {
	m.c.Accesses++
	u := v / m.h
	if hit, _ := m.ram.Access(u); !hit {
		m.c.IOs += m.h
	}
	if hit, _ := m.tlb.Access(u); !hit {
		m.c.TLBMisses++
	}
}

func (m *refHugePage) costs() Costs { return m.c }

// Units and TLB entries of THP and Superpage: base page v is 2v, region r
// (promoted, one huge unit and entry) is 2r+1.
func refBase(v uint64) uint64 { return 2 * v }
func refHuge(r uint64) uint64 { return 2*r + 1 }

// refTHP: RAM holds base-page units and promoted-region units in one LRU,
// capacity counted in pages. A base fault costs one IO; once threshold
// pages of a region are resident it is promoted by fetching its missing
// pages (IO amplification), retiring its base units and their TLB
// entries, and installing one h-page unit. Evicting a promoted unit
// demotes the region wholesale.
type refTHP struct {
	h, thr, ram, used uint64
	units, tlb        *refLRU
	resident          map[uint64]uint64 // unpromoted region -> resident pages
	promoted          map[uint64]bool
	c                 Costs
}

func newRefTHP(cfg THPConfig) *refTHP {
	thr := uint64(cfg.PromoteThreshold)
	if thr == 0 {
		thr = cfg.HugePageSize / 2
	}
	return &refTHP{h: cfg.HugePageSize, thr: thr, ram: cfg.RAMPages, units: newRefLRU(0),
		tlb: newRefLRU(cfg.TLBEntries), resident: map[uint64]uint64{}, promoted: map[uint64]bool{}}
}

func (m *refTHP) access(v uint64) {
	m.c.Accesses++
	r := v / m.h
	key := refBase(v)
	switch {
	case m.promoted[r]:
		key = refHuge(r)
		m.units.touch(key)
	case m.units.Contains(refBase(v)):
		m.units.touch(refBase(v))
	default:
		m.c.IOs++
		m.makeRoom(1)
		m.units.touch(refBase(v))
		m.used++
		m.resident[r]++
		if m.resident[r] >= m.thr {
			m.promote(r)
			key = refHuge(r)
		}
	}
	if hit, _ := m.tlb.Access(key); !hit {
		m.c.TLBMisses++
	}
}

func (m *refTHP) makeRoom(pages uint64) {
	for m.used+pages > m.ram {
		id := m.units.evict()
		m.tlb.remove(id)
		if id%2 == 1 {
			delete(m.promoted, id/2)
			m.used -= m.h
		} else {
			m.resident[id/2/m.h]--
			m.used--
		}
	}
}

func (m *refTHP) promote(r uint64) {
	m.c.IOs += m.h - m.resident[r]
	for v := r * m.h; v < (r+1)*m.h; v++ {
		if m.units.remove(refBase(v)) {
			m.tlb.remove(refBase(v))
			m.used--
		}
	}
	delete(m.resident, r)
	m.makeRoom(m.h)
	m.units.touch(refHuge(r))
	m.used += m.h
	m.promoted[r] = true
}

func (m *refTHP) costs() Costs { return m.c }

// refSuperpage: a region's first touch reserves a whole h-page frame when
// preempting every unpromoted reservation could make room for one, else
// holds the region page-grain. Each newly populated page costs one IO;
// a reservation whose every page is populated is promoted to one huge TLB
// entry, shooting down its base entries. Making room first preempts the
// least recent unpromoted reservations down to their populated pages,
// then evicts whole least recent regions.
type refSuperpage struct {
	h, ram, used uint64
	lru, tlb     *refLRU
	regions      map[uint64]*refRegion
	populated    map[uint64]bool
	c            Costs
}

type refRegion struct {
	pop                uint64
	reserved, promoted bool
}

func newRefSuperpage(cfg SuperpageConfig) *refSuperpage {
	return &refSuperpage{h: cfg.HugePageSize, ram: cfg.RAMPages, lru: newRefLRU(0), tlb: newRefLRU(cfg.TLBEntries),
		regions: map[uint64]*refRegion{}, populated: map[uint64]bool{}}
}

// reclaimable sums the unpopulated pages of unpromoted reservations.
func (m *refSuperpage) reclaimable() uint64 {
	var free uint64
	for _, reg := range m.regions {
		if reg.reserved && !reg.promoted {
			free += m.h - reg.pop
		}
	}
	return free
}

func (m *refSuperpage) access(v uint64) {
	m.c.Accesses++
	r := v / m.h
	reg := m.regions[r]
	if reg == nil {
		reg = &refRegion{}
		if m.used+m.h <= m.ram || m.used-m.reclaimable()+m.h <= m.ram {
			m.makeRoom(m.h)
			reg.reserved = true
			m.used += m.h
		} else {
			m.makeRoom(1)
			m.used++
		}
		m.regions[r] = reg
		m.lru.touch(r)
		m.populate(reg, v)
	} else {
		m.lru.touch(r)
		if !m.populated[v] {
			if !reg.reserved {
				m.makeRoom(1)
				if m.regions[r] == nil { // evicted itself making room
					reg = &refRegion{}
					m.regions[r] = reg
					m.lru.touch(r)
				}
				m.used++
			}
			m.populate(reg, v)
		}
	}
	if reg.reserved && !reg.promoted && reg.pop == m.h {
		reg.promoted = true
		for p := r * m.h; p < (r+1)*m.h; p++ {
			m.tlb.remove(refBase(p))
		}
	}
	key := refBase(v)
	if reg.promoted {
		key = refHuge(r)
	}
	if hit, _ := m.tlb.Access(key); !hit {
		m.c.TLBMisses++
	}
}

func (m *refSuperpage) populate(reg *refRegion, v uint64) {
	m.populated[v] = true
	reg.pop++
	m.c.IOs++
}

func (m *refSuperpage) makeRoom(need uint64) {
	if m.used+need <= m.ram {
		return
	}
	if free := m.reclaimable(); free > 0 {
		for _, r := range m.lru.keys() {
			if m.used+need <= m.ram || free == 0 {
				break
			}
			if reg := m.regions[r]; reg.reserved && !reg.promoted {
				reg.reserved = false
				m.used -= m.h - reg.pop
				free -= m.h - reg.pop
			}
		}
	}
	for m.used+need > m.ram {
		r := m.lru.evict()
		reg := m.regions[r]
		if reg.reserved {
			m.used -= m.h
		} else {
			m.used -= reg.pop
		}
		if reg.promoted {
			m.tlb.remove(refHuge(r))
		}
		for p := r * m.h; p < (r+1)*m.h; p++ {
			if m.populated[p] && !reg.promoted {
				m.tlb.remove(refBase(p))
			}
			delete(m.populated, p)
		}
		delete(m.regions, r)
	}
}

func (m *refSuperpage) costs() Costs { return m.c }

// refDecoupled is Theorem 4's algorithm Z: Y over base pages (capacity
// MaxResident) drives the scheme — each victim paged out, each miss one IO
// and a page-in — and X over huge pages v/hmax costs ε per miss; a request
// to a page in the failure set F costs one more IO and a decoding miss,
// and every other resident page must decode.
type refDecoupled struct {
	scheme *core.Scheme
	hmax   uint64
	x, y   refPolicy
	c      Costs
}

func newRefDecoupled(cfg DecoupledConfig) *refDecoupled {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	p, err := core.DeriveParams(cfg.Alloc, cfg.RAMPages, cfg.VirtualPages, cfg.ValueBits)
	if err != nil {
		panic(err)
	}
	scheme, err := core.NewScheme(p, cfg.Seed)
	if err != nil {
		panic(err)
	}
	return &refDecoupled{scheme: scheme, hmax: uint64(p.HMax),
		x: newRefPolicy(cfg.TLBPolicy, cfg.TLBEntries, cfg.Seed+2),
		y: newRefPolicy(cfg.RAMPolicy, int(p.MaxResident), cfg.Seed+3)}
}

func (m *refDecoupled) access(v uint64) {
	m.c.Accesses++
	hit, victim := m.y.Access(v)
	if victim != policy.NoEviction {
		m.scheme.PageOut(victim)
	}
	if !hit {
		m.c.IOs++
		m.scheme.PageIn(v)
	}
	if !m.x.Contains(v / m.hmax) {
		m.c.TLBMisses++
	}
	m.x.Access(v / m.hmax)
	if m.scheme.IsFailed(v) {
		m.c.IOs++
		m.c.DecodingMisses++
	} else if phys, ok := m.scheme.Allocator().PhysOf(v); !ok || m.scheme.Lookup(v) != phys {
		panic(fmt.Sprintf("reference: resident page %d decodes wrongly", v))
	}
}

func (m *refDecoupled) costs() Costs { return m.c }

// refHybrid is Z over groups of g pages (P/g and V/g groups): every group
// fault moves g pages, so each IO costs g.
type refHybrid struct {
	g     uint64
	inner *refDecoupled
}

func newRefHybrid(cfg HybridConfig) *refHybrid {
	z := cfg.Decoupled
	z.RAMPages /= cfg.GroupSize
	z.VirtualPages /= cfg.GroupSize
	return &refHybrid{g: cfg.GroupSize, inner: newRefDecoupled(z)}
}

func (m *refHybrid) access(v uint64) { m.inner.access(v / m.g) }

func (m *refHybrid) costs() Costs {
	c := m.inner.costs()
	c.IOs *= m.g
	return c
}
