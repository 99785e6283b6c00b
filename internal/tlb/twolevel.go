package tlb

import (
	"fmt"

	"addrxlat/internal/policy"
)

// TwoLevel models an L1/L2 TLB hierarchy, as in every modern CPU (e.g.
// Cascade Lake: 64-entry L1 dTLB in front of the 1536-entry L2). Lookups
// probe L1, then L2; an L2 hit refills L1 (evicting per L1's policy); a
// full miss fills both. Inclusive: invalidations drop both levels.
type TwoLevel struct {
	l1, l2 *TLB

	l1Hits uint64
	l2Hits uint64
	misses uint64
}

// NewTwoLevel builds a hierarchy with the given entry counts over dense
// keys of no known bound (see New).
func NewTwoLevel(l1Entries, l2Entries int, kind policy.Kind, seed uint64) (*TwoLevel, error) {
	if l1Entries <= 0 || l2Entries <= 0 {
		return nil, fmt.Errorf("tlb: level sizes must be positive")
	}
	if l1Entries >= l2Entries {
		return nil, fmt.Errorf("tlb: L1 (%d) must be smaller than L2 (%d)", l1Entries, l2Entries)
	}
	l1, err := New(l1Entries, 0, kind, seed)
	if err != nil {
		return nil, err
	}
	l2, err := New(l2Entries, 0, kind, seed+1)
	if err != nil {
		return nil, err
	}
	return &TwoLevel{l1: l1, l2: l2}, nil
}

// Lookup probes the hierarchy. level reports where the hit landed (1 or
// 2), or 0 on a full miss.
func (t *TwoLevel) Lookup(key uint64) (level int) {
	if t.l1.Lookup(key) {
		t.l1Hits++
		return 1
	}
	if t.l2.Lookup(key) {
		t.l2Hits++
		t.l1.Insert(key) // refill L1
		return 2
	}
	t.misses++
	return 0
}

// Insert fills both levels after a full miss.
func (t *TwoLevel) Insert(key uint64) {
	t.l2.Insert(key)
	t.l1.Insert(key)
}

// Invalidate drops key from both levels, reporting whether it was present
// in either.
func (t *TwoLevel) Invalidate(key uint64) bool {
	in1 := t.l1.Invalidate(key)
	in2 := t.l2.Invalidate(key)
	return in1 || in2
}

// L1Hits, L2Hits and Misses report the traffic split.
func (t *TwoLevel) L1Hits() uint64 { return t.l1Hits }

// L2Hits returns hits served by L2 (after an L1 miss).
func (t *TwoLevel) L2Hits() uint64 { return t.l2Hits }

// Misses returns full (both-level) misses.
func (t *TwoLevel) Misses() uint64 { return t.misses }

// ResetCounters zeroes the hierarchy's counters.
func (t *TwoLevel) ResetCounters() {
	t.l1Hits, t.l2Hits, t.misses = 0, 0, 0
	t.l1.ResetCounters()
	t.l2.ResetCounters()
}

// L1 and L2 expose the levels for inspection.
func (t *TwoLevel) L1() *TLB { return t.l1 }

// L2 returns the second-level TLB.
func (t *TwoLevel) L2() *TLB { return t.l2 }
