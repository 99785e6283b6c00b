// Package tlb models a translation lookaside buffer: a small cache whose
// keys are virtual huge-page addresses.
//
// Matching the paper's Section 6 simulator, the TLB is fully associative
// with a pluggable replacement policy (LRU by default, 1536 entries — the
// size of Cascade Lake's L2 data TLB). In the paper's model an entry for
// huge page u holds the w-bit value ψ(u) — a physical huge-page address
// for classical schemes, the field array the core Encoder produces for
// decoupled ones — and ψ updates while u is cached are free. So the entry
// always holds the live value, and the cost model turns only on whether
// u is cached: the simulator counts hits and misses and stores no value.
package tlb

import (
	"fmt"

	"addrxlat/internal/policy"
)

// TLB is a fixed-capacity translation cache over huge-page keys.
//
// For the default LRU replacement policy over dense keys the TLB runs on
// policy.DenseLRU, whose node array is indexed by key, so a steady-state
// access touches no hash table and performs no allocation. Other policy
// kinds, and keys past policy.KeyIndexBound, use the generic map-backed
// policies.
type TLB struct {
	cache policy.Policy
	flat  *policy.DenseLRU // cache, when it is the key-indexed LRU

	hits   uint64
	misses uint64
}

// New creates a TLB with the given entry count and replacement policy
// kind over keys in [0, keyBound) — keyBound 0 when the keys are dense
// but their bound is unknown, in which case the LRU node array grows on
// demand. seed feeds randomized policies.
func New(entries int, keyBound uint64, kind policy.Kind, seed uint64) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("tlb: entries must be positive, got %d", entries)
	}
	pol, err := policy.NewKeyed(kind, entries, keyBound, seed)
	if err != nil {
		return nil, err
	}
	t := &TLB{cache: pol}
	t.flat, _ = pol.(*policy.DenseLRU)
	return t, nil
}

// Lookup reports whether huge page u is cached, refreshing its recency on
// a hit and counting the hit or miss. A miss caches nothing; callers fill
// with Insert.
func (t *TLB) Lookup(u uint64) bool {
	var hit bool
	if t.flat != nil {
		hit = t.flat.Touch(u)
	} else if hit = t.cache.Contains(u); hit {
		t.cache.Access(u) // refresh recency
	}
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	return hit
}

// Insert caches huge page u, evicting per the policy. It returns the
// evicted huge page and true if an eviction occurred. Callers insert
// after a miss; inserting an already-present key just refreshes it.
func (t *TLB) Insert(u uint64) (victim uint64, evicted bool) {
	var v uint64
	if t.flat != nil {
		_, v = t.flat.Access(u)
	} else {
		_, v = t.cache.Access(u)
	}
	if v == policy.NoEviction {
		return 0, false
	}
	return v, true
}

// Contains reports whether u is cached, without side effects.
func (t *TLB) Contains(u uint64) bool { return t.cache.Contains(u) }

// Invalidate drops huge page u from the TLB (a TLB shootdown), reporting
// whether it was present.
func (t *TLB) Invalidate(u uint64) bool { return t.cache.Remove(u) }

// Hits and Misses return the lookup counters.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of lookups that missed.
func (t *TLB) Misses() uint64 { return t.misses }

// Len returns the number of cached entries.
func (t *TLB) Len() int { return t.cache.Len() }

// Cap returns the entry capacity ℓ.
func (t *TLB) Cap() int { return t.cache.Cap() }

// Reach returns the address-space coverage of the live entries in base
// pages, given the pages each entry translates (h, or hmax for decoupled
// schemes) — the quantity TLB-coverage gauges report.
func (t *TLB) Reach(pagesPerEntry uint64) uint64 {
	return uint64(t.Len()) * pagesPerEntry
}

// ResetCounters zeroes the hit/miss counters (used after cache warmup, as
// in the paper's measurement methodology).
func (t *TLB) ResetCounters() {
	t.hits, t.misses = 0, 0
}
