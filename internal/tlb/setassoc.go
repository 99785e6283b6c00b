package tlb

import (
	"fmt"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

// SetAssociative models a hardware TLB with limited associativity: the
// entry space is split into sets of `ways` entries; a key may only reside
// in the set its hash selects, managed by a per-set replacement policy.
//
// The paper's Section 6 simulator treats the TLB as fully associative
// (footnote 1 licenses this simplification); this model quantifies what
// the simplification hides. It is also a nice mirror of the paper's own
// theme — the RAM-allocation schemes of Section 4 are precisely
// low-associativity caches, so the same structure appears on both sides
// of the translation problem.
//
// For LRU over dense keys the sets share one key-indexed node array with a
// head per set (policy.SetLRU): a key lives in exactly one set, so the
// model costs one node per key rather than one key index per set. Other
// policy kinds, and keys past policy.KeyIndexBound, run one generic
// per-set TLB each.
type SetAssociative struct {
	sets    int
	ways    int
	indexer *hashutil.Family
	lru     *policy.SetLRU // LRU over dense keys
	subs    []*TLB         // every other configuration: one TLB per set

	hits   uint64
	misses uint64
}

// NewSetAssociative builds a TLB of sets×ways entries over keys in
// [0, keyBound) (0 when unknown, as for New). entries must be divisible
// by ways. kind selects the per-set replacement policy.
func NewSetAssociative(entries, ways int, keyBound uint64, kind policy.Kind, seed uint64) (*SetAssociative, error) {
	if entries <= 0 || ways <= 0 {
		return nil, fmt.Errorf("tlb: entries and ways must be positive")
	}
	if entries%ways != 0 {
		return nil, fmt.Errorf("tlb: entries %d not divisible by ways %d", entries, ways)
	}
	sets := entries / ways
	s := &SetAssociative{
		sets:    sets,
		ways:    ways,
		indexer: hashutil.NewFamily(seed, 1, uint64(sets)),
	}
	if kind == policy.LRUKind && keyBound <= policy.KeyIndexBound-uint64(sets) {
		s.lru = policy.NewSetLRU(sets, ways, keyBound)
		return s, nil
	}
	for i := 0; i < sets; i++ {
		sub, err := New(ways, keyBound, kind, seed+uint64(i)+1)
		if err != nil {
			return nil, err
		}
		s.subs = append(s.subs, sub)
	}
	return s, nil
}

// setOf returns the set index for a key. Real hardware uses low index
// bits; hashing the key avoids pathological striding in synthetic
// workloads while preserving the limited-associativity behavior.
func (s *SetAssociative) setOf(key uint64) int {
	return int(s.indexer.At(0, key))
}

// Lookup reports whether key is cached, updating recency and counters.
func (s *SetAssociative) Lookup(key uint64) bool {
	var ok bool
	if s.lru != nil {
		ok = s.lru.Touch(s.setOf(key), key)
	} else {
		ok = s.subs[s.setOf(key)].Lookup(key)
	}
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return ok
}

// Insert caches key in its set, evicting within the set per the policy.
func (s *SetAssociative) Insert(key uint64) (victim uint64, evicted bool) {
	if s.lru == nil {
		return s.subs[s.setOf(key)].Insert(key)
	}
	if _, v := s.lru.Access(s.setOf(key), key); v != policy.NoEviction {
		return v, true
	}
	return 0, false
}

// Invalidate drops key if present.
func (s *SetAssociative) Invalidate(key uint64) bool {
	if s.lru != nil {
		return s.lru.Remove(s.setOf(key), key)
	}
	return s.subs[s.setOf(key)].Invalidate(key)
}

// Contains reports presence without side effects.
func (s *SetAssociative) Contains(key uint64) bool {
	if s.lru != nil {
		return s.lru.Contains(key)
	}
	return s.subs[s.setOf(key)].Contains(key)
}

// Hits and Misses are aggregate counters.
func (s *SetAssociative) Hits() uint64 { return s.hits }

// Misses returns the aggregate miss count.
func (s *SetAssociative) Misses() uint64 { return s.misses }

// Sets and Ways expose the geometry.
func (s *SetAssociative) Sets() int { return s.sets }

// Ways returns the associativity.
func (s *SetAssociative) Ways() int { return s.ways }

// Len returns the number of cached entries.
func (s *SetAssociative) Len() int {
	if s.lru != nil {
		return s.lru.Len()
	}
	n := 0
	for _, sub := range s.subs {
		n += sub.Len()
	}
	return n
}

// Reach returns the address-space coverage of the live entries in base
// pages, given the pages each entry translates.
func (s *SetAssociative) Reach(pagesPerEntry uint64) uint64 {
	return uint64(s.Len()) * pagesPerEntry
}

// ResetCounters zeroes the aggregate counters.
func (s *SetAssociative) ResetCounters() {
	s.hits, s.misses = 0, 0
}
