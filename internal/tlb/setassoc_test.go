package tlb

import (
	"testing"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

func TestSetAssociativeErrors(t *testing.T) {
	if _, err := NewSetAssociative(0, 4, 0, policy.LRUKind, 1); err == nil {
		t.Error("entries=0 should error")
	}
	if _, err := NewSetAssociative(16, 0, 0, policy.LRUKind, 1); err == nil {
		t.Error("ways=0 should error")
	}
	if _, err := NewSetAssociative(10, 4, 0, policy.LRUKind, 1); err == nil {
		t.Error("non-divisible should error")
	}
	if _, err := NewSetAssociative(16, 4, 0, "bogus", 1); err == nil {
		t.Error("bad policy should error")
	}
}

func TestSetAssociativeBasic(t *testing.T) {
	s, err := NewSetAssociative(16, 4, 0, policy.LRUKind, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sets() != 4 || s.Ways() != 4 {
		t.Fatalf("geometry %d×%d", s.Sets(), s.Ways())
	}
	s.Insert(42)
	if !s.Lookup(42) {
		t.Fatal("lookup missed after insert")
	}
	if !s.Contains(42) {
		t.Fatal("Contains false after insert")
	}
	if !s.Invalidate(42) || s.Invalidate(42) {
		t.Fatal("invalidate semantics wrong")
	}
	if s.Hits() != 1 || s.Misses() != 0 {
		t.Fatalf("counters: %d/%d", s.Hits(), s.Misses())
	}
	s.ResetCounters()
	if s.Hits() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSetAssociativeConflictMisses(t *testing.T) {
	// With 1-way (direct-mapped) sets, keys hashing to the same set
	// conflict even when the TLB is mostly empty; full associativity at
	// the same total size would hold them all. Compare miss counts on a
	// small working set.
	const entries = 64
	const workingSet = 32
	type cache interface {
		Lookup(uint64) bool
		Insert(uint64) (uint64, bool)
	}
	run := func(mk func() cache) uint64 {
		c := mk()
		r := hashutil.NewRNG(5)
		var misses uint64
		for i := 0; i < 100000; i++ {
			key := r.Uint64n(workingSet)
			if !c.Lookup(key) {
				misses++
				c.Insert(key)
			}
		}
		return misses
	}
	directMisses := run(func() cache {
		s, err := NewSetAssociative(entries, 1, 0, policy.LRUKind, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	fullMisses := run(func() cache {
		f, err := New(entries, 0, policy.LRUKind, 2)
		if err != nil {
			t.Fatal(err)
		}
		return f
	})
	// Fully associative caches the 32-key working set entirely: only
	// cold misses. Direct-mapped conflicts keep missing.
	if fullMisses != workingSet {
		t.Fatalf("fully associative misses = %d, want %d cold misses", fullMisses, workingSet)
	}
	if directMisses <= fullMisses*2 {
		t.Fatalf("direct-mapped misses %d should far exceed full-assoc %d", directMisses, fullMisses)
	}
}

func TestSetAssociativeMoreWaysFewerMisses(t *testing.T) {
	const entries = 64
	r := hashutil.NewRNG(7)
	keys := make([]uint64, 1<<15)
	for i := range keys {
		keys[i] = r.Uint64n(48)
	}
	missesAt := func(ways int) uint64 {
		s, err := NewSetAssociative(entries, ways, 0, policy.LRUKind, 3)
		if err != nil {
			t.Fatal(err)
		}
		var misses uint64
		for _, k := range keys {
			if !s.Lookup(k) {
				misses++
				s.Insert(k)
			}
		}
		return misses
	}
	m1, m4, m64 := missesAt(1), missesAt(4), missesAt(64)
	if !(m64 <= m4 && m4 <= m1) {
		t.Fatalf("misses not monotone in associativity: 1-way %d, 4-way %d, 64-way %d", m1, m4, m64)
	}
}

func TestSetAssociativeCapacity(t *testing.T) {
	s, _ := NewSetAssociative(16, 2, 0, policy.LRUKind, 1)
	for k := uint64(0); k < 1000; k++ {
		s.Insert(k)
	}
	if s.Len() > 16 {
		t.Fatalf("Len = %d exceeds 16 entries", s.Len())
	}
}

func TestTwoLevelErrors(t *testing.T) {
	if _, err := NewTwoLevel(0, 8, policy.LRUKind, 1); err == nil {
		t.Error("L1=0 should error")
	}
	if _, err := NewTwoLevel(8, 0, policy.LRUKind, 1); err == nil {
		t.Error("L2=0 should error")
	}
	if _, err := NewTwoLevel(8, 8, policy.LRUKind, 1); err == nil {
		t.Error("L1>=L2 should error")
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	h, err := NewTwoLevel(2, 8, policy.LRUKind, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Full miss.
	if level := h.Lookup(1); level != 0 {
		t.Fatalf("level = %d, want 0", level)
	}
	h.Insert(1)
	// L1 hit.
	if level := h.Lookup(1); level != 1 {
		t.Fatalf("level = %d, want 1", level)
	}
	// Flood L1 (2 entries) so key 1 falls back to L2 only.
	h.Insert(2)
	h.Insert(3)
	if level := h.Lookup(1); level != 2 {
		t.Fatalf("after L1 flood: level = %d, want 2", level)
	}
	// The L2 hit refilled L1.
	if level := h.Lookup(1); level != 1 {
		t.Fatalf("refill failed: level = %d", level)
	}
	if h.L1Hits() != 2 || h.L2Hits() != 1 || h.Misses() != 1 {
		t.Fatalf("traffic: l1=%d l2=%d miss=%d", h.L1Hits(), h.L2Hits(), h.Misses())
	}
	if !h.Invalidate(1) {
		t.Fatal("invalidate failed")
	}
	if h.Lookup(1) != 0 {
		t.Fatal("key survived invalidation")
	}
	h.ResetCounters()
	if h.L1Hits()+h.L2Hits()+h.Misses() != 0 {
		t.Fatal("counters not reset")
	}
	if h.L1().Cap() != 2 || h.L2().Cap() != 8 {
		t.Fatal("level accessors broken")
	}
}

func TestTwoLevelFiltering(t *testing.T) {
	// A hot few keys should be absorbed almost entirely by L1, leaving
	// L2 traffic dominated by the colder tail.
	h, _ := NewTwoLevel(8, 256, policy.LRUKind, 1)
	r := hashutil.NewRNG(2)
	for i := 0; i < 200000; i++ {
		var key uint64
		if r.Float64() < 0.9 {
			key = r.Uint64n(4) // hot
		} else {
			key = 100 + r.Uint64n(400) // cold tail
		}
		if h.Lookup(key) == 0 {
			h.Insert(key)
		}
	}
	if h.L1Hits() < h.L2Hits() {
		t.Fatalf("L1 hits %d below L2 hits %d for a hot working set", h.L1Hits(), h.L2Hits())
	}
}

// TestSetAssociativeSharedArrayMatchesPerSet pins the shared key-indexed
// layout against one map-backed TLB per set (the sparse-bound path): same
// hits, victims, invalidations and occupancy over one stream.
func TestSetAssociativeSharedArrayMatchesPerSet(t *testing.T) {
	for _, ways := range []int{1, 4} {
		shared, err := NewSetAssociative(32, ways, 0, policy.LRUKind, 9)
		if err != nil {
			t.Fatal(err)
		}
		perSet, err := NewSetAssociative(32, ways, sparseKeys, policy.LRUKind, 9)
		if err != nil {
			t.Fatal(err)
		}
		if shared.lru == nil || perSet.lru != nil {
			t.Fatal("want the shared array checked against per-set TLBs")
		}
		r := hashutil.NewRNG(uint64(ways))
		for i := 0; i < 30000; i++ {
			k := r.Uint64n(256)
			if r.Uint64n(10) == 0 {
				if got, want := shared.Invalidate(k), perSet.Invalidate(k); got != want {
					t.Fatalf("ways %d step %d: Invalidate(%d) = %v, want %v", ways, i, k, got, want)
				}
			} else if got, want := shared.Lookup(k), perSet.Lookup(k); got != want {
				t.Fatalf("ways %d step %d: Lookup(%d) = %v, want %v", ways, i, k, got, want)
			} else if !got {
				gv, ge := shared.Insert(k)
				wv, we := perSet.Insert(k)
				if gv != wv || ge != we {
					t.Fatalf("ways %d step %d: Insert(%d) = %d,%v, want %d,%v", ways, i, k, gv, ge, wv, we)
				}
			}
			if shared.Len() != perSet.Len() {
				t.Fatalf("ways %d step %d: Len %d, want %d", ways, i, shared.Len(), perSet.Len())
			}
		}
	}
}
