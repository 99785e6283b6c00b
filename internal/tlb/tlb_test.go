package tlb

import (
	"testing"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(0, 0, policy.LRUKind, 1); err == nil {
		t.Error("entries=0 should error")
	}
	if _, err := New(4, 0, "bogus", 1); err == nil {
		t.Error("bad policy kind should error")
	}
}

func TestLookupInsert(t *testing.T) {
	tl, err := New(2, 0, policy.LRUKind, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Lookup(1) {
		t.Fatal("empty TLB should miss")
	}
	tl.Insert(1)
	if !tl.Lookup(1) {
		t.Fatal("Lookup(1) missed after Insert(1)")
	}
	tl.Insert(2)
	// Lookup(1) made 1 most recent, then Insert(2): order [2,1], so
	// Insert(3) evicts 1.
	victim, evicted := tl.Insert(3)
	if !evicted || victim != 1 {
		t.Fatalf("Insert(3) victim = %d,%v want 1,true", victim, evicted)
	}
	if tl.Contains(1) {
		t.Fatal("evicted entry still present")
	}
	if tl.Hits() != 1 || tl.Misses() != 1 {
		t.Fatalf("counters: hits=%d misses=%d", tl.Hits(), tl.Misses())
	}
}

// TestValueNoSideEffects pins that peeking at an entry (Contains) neither
// refreshes its recency nor moves the counters.
func TestValueNoSideEffects(t *testing.T) {
	tl, _ := New(2, 0, policy.LRUKind, 1)
	tl.Insert(1)
	tl.Insert(2)
	// Peeking at 1 must NOT refresh it; inserting 3 must still evict 1.
	if !tl.Contains(1) {
		t.Fatal("Contains(1) should find entry")
	}
	if tl.Hits() != 0 || tl.Misses() != 0 {
		t.Fatal("Contains must not touch counters")
	}
	victim, _ := tl.Insert(3)
	if victim != 1 {
		t.Fatalf("victim = %d, want 1 (Contains must not refresh recency)", victim)
	}
}

func TestInvalidate(t *testing.T) {
	tl, _ := New(4, 0, policy.LRUKind, 1)
	tl.Insert(1)
	if !tl.Invalidate(1) {
		t.Fatal("Invalidate of present key should report true")
	}
	if tl.Invalidate(1) {
		t.Fatal("second Invalidate should report false")
	}
	if tl.Len() != 0 {
		t.Fatalf("Len = %d after invalidate", tl.Len())
	}
}

func TestResetCounters(t *testing.T) {
	tl, _ := New(4, 0, policy.LRUKind, 1)
	tl.Lookup(1)
	tl.Insert(1)
	tl.Lookup(1)
	tl.ResetCounters()
	if tl.Hits() != 0 || tl.Misses() != 0 {
		t.Fatal("counters not reset")
	}
}

func TestCapacityEnforced(t *testing.T) {
	const n = 16
	for _, bound := range []uint64{0, 100, policy.KeyIndexBound + 1} {
		tl, _ := New(n, bound, policy.LRUKind, 1)
		r := hashutil.NewRNG(2)
		cached := map[uint64]bool{}
		for i := 0; i < 10000; i++ {
			u := r.Uint64n(100)
			if tl.Lookup(u) {
				if !cached[u] {
					t.Fatalf("bound %d: hit on key %d that was never cached or was evicted", bound, u)
				}
				continue
			}
			if cached[u] {
				t.Fatalf("bound %d: miss on cached key %d", bound, u)
			}
			cached[u] = true
			if victim, evicted := tl.Insert(u); evicted {
				delete(cached, victim)
			}
			if tl.Len() > n {
				t.Fatalf("bound %d: Len = %d exceeds capacity %d", bound, tl.Len(), n)
			}
			if tl.Len() != len(cached) {
				t.Fatalf("bound %d: Len = %d, shadow = %d", bound, tl.Len(), len(cached))
			}
		}
		if tl.Hits()+tl.Misses() == 0 {
			t.Fatalf("bound %d: counters never moved", bound)
		}
	}
}

// TestKeyBoundPicksPath pins how New chooses between the key-indexed flat
// path and the map-backed LRU: dense keys, bounded or not, run flat, and
// a bound past policy.KeyIndexBound (replayed page numbers) runs on the
// map, where keys far past the node index are fine.
func TestKeyBoundPicksPath(t *testing.T) {
	for _, c := range []struct {
		bound uint64
		flat  bool
	}{{0, true}, {1 << 20, true}, {policy.KeyIndexBound, true}, {policy.KeyIndexBound + 1, false}, {1 << 40, false}} {
		tl, err := New(4, c.bound, policy.LRUKind, 1)
		if err != nil {
			t.Fatal(err)
		}
		if (tl.flat != nil) != c.flat {
			t.Fatalf("bound %d: flat = %v, want %v", c.bound, tl.flat != nil, c.flat)
		}
	}
	tl, _ := New(4, 1<<40, policy.LRUKind, 1)
	for _, u := range []uint64{1 << 39, 1<<40 - 1, 1 << 39} {
		if !tl.Lookup(u) {
			tl.Insert(u)
		}
	}
	if tl.Hits() != 1 || tl.Misses() != 2 || tl.Len() != 2 {
		t.Fatalf("sparse keys: hits=%d misses=%d len=%d, want 1, 2, 2", tl.Hits(), tl.Misses(), tl.Len())
	}
}

func TestHitRateConvergesForSmallWorkingSet(t *testing.T) {
	// Working set fits: after warmup, hit rate should be ~100%.
	tl, _ := New(64, 64, policy.LRUKind, 1)
	r := hashutil.NewRNG(3)
	for i := 0; i < 1000; i++ {
		u := r.Uint64n(64)
		if !tl.Lookup(u) {
			tl.Insert(u)
		}
	}
	tl.ResetCounters()
	for i := 0; i < 10000; i++ {
		u := r.Uint64n(64)
		if !tl.Lookup(u) {
			tl.Insert(u)
		}
	}
	if tl.Misses() != 0 {
		t.Fatalf("misses = %d for fully-resident working set", tl.Misses())
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tl, _ := New(1536, 1536, policy.LRUKind, 1)
	for u := uint64(0); u < 1536; u++ {
		tl.Insert(u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(uint64(i) % 1536)
	}
}
