package dense

import (
	"math/rand"
	"testing"
)

func TestTableBasics(t *testing.T) {
	tab := NewTable[uint32](^uint32(0), 0)
	if tab.Len() != 0 {
		t.Fatalf("new table Len = %d", tab.Len())
	}
	if _, ok := tab.Get(5); ok {
		t.Fatal("Get on empty table reported presence")
	}
	tab.Set(5, 42)
	if v, ok := tab.Get(5); !ok || v != 42 {
		t.Fatalf("Get(5) = %d,%v want 42,true", v, ok)
	}
	if tab.At(5) != 42 {
		t.Fatalf("At(5) = %d", tab.At(5))
	}
	if tab.At(6) != ^uint32(0) {
		t.Fatal("At on absent key did not return sentinel")
	}
	if !tab.Contains(5) || tab.Contains(4) {
		t.Fatal("Contains wrong")
	}
	tab.Set(5, 7) // overwrite must not change Len
	if tab.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", tab.Len())
	}
	if !tab.Delete(5) || tab.Delete(5) {
		t.Fatal("Delete semantics wrong")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len after delete = %d", tab.Len())
	}
}

func TestTableSentinelSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(sentinel) did not panic")
		}
	}()
	NewTable[int32](-1, 0).Set(0, -1)
}

func TestTableGrowth(t *testing.T) {
	tab := NewTable[int32](-1, 0)
	tab.Set(1000, 3)
	if v, ok := tab.Get(1000); !ok || v != 3 {
		t.Fatalf("Get(1000) = %d,%v", v, ok)
	}
	// Keys below the grown bound must still read absent.
	for k := uint64(0); k < 1000; k++ {
		if tab.Contains(k) {
			t.Fatalf("key %d spuriously present after growth", k)
		}
	}
}

// TestTableSparseKeys exercises the hash-map overflow region for keys at
// and above SparseBound (e.g. the nested model's page-table tag 1<<62).
func TestTableSparseKeys(t *testing.T) {
	tab := NewTable[uint64](^uint64(0), 0)
	huge := uint64(1)<<62 + 17
	if tab.Contains(huge) {
		t.Fatal("empty table contains huge key")
	}
	tab.Set(huge, 99)
	tab.Set(3, 5)
	if v, ok := tab.Get(huge); !ok || v != 99 {
		t.Fatalf("Get(huge) = %d,%v", v, ok)
	}
	if tab.At(huge) != 99 || tab.At(huge+1) != tab.absent {
		t.Fatal("At wrong in sparse region")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d want 2", tab.Len())
	}
	if tab.Cap() > SparseBound {
		t.Fatalf("huge key grew the flat region to %d", tab.Cap())
	}
	if !tab.Delete(huge) || tab.Delete(huge) {
		t.Fatal("Delete semantics wrong in sparse region")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len after sparse delete = %d", tab.Len())
	}
}

// TestTableMatchesMap drives a Table and a map with the same random
// operation stream and checks they agree at every step. Half the key
// space sits above SparseBound so both regions are exercised.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := NewTable[uint64](^uint64(0), 0)
	ref := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(512))
		if rng.Intn(2) == 0 {
			k += 1 << 62
		}
		switch rng.Intn(3) {
		case 0:
			v := uint64(rng.Intn(1 << 30))
			tab.Set(k, v)
			ref[k] = v
		case 1:
			got := tab.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v want %v", i, k, got, want)
			}
			delete(ref, k)
		case 2:
			v, ok := tab.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("step %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len %d != %d", i, tab.Len(), len(ref))
		}
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(0)
	if b.Contains(3) {
		t.Fatal("empty bitset contains 3")
	}
	if !b.Add(3) || b.Add(3) {
		t.Fatal("Add semantics wrong")
	}
	if !b.Contains(3) || b.Len() != 1 {
		t.Fatal("Contains/Len wrong after Add")
	}
	if !b.Add(200) {
		t.Fatal("Add after growth failed")
	}
	if !b.Remove(3) || b.Remove(3) {
		t.Fatal("Remove semantics wrong")
	}
	if b.Remove(10_000) {
		t.Fatal("Remove beyond growth reported true")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d want 1", b.Len())
	}
}

// TestBitsetMatchesMap drives a Bitset and a map with the same random
// operation stream; half the keys straddle SparseBound, so the flat words
// and the sparse set are both exercised and the flat region stays capped.
func TestBitsetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBitset(0)
	ref := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(700))
		if rng.Intn(2) == 0 {
			k += SparseBound - 350
		}
		switch rng.Intn(3) {
		case 0:
			got := b.Add(k)
			if got != !ref[k] {
				t.Fatalf("step %d: Add(%d) = %v", i, k, got)
			}
			ref[k] = true
		case 1:
			got := b.Remove(k)
			if got != ref[k] {
				t.Fatalf("step %d: Remove(%d) = %v", i, k, got)
			}
			delete(ref, k)
		case 2:
			if b.Contains(k) != ref[k] {
				t.Fatalf("step %d: Contains(%d) = %v", i, k, b.Contains(k))
			}
		}
		if b.Len() != len(ref) {
			t.Fatalf("step %d: Len %d != %d", i, b.Len(), len(ref))
		}
	}
	if len(b.words) > SparseBound/64 {
		t.Fatalf("flat region grew to %d words, past SparseBound", len(b.words))
	}
}

// TestSparseKeyBoundStaysInMap pins the representation choice for a
// declared key bound past SparseBound: a sparse space's low keys go to the
// map too, so a few of them cannot grow the flat region toward the bound.
func TestSparseKeyBoundStaysInMap(t *testing.T) {
	tab := NewTable[uint32](0, 1<<40)
	b := NewBitset(1 << 40)
	for _, k := range []uint64{3, SparseBound - 1, 1 << 39} {
		tab.Set(k, 7)
		b.Add(k)
		if tab.At(k) != 7 || !b.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
	if tab.Cap() != 0 || len(b.words) != 0 {
		t.Fatalf("flat regions grew to %d values / %d words", tab.Cap(), len(b.words))
	}
	if !tab.Delete(3) || !b.Remove(3) || tab.Contains(3) || b.Contains(3) || tab.Len() != 2 || b.Len() != 2 {
		t.Fatal("delete in the map region wrong")
	}
	if FlatBound(0) != SparseBound || FlatBound(SparseBound) != SparseBound || FlatBound(SparseBound+1) != 0 {
		t.Fatal("FlatBound picks the wrong side")
	}
}
