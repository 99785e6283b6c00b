package policy

import (
	"math/rand"
	"testing"

	"addrxlat/internal/hashutil"
)

// TestDenseLRUMatchesLRU drives DenseLRU and the classic map-backed LRU
// with the same operation stream and requires identical hits, victims,
// eviction order, and Keys sequences — DenseLRU is a representation
// change, not a policy change.
func TestDenseLRUMatchesLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		d := NewDenseLRU(capacity, 0)
		ref := NewLRU(capacity)
		for i := 0; i < 50000; i++ {
			k := uint64(rng.Intn(3 * capacity))
			switch rng.Intn(10) {
			case 0:
				if d.Remove(k) != ref.Remove(k) {
					t.Fatalf("cap %d step %d: Remove(%d) disagrees", capacity, i, k)
				}
			case 1:
				dk, dok := d.EvictLRU()
				rk, rok := ref.EvictLRU()
				if dk != rk || dok != rok {
					t.Fatalf("cap %d step %d: EvictLRU %d,%v vs %d,%v", capacity, i, dk, dok, rk, rok)
				}
			default:
				dh, dv := d.Access(k)
				rh, rv := ref.Access(k)
				if dh != rh || dv != rv {
					t.Fatalf("cap %d step %d: Access(%d) = %v,%d vs %v,%d", capacity, i, k, dh, dv, rh, rv)
				}
			}
			if d.Len() != ref.Len() {
				t.Fatalf("cap %d step %d: Len %d vs %d", capacity, i, d.Len(), ref.Len())
			}
			if i%997 == 0 {
				dk, rk := d.Keys(), ref.Keys()
				if len(dk) != len(rk) {
					t.Fatalf("cap %d step %d: Keys length %d vs %d", capacity, i, len(dk), len(rk))
				}
				for j := range dk {
					if dk[j] != rk[j] {
						t.Fatalf("cap %d step %d: Keys[%d] = %d vs %d", capacity, i, j, dk[j], rk[j])
					}
				}
			}
		}
	}
}

func TestDenseLRUSlots(t *testing.T) {
	d := NewDenseLRU(2, 0)
	s0, hit, _ := d.AccessSlot(10)
	if hit {
		t.Fatal("first access hit")
	}
	s1, _, _ := d.AccessSlot(20)
	if s0 == s1 {
		t.Fatal("distinct keys share a slot")
	}
	// Evicting 10 must hand its slot to the new key.
	s2, hit, victim := d.AccessSlot(30)
	if hit || victim != 10 || s2 != s0 {
		t.Fatalf("AccessSlot(30) = slot %d hit %v victim %d; want slot %d, victim 10", s2, hit, victim, s0)
	}
	if d.SlotOf(10) != -1 {
		t.Fatal("evicted key still has a slot")
	}
	if d.SlotOf(20) != s1 || d.SlotOf(30) != s2 {
		t.Fatal("SlotOf disagrees with AccessSlot")
	}
	if s := d.RemoveSlot(20); s != s1 {
		t.Fatalf("RemoveSlot(20) = %d want %d", s, s1)
	}
	// Freed slot must be reused.
	s3, _, _ := d.AccessSlot(40)
	if s3 != s1 {
		t.Fatalf("freed slot not reused: got %d want %d", s3, s1)
	}
}

func TestDenseLRUScanLRU(t *testing.T) {
	d := NewDenseLRU(3, 0)
	for _, k := range []uint64{1, 2, 3} {
		d.Access(k)
	}
	d.Access(1) // order now least→most: 2, 3, 1
	var got []uint64
	d.ScanLRU(func(k uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanLRU order %v want %v", got, want)
		}
	}
	var first []uint64
	d.ScanLRU(func(k uint64) bool {
		first = append(first, k)
		return false
	})
	if len(first) != 1 || first[0] != 2 {
		t.Fatalf("ScanLRU early stop got %v", first)
	}
}

func BenchmarkDenseLRUAccess(b *testing.B) {
	d := NewDenseLRU(1024, 1<<14)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<14)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 13))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(keys[i&(1<<14-1)])
	}
}

func BenchmarkMapLRUAccess(b *testing.B) {
	d := NewLRU(1024)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<14)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 13))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(keys[i&(1<<14-1)])
	}
}

// TestDenseLRUTouch pins the split probe the fused kernels use: for a
// resident key, SlotOf followed by Touch must behave exactly like Access —
// same recency order, observed through subsequent victim choices.
func TestDenseLRUTouch(t *testing.T) {
	const capacity = 32
	split := NewDenseLRU(capacity, 0)
	ref := NewDenseLRU(capacity, 0)
	rng := hashutil.NewRNG(99)
	for i := 0; i < 50000; i++ {
		k := rng.Uint64n(capacity * 3)
		wantHit, wantVictim := ref.Access(k)
		if s := split.SlotOf(k); s >= 0 {
			if !wantHit {
				t.Fatalf("step %d key %d: split sees resident, reference missed", i, k)
			}
			split.Touch(s)
		} else {
			gotHit, gotVictim := split.Access(k)
			if gotHit != wantHit || gotVictim != wantVictim {
				t.Fatalf("step %d key %d: split miss path (%v,%d) != reference (%v,%d)",
					i, k, gotHit, gotVictim, wantHit, wantVictim)
			}
		}
		if split.Len() != ref.Len() {
			t.Fatalf("step %d: occupancy diverged %d vs %d", i, split.Len(), ref.Len())
		}
	}
}
