package policy

import (
	"math"
	"math/rand"
	"slices"
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

// TestDenseLRUSlots pins the key-indexed contract at the edges of the
// node array: key 0 (node 1, beside the head), the last pre-sized key, a
// key that grows the array (state must survive the copy), reuse of an
// evicted or removed key's node by the same key, and keys past the
// 29-bit index, which must panic rather than alias another key's node.
func TestDenseLRUSlots(t *testing.T) {
	const hint = 16
	d := NewDenseLRU(2, hint)
	ref := NewLRU(2)
	for i, k := range []uint64{0, hint - 1, 0, hint, hint - 1, 0, 9 * hint, hint, 0, hint - 1, 0} {
		dh, dv := d.Access(k)
		rh, rv := ref.Access(k)
		if dh != rh || dv != rv {
			t.Fatalf("step %d key %d: Access = %v,%d, LRU says %v,%d", i, k, dh, dv, rh, rv)
		}
	}
	if !d.Remove(0) || d.Remove(0) || d.Contains(0) || d.Len() != 1 {
		t.Fatal("Remove(0) did not free key 0's node exactly once")
	}
	if hit, victim := d.Access(0); hit || victim != NoEviction || !d.Contains(0) {
		t.Fatalf("re-Access(0) = %v,%d; want a miss that reuses key 0's node without eviction", hit, victim)
	}
	if d.Contains(KeyIndexBound-1) || d.Remove(1<<40) || d.Touch(1<<40) {
		t.Fatal("a key past the node array must read as absent")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	for _, k := range []uint64{KeyIndexBound, KeyIndexBound + 1, 1 << 32, math.MaxUint64} {
		mustPanic("Access past the index", func() { NewDenseLRU(1, 0).Access(k) })
	}
	mustPanic("key hint past the index", func() { NewDenseLRU(1, KeyIndexBound+1) })
}

// TestDenseLRUScanLRU pins ScanLRU's least→most recent order and early
// stop, for DenseLRU and for the map LRU that stands in for it past the
// key index.
func TestDenseLRUScanLRU(t *testing.T) {
	type scanner interface {
		Policy
		ScanLRU(fn func(key uint64) bool)
	}
	for _, d := range []scanner{NewDenseLRU(3, 0), NewLRU(3)} {
		for _, k := range []uint64{1, 2, 3} {
			d.Access(k)
		}
		d.Access(1) // order now least→most: 2, 3, 1
		var got []uint64
		d.ScanLRU(func(k uint64) bool {
			got = append(got, k)
			return true
		})
		if want := []uint64{2, 3, 1}; !slices.Equal(got, want) {
			t.Fatalf("%T: ScanLRU order %v want %v", d, got, want)
		}
		var first []uint64
		d.ScanLRU(func(k uint64) bool {
			first = append(first, k)
			return false
		})
		if len(first) != 1 || first[0] != 2 {
			t.Fatalf("%T: ScanLRU early stop got %v", d, first)
		}
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

// TestDenseLRUTouch pins the probe-and-refresh the TLB and the fused
// kernels use: Touch of a resident key must behave exactly like Access —
// same recency order, observed through subsequent victim choices — and
// Touch of an absent key must change nothing, so the caller's fill with
// Access matches the reference's miss.
func TestDenseLRUTouch(t *testing.T) {
	const capacity = 32
	split := NewDenseLRU(capacity, 0)
	ref := NewLRU(capacity)
	rng := hashutil.NewRNG(99)
	for i := 0; i < 50000; i++ {
		k := rng.Uint64n(capacity * 3)
		wantHit, wantVictim := ref.Access(k)
		if split.Touch(k) {
			if !wantHit {
				t.Fatalf("step %d key %d: split sees resident, reference missed", i, k)
			}
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

// FuzzDenseLRU drives DenseLRU and the map-backed LRU, which shares no
// code with it, through one fuzzed operation stream — Access, Touch,
// Remove, EvictLRU, Contains and ScanLRU interleaved — at a fuzzed
// capacity (1 through 16) over a small key range whose top half lies past
// the fuzzed key hint, so the node array keeps growing. Every answer, the
// occupancy and the full recency order must agree.
func FuzzDenseLRU(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{0, 1, 0, 1, 2, 2, 2, 3})
	f.Add(byte(3), byte(2), []byte{9, 65, 130, 195, 4, 69, 134, 199, 9, 9, 250})
	f.Add(byte(15), byte(31), []byte{200, 17, 63, 17, 250, 5, 5, 5, 129, 7, 3, 3, 255, 191})
	f.Add(byte(1), byte(7), []byte{40, 105, 170, 235, 40, 41, 106, 171, 236, 42})
	f.Add(byte(7), byte(0), []byte{1, 2, 1, 4, 2, 9, 4, 1, 17, 9, 33, 17, 2, 4})
	f.Fuzz(func(t *testing.T, c, hint byte, ops []byte) {
		capacity := int(c%16) + 1
		d := NewDenseLRU(capacity, uint64(hint%32))
		ref := NewLRU(capacity)
		for i, b := range ops {
			// The top two bits pick the operation, the low six the key.
			k := uint64(b & 63)
			switch b >> 6 {
			case 0:
				dh, dv := d.Access(k)
				rh, rv := ref.Access(k)
				if dh != rh || dv != rv {
					t.Fatalf("cap %d op %d: Access(%d) = %v,%d, LRU says %v,%d", capacity, i, k, dh, dv, rh, rv)
				}
			case 1:
				want := ref.Contains(k)
				if want {
					ref.Access(k)
				}
				if got := d.Touch(k); got != want {
					t.Fatalf("cap %d op %d: Touch(%d) = %v, LRU holds it: %v", capacity, i, k, got, want)
				}
			case 2:
				if got, want := d.Remove(k), ref.Remove(k); got != want {
					t.Fatalf("cap %d op %d: Remove(%d) = %v, LRU says %v", capacity, i, k, got, want)
				}
			default:
				if k&1 == 0 {
					dk, dok := d.EvictLRU()
					rk, rok := ref.EvictLRU()
					if dk != rk || dok != rok {
						t.Fatalf("cap %d op %d: EvictLRU = %d,%v, LRU says %d,%v", capacity, i, dk, dok, rk, rok)
					}
				} else if got, want := d.Contains(k), ref.Contains(k); got != want {
					t.Fatalf("cap %d op %d: Contains(%d) = %v, LRU says %v", capacity, i, k, got, want)
				}
			}
			if d.Len() != ref.Len() {
				t.Fatalf("cap %d op %d: Len %d, LRU %d", capacity, i, d.Len(), ref.Len())
			}
			want := ref.Keys() // most to least recent
			var got []uint64
			d.ScanLRU(func(k uint64) bool { got = append(got, k); return true })
			if len(got) != len(want) {
				t.Fatalf("cap %d op %d: ScanLRU saw %d keys, LRU holds %d", capacity, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[len(want)-1-j] {
					t.Fatalf("cap %d op %d: ScanLRU order %v, LRU order (most recent first) %v", capacity, i, got, want)
				}
			}
		}
	})
}
