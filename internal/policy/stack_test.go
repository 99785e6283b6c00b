package policy

import (
	"math"
	"testing"

	"addrxlat/internal/hashutil"
)

// stackOracle replays a RecencyStack's requests on two standalone
// map-backed LRUs of the zone capacities. It shares no code with the
// stack, whose node layout and link helpers DenseLRU also uses.
type stackOracle struct{ l1, l2 *LRU }

func newStackOracle(cap1, cap2 int) stackOracle {
	return stackOracle{NewLRU(cap1), NewLRU(cap2)}
}

// access requests key from both caches and reports their hits.
func (o stackOracle) access(key uint64) (hit1, hit2 bool) {
	hit1, _ = o.l1.Access(key)
	hit2, _ = o.l2.Access(key)
	return hit1, hit2
}

// column requests keys from both caches and counts their misses.
func (o stackOracle) column(keys []uint64) (miss1, miss2 uint64) {
	for _, k := range keys {
		hit1, hit2 := o.access(k)
		if !hit1 {
			miss1++
		}
		if !hit2 {
			miss2++
		}
	}
	return miss1, miss2
}

// shiftColumn encodes keys as requests whose key is v>>shift, with random
// low bits below the shift, into dst.
func shiftColumn(dst, keys []uint64, shift uint, rng *hashutil.RNG) []uint64 {
	dst = dst[:0]
	for _, k := range keys {
		dst = append(dst, k<<shift|rng.Uint64()&(1<<shift-1))
	}
	return dst
}

// TestRecencyStackMatchesTwoLRUs is the correctness pin for the merged
// recency stack: across capacity shapes (equal, TLB-like small/large,
// inverted, capacity 1) and key ranges (cache-friendly through thrashing),
// a dup-heavy stream (runs of the most recent key, a hot set, a cold tail)
// is served in chunks of random length and random shift. Every chunk must
// report exactly the misses two standalone LRU caches of the zone
// capacities report, one-key steps (Access) must report the same hits, and
// the occupancy counts must agree throughout.
func TestRecencyStackMatchesTwoLRUs(t *testing.T) {
	shapes := []struct{ cap1, cap2 int }{
		{16, 512},
		{512, 16},
		{64, 64},
		{1, 128},
		{128, 1},
		{1, 1},
		{3, 7},
	}
	for _, shape := range shapes {
		for _, keyRange := range []uint64{4, 24, 1000, 5000} {
			rs := NewRecencyStack(shape.cap1, shape.cap2, 0)
			o := newStackOracle(shape.cap1, shape.cap2)
			rng := hashutil.NewRNG(uint64(shape.cap1)*1000003 + keyRange)
			keys := make([]uint64, 0, 512)
			var col []uint64
			var prev uint64
			for step := 0; step < 20000; step += len(keys) {
				keys = keys[:1+rng.Uint64n(512)]
				if rng.Uint64n(4) == 0 {
					keys = keys[:1]
				}
				for i := range keys {
					switch p := rng.Float64(); {
					case p < 0.4:
					case p < 0.8:
						prev = rng.Uint64n(keyRange/8 + 1)
					default:
						prev = rng.Uint64n(keyRange)
					}
					keys[i] = prev
				}
				if len(keys) == 1 {
					got1, got2 := rs.Access(keys[0])
					want1, want2 := o.access(keys[0])
					if got1 != want1 || got2 != want2 {
						t.Fatalf("caps=(%d,%d) range=%d step=%d key=%d: stack=(%v,%v) two LRUs=(%v,%v)",
							shape.cap1, shape.cap2, keyRange, step, keys[0], got1, got2, want1, want2)
					}
				} else {
					shift := uint(rng.Uint64n(13))
					col = shiftColumn(col, keys, shift, rng)
					got1, got2 := rs.AccessShifted(col, shift)
					want1, want2 := o.column(keys)
					if got1 != want1 || got2 != want2 {
						t.Fatalf("caps=(%d,%d) range=%d step=%d chunk=%d shift=%d: stack misses (%d,%d), two LRUs (%d,%d)",
							shape.cap1, shape.cap2, keyRange, step, len(keys), shift, got1, got2, want1, want2)
					}
				}
				if rs.Zone1Len() != o.l1.Len() || rs.Zone2Len() != o.l2.Len() {
					t.Fatalf("caps=(%d,%d) range=%d step=%d: zone lens (%d,%d) != LRU lens (%d,%d)",
						shape.cap1, shape.cap2, keyRange, step,
						rs.Zone1Len(), rs.Zone2Len(), o.l1.Len(), o.l2.Len())
				}
			}
		}
	}
}

// columnTrace produces a dup-heavy page stream: consecutive repeats (the
// run-length collapse case), a hot set, and a cold tail, pre-shifted so
// AccessShifted's key derivation (v >> shift) yields long same-key runs.
func columnTrace(seed uint64, n int, keyRange uint64, shift uint) []uint64 {
	rng := hashutil.NewRNG(seed)
	vs := make([]uint64, n)
	var prev uint64
	for i := range vs {
		switch p := rng.Float64(); {
		case i > 0 && p < 0.4:
			vs[i] = prev
		case p < 0.8:
			vs[i] = rng.Uint64n(keyRange << shift / 8)
		default:
			vs[i] = rng.Uint64n(keyRange << shift)
		}
		prev = vs[i]
	}
	return vs
}

// TestRecencyStackColumnMatchesScalar pins chunk invariance of the columnar
// kernel: AccessShifted over a whole chunk must report exactly the miss
// totals of one-key Access(v>>shift) calls over the same requests, and must
// leave the stack in an equivalent state (verified by continuing both
// stacks key-for-key after each chunk). Uneven chunk boundaries cut through
// the same-key runs the kernel collapses, and the capacity shapes include
// the cap1==1 and cap2==1 boundary relinks it special-cases.
func TestRecencyStackColumnMatchesScalar(t *testing.T) {
	shapes := []struct{ cap1, cap2 int }{
		{16, 512},
		{512, 16},
		{64, 64},
		{1, 128},
		{128, 1},
		{1, 1},
		{3, 7},
	}
	const shift = 4
	for _, shape := range shapes {
		for _, keyRange := range []uint64{4, 24, 1000, 5000} {
			col := NewRecencyStack(shape.cap1, shape.cap2, 0)
			ref := NewRecencyStack(shape.cap1, shape.cap2, 0)
			seed := uint64(shape.cap1)*2000003 + keyRange
			vs := columnTrace(seed, 30000, keyRange, shift)
			rng := hashutil.NewRNG(seed + 1)
			for lo := 0; lo < len(vs); {
				hi := min(lo+int(rng.Uint64n(900))+1, len(vs)) // uneven chunks
				chunk := vs[lo:hi]
				gotM1, gotM2 := col.AccessShifted(chunk, shift)
				var wantM1, wantM2 uint64
				for _, v := range chunk {
					h1, h2 := ref.Access(v >> shift)
					if !h1 {
						wantM1++
					}
					if !h2 {
						wantM2++
					}
				}
				if gotM1 != wantM1 || gotM2 != wantM2 {
					t.Fatalf("caps=(%d,%d) range=%d chunk=[%d,%d): column misses (%d,%d), scalar (%d,%d)",
						shape.cap1, shape.cap2, keyRange, lo, hi, gotM1, gotM2, wantM1, wantM2)
				}
				// Interleave scalar probes on both stacks: any internal
				// divergence (order, zone boundaries) surfaces as a hit
				// mismatch here or a miss mismatch in a later chunk.
				for i := 0; i < 32; i++ {
					k := rng.Uint64n(keyRange)
					c1, c2 := col.Access(k)
					r1, r2 := ref.Access(k)
					if c1 != r1 || c2 != r2 {
						t.Fatalf("caps=(%d,%d) range=%d after chunk [%d,%d): probe %d diverged: column=(%v,%v) scalar=(%v,%v)",
							shape.cap1, shape.cap2, keyRange, lo, hi, k, c1, c2, r1, r2)
					}
				}
				if col.Zone1Len() != ref.Zone1Len() || col.Zone2Len() != ref.Zone2Len() {
					t.Fatalf("caps=(%d,%d) range=%d: zone lens diverged (%d,%d) vs (%d,%d)",
						shape.cap1, shape.cap2, keyRange,
						col.Zone1Len(), col.Zone2Len(), ref.Zone1Len(), ref.Zone2Len())
				}
				lo = hi
			}
		}
	}
}

// TestRecencyStackSequentialScan exercises the classic LRU worst case,
// where every access past the warm phase misses both zones.
func TestRecencyStackSequentialScan(t *testing.T) {
	rs := NewRecencyStack(8, 32, 0)
	for lap := 0; lap < 3; lap++ {
		for k := uint64(0); k < 64; k++ {
			hit1, hit2 := rs.Access(k)
			if hit1 || hit2 {
				t.Fatalf("lap %d key %d: unexpected hit (%v,%v) on a 64-key cyclic scan", lap, k, hit1, hit2)
			}
		}
	}
}

// TestRecencyStackKeyBounds pins the edges of the key-indexed node array:
// key 0 (node 1, next to the sentinel), the last pre-sized key, the first
// key that grows the array (state must survive the copy), and keys past
// the 29-bit index, which must panic rather than alias another key's node.
func TestRecencyStackKeyBounds(t *testing.T) {
	const hint = 64
	rs := NewRecencyStack(2, 3, hint)
	o := newStackOracle(2, 3)
	for _, k := range []uint64{0, hint - 1, 0, hint, hint - 1, 0, 5 * hint, hint, 0, hint - 1} {
		got1, got2 := rs.Access(k)
		want1, want2 := o.access(k)
		if got1 != want1 || got2 != want2 {
			t.Fatalf("key %d: stack=(%v,%v) two LRUs=(%v,%v)", k, got1, got2, want1, want2)
		}
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
		mustPanic("Access past the index", func() { NewRecencyStack(1, 1, 0).Access(k) })
	}
	mustPanic("AccessShifted past the index", func() {
		NewRecencyStack(1, 1, 0).AccessShifted([]uint64{0, KeyIndexBound << 4}, 4)
	})
	mustPanic("key hint past the index", func() { NewRecencyStack(1, 1, KeyIndexBound+1) })
}

// FuzzRecencyStack serves a fuzzed request stream through a stack of
// fuzzed capacities (1 through 16, either zone the larger) over a small
// key range, in fuzzed chunk splits and shifts, checking every chunk's
// misses and the zone occupancy against two standalone map-backed LRUs.
func FuzzRecencyStack(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{0, 1, 0, 1, 2, 2, 2, 3})
	f.Add(byte(1), byte(15), []byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 130, 140, 1})
	f.Add(byte(15), byte(1), []byte{200, 17, 63, 17, 250, 5, 5, 5, 129, 7, 3, 3})
	f.Add(byte(3), byte(7), []byte{40, 41, 42, 43, 44, 45, 46, 47, 48, 40, 49, 41})
	f.Fuzz(func(t *testing.T, c1, c2 byte, ops []byte) {
		cap1, cap2 := int(c1%16)+1, int(c2%16)+1
		rs := NewRecencyStack(cap1, cap2, uint64(c1&c2)%32)
		o := newStackOracle(cap1, cap2)
		rng := hashutil.NewRNG(uint64(c1)<<8 | uint64(c2))
		var keys, col []uint64
		for i, b := range ops {
			// A byte with the top bit set closes the current chunk, its
			// low bits choosing the shift; any other byte is a key.
			if b < 128 {
				keys = append(keys, uint64(b)%48)
				if i < len(ops)-1 {
					continue
				}
			}
			shift := uint(b % 8)
			col = shiftColumn(col, keys, shift, rng)
			got1, got2 := rs.AccessShifted(col, shift)
			want1, want2 := o.column(keys)
			if got1 != want1 || got2 != want2 {
				t.Fatalf("caps=(%d,%d) byte %d chunk %v: stack misses (%d,%d), two LRUs (%d,%d)",
					cap1, cap2, i, keys, got1, got2, want1, want2)
			}
			if rs.Zone1Len() != o.l1.Len() || rs.Zone2Len() != o.l2.Len() {
				t.Fatalf("caps=(%d,%d) byte %d: zone lens (%d,%d) != LRU lens (%d,%d)",
					cap1, cap2, i, rs.Zone1Len(), rs.Zone2Len(), o.l1.Len(), o.l2.Len())
			}
			keys = keys[:0]
		}
	})
}

// BenchmarkRecencyStackAccess measures the merged structure against the
// cost of driving two DenseLRUs separately (the configuration HugePage
// used before the merge).
func BenchmarkRecencyStackAccess(b *testing.B) {
	rs := NewRecencyStack(16, 512, 0)
	rng := hashutil.NewRNG(1)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64n(1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Access(keys[i&(1<<16-1)])
	}
}

// BenchmarkTwoDenseLRUAccess is the pre-merge baseline for comparison.
func BenchmarkTwoDenseLRUAccess(b *testing.B) {
	l1 := NewDenseLRU(16, 0)
	l2 := NewDenseLRU(512, 0)
	rng := hashutil.NewRNG(1)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64n(1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		l1.Access(k)
		l2.Access(k)
	}
}
