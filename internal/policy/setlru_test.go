package policy

import (
	"testing"

	"addrxlat/internal/hashutil"
)

// TestSetLRUMatchesPerSetLRUs checks the shared-array set-associative
// cache against one map-backed LRU per set: every Access, Touch, Remove
// and Contains answer, and the occupancy, must agree while the node array
// grows from empty past every key.
func TestSetLRUMatchesPerSetLRUs(t *testing.T) {
	for _, geo := range []struct{ sets, ways int }{{1, 4}, {3, 1}, {8, 2}, {5, 3}} {
		c := NewSetLRU(geo.sets, geo.ways, 0)
		refs := make([]*LRU, geo.sets)
		for i := range refs {
			refs[i] = NewLRU(geo.ways)
		}
		rng := hashutil.NewRNG(uint64(geo.sets*31 + geo.ways))
		for i := 0; i < 40000; i++ {
			k := rng.Uint64n(uint64(8 * geo.sets * geo.ways))
			set := int(hashutil.Mix64(k) % uint64(geo.sets))
			ref := refs[set]
			switch op := rng.Uint64n(8); {
			case op == 0:
				if got, want := c.Remove(set, k), ref.Remove(k); got != want {
					t.Fatalf("%+v step %d: Remove(%d) = %v, want %v", geo, i, k, got, want)
				}
			case op == 1:
				want := ref.Contains(k)
				if want {
					ref.Access(k)
				}
				if got := c.Touch(set, k); got != want {
					t.Fatalf("%+v step %d: Touch(%d) = %v, want %v", geo, i, k, got, want)
				}
			case op == 2:
				if got, want := c.Contains(k), ref.Contains(k); got != want {
					t.Fatalf("%+v step %d: Contains(%d) = %v, want %v", geo, i, k, got, want)
				}
			default:
				gh, gv := c.Access(set, k)
				wh, wv := ref.Access(k)
				if gh != wh || gv != wv {
					t.Fatalf("%+v step %d: Access(%d) = %v,%d, want %v,%d", geo, i, k, gh, gv, wh, wv)
				}
			}
			n := 0
			for _, r := range refs {
				n += r.Len()
			}
			if c.Len() != n {
				t.Fatalf("%+v step %d: Len %d, per-set LRUs hold %d", geo, i, c.Len(), n)
			}
		}
	}
}
