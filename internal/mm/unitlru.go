package mm

import "addrxlat/internal/policy"

// unitLRU is the recency list of THP's and HawkEye's RAM units and of
// Superpage's regions. Over keys the key-indexed policy.DenseLRU can index
// it is that; past policy.KeyIndexBound (the tagged page numbers of a
// replayed sparse trace, say) it is the map-backed policy.LRU, which
// evicts in the same order. Each method is one predictable branch around
// a concrete call, so the dense path keeps its inlining and its closures
// stay on the stack.
type unitLRU struct {
	flat   *policy.DenseLRU
	sparse *policy.LRU // when flat is nil
}

// newUnitLRU returns a unit LRU of the given capacity over keys in
// [0, keyBound), keyBound 0 when unknown (policy.NewKeyed picks the side).
func newUnitLRU(capacity int, keyBound uint64) unitLRU {
	p, err := policy.NewKeyed(policy.LRUKind, capacity, keyBound, 0)
	if err != nil {
		panic(err) // capacity is validated positive
	}
	var u unitLRU
	u.flat, _ = p.(*policy.DenseLRU)
	u.sparse, _ = p.(*policy.LRU)
	return u
}

// Access caches key as the most recent unit.
func (u unitLRU) Access(key uint64) {
	if u.flat != nil {
		u.flat.Access(key)
	} else {
		u.sparse.Access(key)
	}
}

// Touch refreshes key's recency if it is cached, reporting whether it was.
func (u unitLRU) Touch(key uint64) bool {
	if u.flat != nil {
		return u.flat.Touch(key)
	}
	if !u.sparse.Contains(key) {
		return false
	}
	u.sparse.Access(key)
	return true
}

// Contains reports whether key is cached, without touching recency.
func (u unitLRU) Contains(key uint64) bool {
	if u.flat != nil {
		return u.flat.Contains(key)
	}
	return u.sparse.Contains(key)
}

// Remove drops key, reporting whether it was cached.
func (u unitLRU) Remove(key uint64) bool {
	if u.flat != nil {
		return u.flat.Remove(key)
	}
	return u.sparse.Remove(key)
}

// EvictLRU removes and returns the least recent key, ok=false when empty.
func (u unitLRU) EvictLRU() (key uint64, ok bool) {
	if u.flat != nil {
		return u.flat.EvictLRU()
	}
	return u.sparse.EvictLRU()
}

// ScanLRU calls fn for each cached key from least to most recent until fn
// returns false; fn must not mutate the list.
func (u unitLRU) ScanLRU(fn func(key uint64) bool) {
	if u.flat != nil {
		u.flat.ScanLRU(fn)
	} else {
		u.sparse.ScanLRU(fn)
	}
}
