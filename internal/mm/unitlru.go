package mm

import "addrxlat/internal/policy"

// unitLRU is the recency list of THP's and HawkEye's RAM units and of
// Superpage's regions. Over keys the key-indexed policy.DenseLRU can index
// it is that; past policy.KeyIndexBound (the tagged page numbers of a
// replayed sparse trace, say) it is the map-backed policy.LRU, which
// evicts in the same order. The per-request operations are one interface
// call on the cache itself; ScanLRU branches to a direct call instead, so
// that its callback closure stays on the stack.
type unitLRU struct {
	unitCache
	flat   *policy.DenseLRU
	sparse *policy.LRU // when flat is nil
}

// unitCache is the part of the LRU API both kinds implement alike.
type unitCache interface {
	Access(key uint64) (hit bool, victim uint64)
	Touch(key uint64) bool
	Remove(key uint64) bool
	EvictLRU() (key uint64, ok bool)
}

// newUnitLRU returns a unit LRU of the given capacity over keys in
// [0, keyBound), keyBound 0 when unknown (policy.NewKeyed picks the side).
func newUnitLRU(capacity int, keyBound uint64) unitLRU {
	p, err := policy.NewKeyed(policy.LRUKind, capacity, keyBound, 0)
	if err != nil {
		panic(err) // capacity is validated positive
	}
	u := unitLRU{unitCache: p.(unitCache)}
	u.flat, _ = p.(*policy.DenseLRU)
	u.sparse, _ = p.(*policy.LRU)
	return u
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
