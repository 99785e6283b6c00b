package tlb

// This file holds the TLB's batch kernels: fused variants of the
// Lookup/Insert pair the simulators issue per access. Each performs
// byte-identical state transitions and counter updates to its
// Lookup-then-Insert decomposition on every policy — pinned by the
// differential tests in batch_test.go — while reading each key once per
// access instead of twice.

// LookupOrReserve is Lookup fused with the miss-side Insert: on a hit it
// refreshes recency and counts the hit; on a miss it counts the miss and
// caches u, evicting per the policy. It is exactly
//
//	if !t.Lookup(u) { t.Insert(u) }
//
// as one policy Access: both sides of that decomposition are one Access
// of u, and Access reports whether u was cached. The single call keeps
// it inlinable into the kernels.
func (t *TLB) LookupOrReserve(u uint64) bool {
	hit, _ := t.cache.Access(u)
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	return hit
}

// NoteRepeatHit records a lookup of the key the previous lookup on this
// TLB touched (hit or inserted — either way it is the most recently used
// entry). Under LRU such a lookup is a guaranteed hit whose move-to-front
// is a no-op, so only the hit counter advances. Batch kernels over an LRU
// TLB use it to collapse run-length repeats without probing the cache.
func (t *TLB) NoteRepeatHit() { t.hits++ }

// ProbeFill scans one request column: each request v probes key v>>shift
// and, on a miss, immediately caches it; the missed keys are appended to
// miss (the caller's packed miss list, e.g. Decoupled's reused miss
// column) in access order, and the extended list is returned. State
// transitions and hit/miss counters are byte-identical to calling
//
//	if !t.Lookup(v >> shift) { t.Insert(v >> shift) }
//
// per request. On the key-indexed LRU, consecutive requests with equal
// keys collapse to one probe — the repeats are guaranteed MRU hits. Other
// policies (whose repeats can move state, as ARC's T1→T2 promotion or
// LFU's count does) probe every request.
func (t *TLB) ProbeFill(vs []uint64, shift uint, miss []uint64) []uint64 {
	fl := t.flat
	if fl == nil {
		for _, v := range vs {
			if u := v >> shift; !t.LookupOrReserve(u) {
				miss = append(miss, u)
			}
		}
		return miss
	}
	var hits, misses uint64
	var prevU uint64
	havePrev := false
	for _, v := range vs {
		u := v >> shift
		if havePrev && u == prevU {
			hits++ // repeat of the MRU entry: hit, recency unchanged
			continue
		}
		havePrev, prevU = true, u
		if hit, _ := fl.Access(u); hit {
			hits++
			continue
		}
		misses++
		miss = append(miss, u)
	}
	t.hits += hits
	t.misses += misses
	return miss
}
