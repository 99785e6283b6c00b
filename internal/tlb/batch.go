package tlb

// This file holds the TLB's columnar batch kernels: fused variants of the
// Lookup/Insert pairs the scalar simulators issue per access, specialized
// to the flat (fully associative, key-indexed LRU) path. Each kernel
// performs byte-identical state transitions and counter updates to its
// scalar decomposition — pinned by the differential tests in
// batch_test.go — while reading each key's node once per access instead
// of twice.

// Flat reports whether the TLB runs on the key-indexed LRU. The batch
// kernels below require it; callers with a generic-policy TLB keep the
// scalar path.
func (t *TLB) Flat() bool { return t.flat != nil }

// LookupOrReserve is Lookup fused with the miss-side Insert: on a hit it
// refreshes recency and counts the hit; on a miss it counts the miss and
// caches u, evicting per LRU. It is exactly
//
//	if !t.Lookup(u) { t.Insert(u) }
//
// in one access instead of two. Flat TLBs only.
func (t *TLB) LookupOrReserve(u uint64) bool {
	hit, _ := t.flat.Access(u)
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	return hit
}

// NoteRepeatHit records a lookup of the key the previous lookup on this
// TLB touched (hit or inserted — either way it is the most recently used
// entry). Such a lookup is a guaranteed hit whose move-to-front is a
// no-op, so only the hit counter advances. Batch kernels use it to
// collapse run-length repeats without probing the node array.
func (t *TLB) NoteRepeatHit() { t.hits++ }

// ProbeFill scans one request column over the flat path: each request v
// probes key v>>shift and, on a miss, immediately caches it; the missed
// keys are appended to miss (the caller's packed miss list, e.g.
// Decoupled's reused miss column) in access order. Consecutive requests
// with equal keys collapse to one probe — the repeats are guaranteed MRU
// hits. State transitions and hit/miss counters are byte-identical to
// calling
//
//	if !t.Lookup(v >> shift) { t.Insert(v >> shift) }
//
// per request. It returns the appended-to miss list and ok=false (with no
// state touched) when the TLB is not flat.
func (t *TLB) ProbeFill(vs []uint64, shift uint, miss []uint64) (_ []uint64, ok bool) {
	if t.flat == nil {
		return miss, false
	}
	fl := t.flat
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
	return miss, true
}
