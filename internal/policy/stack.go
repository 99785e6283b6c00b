package policy

// RecencyStack's zone flags sit beside nodePresent in the top bits of a
// node's prev link.
const (
	rsZone1 = 1 << 31 // member of zone1
	rsZone2 = 1 << 30 // member of zone2
	rsFlags = rsZone1 | rsZone2 | nodePresent
)

// RecencyStack maintains one exact-LRU recency order over a key stream and
// answers, in O(1) per access, whether the key currently ranks within the
// zone1 / zone2 most recently used keys. By the LRU inclusion property a
// "zone" of capacity c holds exactly the contents a standalone LRU cache of
// capacity c would hold after the same stream, so two stacked LRU caches
// fed identical requests — the huge-page simulator's TLB (ℓ entries) and
// RAM (P/h frames) — collapse into a single linked list with two boundary
// markers, instead of two of each. The boundary of a zone is its least
// recently used member; entering keys push it out (and the marker one step
// toward the front), exactly as the standalone cache would evict.
//
// Hit/miss answers are bit-identical to running two independent LRU caches;
// TestRecencyStackMatchesTwoLRUs pins this. Keys index the node array
// directly, as DenseLRU's do, so they must be densely numbered and below
// KeyIndexBound.
type RecencyStack struct {
	cap1, cap2 int // zone capacities
	capMax     int // list capacity = max(cap1, cap2)
	size       int

	nodes  []lruNode // node key+1 is key's; node 0 is the head sentinel
	b1, b2 uint32    // boundary nodes: each zone's least recent member
}

// NewRecencyStack builds a stack tracking two zone capacities (both > 0).
// keyHint, if positive, pre-sizes the node array for keys [0, keyHint);
// a larger key grows it by doubling.
func NewRecencyStack(cap1, cap2 int, keyHint uint64) *RecencyStack {
	if cap1 <= 0 || cap2 <= 0 {
		panic("policy: RecencyStack capacities must be positive")
	}
	return &RecencyStack{cap1: cap1, cap2: cap2, capMax: max(cap1, cap2), nodes: newNodes(1, keyHint)}
}

// grow extends the node array to cover key. It stays out of line so the
// cold growth path adds no register pressure to AccessShifted's loop.
//
//go:noinline
func (r *RecencyStack) grow(key uint64) []lruNode {
	r.nodes = growNodes(r.nodes, 1, key)
	return r.nodes
}

// Access records a request for key and reports whether it was a hit in
// zone1 and in zone2 — exactly the hits two standalone LRU caches of the
// zone capacities would report. It runs AccessShifted over a one-element
// column; steady state performs no allocation.
func (r *RecencyStack) Access(key uint64) (hit1, hit2 bool) {
	vs := [1]uint64{key}
	miss1, miss2 := r.AccessShifted(vs[:], 0)
	return miss1 == 0, miss2 == 0
}

// AccessShifted services one whole request column: for each request v the
// key v>>shift is accessed, and the total zone misses across the column are
// returned (miss1 for zone1, miss2 for zone2) — exactly what summing
// !hit1/!hit2 over per-request accesses would yield.
//
// This is the columnar kernel of the huge-page simulator. A request whose
// key is already the most recent is a guaranteed hit in both zones (the
// MRU ranks first everywhere) and its move-to-front is a no-op, so the
// kernel skips it with one compare; collapsing such runs is exact under
// LRU. The node array and boundary markers live in locals across the
// column, and the key derivation (v>>shift) is fused into the loop rather
// than staged through a separate key buffer.
func (r *RecencyStack) AccessShifted(vs []uint64, shift uint) (miss1, miss2 uint64) {
	nodes := r.nodes
	cap1, cap2, capMax, size := r.cap1, r.cap2, r.capMax, r.size
	b1, b2 := r.b1, r.b2
	for _, v := range vs {
		key := v >> shift
		if key >= uint64(len(nodes)-1) {
			nodes = r.grow(key)
		}
		s := uint32(key) + 1
		if s == nodes[0].next {
			continue // repeat of the most recent key: hits both zones; the relink below assumes s is not the MRU
		}
		// The relinks below are unlink, dropTail and linkFront written
		// out: they reuse the prev word already loaded into x and ft,
		// which the helpers would load again on this hot loop.
		x := nodes[s].prev
		if x&nodePresent != 0 {
			p, n := x&nodeIndex, nodes[s].next
			nodes[p].next = n
			nodes[n].prev = nodes[n].prev&rsFlags | p
		} else if size == capMax {
			// Evict the overall tail; a zone whose boundary it was (only a
			// zone of capacity capMax) now ends one step toward the front.
			t := nodes[0].prev
			ft := nodes[t].prev
			p := ft & nodeIndex
			if ft&rsZone1 != 0 {
				b1 = p
			}
			if ft&rsZone2 != 0 {
				b2 = p
			}
			nodes[p].next = 0
			nodes[0].prev = p
			nodes[t].prev = 0
			size--
		}
		// A key outside a zone enters it. If the zone is full its boundary
		// member falls out and the marker steps forward; a key outside a
		// full zone can only exist in the list once the zone is full, so
		// the marker is valid here.
		if x&rsZone1 == 0 {
			miss1++
			if size >= cap1 {
				nodes[b1].prev &^= rsZone1
				if cap1 == 1 {
					b1 = s
				} else {
					b1 = nodes[b1].prev & nodeIndex
				}
			} else if size == 0 {
				b1 = s
			}
		} else if s == b1 {
			b1 = x & nodeIndex
		}
		if x&rsZone2 == 0 {
			miss2++
			if size >= cap2 {
				nodes[b2].prev &^= rsZone2
				if cap2 == 1 {
					b2 = s
				} else {
					b2 = nodes[b2].prev & nodeIndex
				}
			} else if size == 0 {
				b2 = s
			}
		} else if s == b2 {
			b2 = x & nodeIndex
		}
		if x&nodePresent == 0 {
			size++
		}
		f := nodes[0].next
		nodes[s] = lruNode{prev: rsFlags, next: f}
		nodes[f].prev = nodes[f].prev&rsFlags | s
		nodes[0].next = s
	}
	r.size, r.b1, r.b2 = size, b1, b2
	return miss1, miss2
}

// Zone1Len reports how many keys a standalone LRU of cap1 would hold.
func (r *RecencyStack) Zone1Len() int { return min(r.size, r.cap1) }

// Zone2Len reports how many keys a standalone LRU of cap2 would hold.
func (r *RecencyStack) Zone2Len() int { return min(r.size, r.cap2) }
