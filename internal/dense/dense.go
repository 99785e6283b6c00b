// Package dense provides flat-array replacements for map[uint64]V on the
// simulator's hot paths. Virtual- and physical-page spaces are bounded and
// densely numbered (VirtualPages, RAMPages are fixed at construction), so
// keyed state can live in a slice indexed by page number instead of a hash
// table: no hashing, no pointer chasing, no per-entry heap boxes, and
// deterministic iteration order for free.
//
// A Table grows geometrically on demand, so callers that touch only a
// prefix of the key space pay memory proportional to the highest key
// touched, not the nominal bound.
package dense

// SparseBound is the key bound of the flat region: keys below it live in
// the grow-on-demand array; keys at or above it fall back to a hash map.
// Page and region numbers — the intended keys — sit far below the bound,
// so the map exists only for sparse keys, such as the page numbers of a
// replayed trace. A structure whose declared key bound passes SparseBound
// keeps every key in the map: the keys of such a sparse space would touch
// a flat array sparsely and grow it toward the bound.
const SparseBound = 1 << 26

// FlatBound returns the flat region's bound for keys in [0, keyBound),
// keyBound 0 when unknown: SparseBound, or 0 past it.
func FlatBound(keyBound uint64) uint64 {
	if keyBound > SparseBound {
		return 0
	}
	return SparseBound
}

// Table is a flat-array map from small dense uint64 keys to values. A
// caller-chosen sentinel value denotes absence; Set with the sentinel is
// rejected so presence stays unambiguous.
type Table[V comparable] struct {
	vals      []V
	sparse    map[uint64]V // keys ≥ flatBound only; nil until first needed
	flatBound uint64       // see FlatBound
	absent    V
	n         int
}

// NewTable creates a table whose absent entries read as `absent`, over
// keys in [0, keyBound), keyBound 0 when unknown. The flat region grows
// on demand.
func NewTable[V comparable](absent V, keyBound uint64) *Table[V] {
	return &Table[V]{absent: absent, flatBound: FlatBound(keyBound)}
}

// grow extends vals so that key k (< flatBound) is in range, filling
// with the sentinel.
func (t *Table[V]) grow(k uint64) {
	newLen := uint64(len(t.vals))*2 + 1
	if newLen <= k {
		newLen = k + 1
	}
	if newLen > t.flatBound {
		newLen = t.flatBound
	}
	vals := make([]V, newLen)
	copy(vals, t.vals)
	for i := len(t.vals); i < len(vals); i++ {
		vals[i] = t.absent
	}
	t.vals = vals
}

// Get returns the value stored for k and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if k >= t.flatBound {
		v, ok := t.sparse[k]
		if !ok {
			return t.absent, false
		}
		return v, true
	}
	if k >= uint64(len(t.vals)) {
		return t.absent, false
	}
	v := t.vals[k]
	return v, v != t.absent
}

// At returns the value stored for k, or the sentinel if absent. This is
// the branch-light accessor for hot loops that treat the sentinel as a
// first-class "not resident" code.
func (t *Table[V]) At(k uint64) V {
	if k >= t.flatBound {
		if v, ok := t.sparse[k]; ok {
			return v
		}
		return t.absent
	}
	if k >= uint64(len(t.vals)) {
		return t.absent
	}
	return t.vals[k]
}

// Contains reports whether k is present.
func (t *Table[V]) Contains(k uint64) bool {
	if k >= t.flatBound {
		_, ok := t.sparse[k]
		return ok
	}
	return k < uint64(len(t.vals)) && t.vals[k] != t.absent
}

// Set stores v for key k. Storing the sentinel value panics — use Delete.
func (t *Table[V]) Set(k uint64, v V) {
	if v == t.absent {
		panic("dense: Set with the absent sentinel")
	}
	if k >= t.flatBound {
		if t.sparse == nil {
			t.sparse = make(map[uint64]V)
		}
		if _, ok := t.sparse[k]; !ok {
			t.n++
		}
		t.sparse[k] = v
		return
	}
	if k >= uint64(len(t.vals)) {
		t.grow(k)
	}
	if t.vals[k] == t.absent {
		t.n++
	}
	t.vals[k] = v
}

// Delete removes k, reporting whether it was present.
func (t *Table[V]) Delete(k uint64) bool {
	if k >= t.flatBound {
		if _, ok := t.sparse[k]; !ok {
			return false
		}
		delete(t.sparse, k)
		t.n--
		return true
	}
	if k >= uint64(len(t.vals)) || t.vals[k] == t.absent {
		return false
	}
	t.vals[k] = t.absent
	t.n--
	return true
}

// Len returns the number of present entries.
func (t *Table[V]) Len() int { return t.n }

// Cap returns the current backing-array length (highest grown key + 1);
// exposed for tests and memory accounting.
func (t *Table[V]) Cap() int { return len(t.vals) }

// Bitset is a flat bit-vector over dense uint64 keys, for boolean page
// state (touched, promoted, populated) that was previously map[uint64]bool.
// Like Table, keys at or past its flat bound fall back to a hash set.
type Bitset struct {
	words     []uint64
	sparse    map[uint64]struct{} // keys ≥ flatBound only; nil until first needed
	flatBound uint64              // see FlatBound
	n         int
}

// NewBitset creates a bitset over keys in [0, keyBound), keyBound 0 when
// unknown. The flat words grow on demand.
func NewBitset(keyBound uint64) *Bitset {
	return &Bitset{flatBound: FlatBound(keyBound)}
}

// Contains reports whether k is set.
func (b *Bitset) Contains(k uint64) bool {
	w := k >> 6
	if w < uint64(len(b.words)) {
		return b.words[w]&(1<<(k&63)) != 0
	}
	_, ok := b.sparse[k] // holds keys ≥ flatBound only
	return ok
}

// Add sets bit k, reporting whether it was newly set.
func (b *Bitset) Add(k uint64) bool {
	if k >= b.flatBound {
		if _, ok := b.sparse[k]; ok {
			return false
		}
		if b.sparse == nil {
			b.sparse = make(map[uint64]struct{})
		}
		b.sparse[k] = struct{}{}
		b.n++
		return true
	}
	w := k >> 6
	if w >= uint64(len(b.words)) {
		newLen := min(max(uint64(len(b.words))*2+1, w+1), b.flatBound/64)
		words := make([]uint64, newLen)
		copy(words, b.words)
		b.words = words
	}
	mask := uint64(1) << (k & 63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	b.n++
	return true
}

// Remove clears bit k, reporting whether it was set.
func (b *Bitset) Remove(k uint64) bool {
	if k >= b.flatBound {
		if _, ok := b.sparse[k]; !ok {
			return false
		}
		delete(b.sparse, k)
		b.n--
		return true
	}
	w := k >> 6
	if w >= uint64(len(b.words)) {
		return false
	}
	mask := uint64(1) << (k & 63)
	if b.words[w]&mask == 0 {
		return false
	}
	b.words[w] &^= mask
	b.n--
	return true
}

// Len returns the number of set bits.
func (b *Bitset) Len() int { return b.n }
