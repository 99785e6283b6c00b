package policy

// DenseLRU is an LRU cache specialized for the simulator's hot paths:
// eviction order identical to LRU, but built on one flat node array
// indexed by key instead of a hash map and per-key heap nodes. Node key+1
// holds key's recency links and node 0 is the list head, so an access
// reads its key's node directly and an eviction reads the victim's key off
// the tail's index. Steady-state Access performs zero allocations.
//
// Keys must be densely numbered (page or region numbers bounded by the
// machine size) and below KeyIndexBound; the array is pre-sized from the
// caller's key bound and grows by doubling past it. For sparse keys use
// LRU, whose hash map does not grow with the key bound.
type DenseLRU struct {
	capacity, size int
	nodes          []lruNode // node key+1 is key's; node 0 is the head
}

var _ Policy = (*DenseLRU)(nil)

// NewDenseLRU returns a dense LRU cache with the given capacity (> 0).
// keyHint, if positive, pre-sizes the node array for keys [0, keyHint).
func NewDenseLRU(capacity int, keyHint uint64) *DenseLRU {
	if capacity <= 0 {
		panic("policy: DenseLRU capacity must be positive")
	}
	return &DenseLRU{capacity: capacity, nodes: newNodes(1, keyHint)}
}

// Access implements Policy.
func (l *DenseLRU) Access(key uint64) (hit bool, victim uint64) {
	nodes := l.nodes
	if key >= uint64(len(nodes)-1) {
		nodes = growNodes(nodes, 1, key)
		l.nodes = nodes
	}
	s := uint32(key) + 1
	if nodes[s].prev&nodePresent != 0 {
		if nodes[0].next != s { // already at front: skip the relink
			unlink(nodes, s)
			linkFront(nodes, 0, s, nodePresent)
		}
		return true, NoEviction
	}
	victim = NoEviction
	if l.size == l.capacity {
		victim = uint64(dropTail(nodes, 0) - 1)
	} else {
		l.size++
	}
	linkFront(nodes, 0, s, nodePresent)
	return false, victim
}

// Touch refreshes key's recency if it is cached, exactly as Access of a
// resident key would, and reports whether it was. A miss changes nothing:
// the TLB's lookup and the batch kernels' resident-hit paths use it to
// probe and refresh in one step, leaving the fill to the caller.
func (l *DenseLRU) Touch(key uint64) bool {
	if !l.Contains(key) {
		return false
	}
	if s := uint32(key) + 1; l.nodes[0].next != s {
		unlink(l.nodes, s)
		linkFront(l.nodes, 0, s, nodePresent)
	}
	return true
}

// Contains implements Policy.
func (l *DenseLRU) Contains(key uint64) bool {
	return key < uint64(len(l.nodes)-1) && l.nodes[key+1].prev&nodePresent != 0
}

// Remove implements Policy.
func (l *DenseLRU) Remove(key uint64) bool {
	if !l.Contains(key) {
		return false
	}
	s := uint32(key) + 1
	unlink(l.nodes, s)
	l.nodes[s].prev = 0
	l.size--
	return true
}

// Len implements Policy.
func (l *DenseLRU) Len() int { return l.size }

// Cap implements Policy.
func (l *DenseLRU) Cap() int { return l.capacity }

// Name implements Policy. DenseLRU is behaviorally identical to LRU, so it
// reports the same name and experiment tables stay byte-stable.
func (l *DenseLRU) Name() string { return string(LRUKind) }

// EvictLRU removes and returns the least-recently-used key, or ok=false if
// the cache is empty. Mirrors LRU.EvictLRU for variable-size-unit callers.
func (l *DenseLRU) EvictLRU() (key uint64, ok bool) {
	if l.size == 0 {
		return 0, false
	}
	l.size--
	return uint64(dropTail(l.nodes, 0) - 1), true
}

// ScanLRU calls fn for each cached key from least to most recently used,
// stopping early when fn returns false. fn must not mutate the cache.
// Allocation-free, unlike Keys.
func (l *DenseLRU) ScanLRU(fn func(key uint64) bool) {
	for s := l.nodes[0].prev; s != 0; s = l.nodes[s].prev & nodeIndex {
		if !fn(uint64(s - 1)) {
			return
		}
	}
}

// Keys returns the cached keys from most to least recently used. Intended
// for tests and debugging; O(n).
func (l *DenseLRU) Keys() []uint64 {
	keys := make([]uint64, 0, l.size)
	for s := l.nodes[0].next; s != 0; s = l.nodes[s].next {
		keys = append(keys, uint64(s-1))
	}
	return keys
}
