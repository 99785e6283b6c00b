package policy

// SetLRU is a set-associative LRU cache: the caller places each key in
// one set (always the same one), and each set holds at most ways keys in
// LRU order. The sets share one key-indexed node array, DenseLRU's layout
// with a head per set: node i < sets heads set i's list and node sets+key
// is key's. A key lives in one set, so the array costs one node per key
// however many sets there are. DenseLRU is the one-set case written out
// with its head fixed at node 0: built on this type, with the head a
// field rather than a constant, its hot path ran slower.
type SetLRU struct {
	ways  int32
	heads uint32
	size  []int32 // keys held per set
	nodes []lruNode
}

// NewSetLRU returns an empty cache of sets×ways entries (both > 0).
// keyHint, if positive, pre-sizes the node array for keys [0, keyHint).
func NewSetLRU(sets, ways int, keyHint uint64) *SetLRU {
	if sets <= 0 || ways <= 0 {
		panic("policy: SetLRU sets and ways must be positive")
	}
	nodes := newNodes(uint64(sets), keyHint)
	for h := range uint32(sets) {
		nodes[h] = lruNode{prev: h, next: h} // each set's list starts empty
	}
	return &SetLRU{ways: int32(ways), heads: uint32(sets), size: make([]int32, sets), nodes: nodes}
}

// Access requests key in set, reporting a hit, or on a miss the key the
// set evicted to make room (NoEviction if it had room).
func (c *SetLRU) Access(set int, key uint64) (hit bool, victim uint64) {
	if c.Touch(set, key) {
		return true, NoEviction
	}
	if key >= uint64(len(c.nodes))-uint64(c.heads) {
		c.nodes = growNodes(c.nodes, uint64(c.heads), key)
	}
	h := uint32(set)
	victim = NoEviction
	if c.size[set] == c.ways {
		victim = uint64(dropTail(c.nodes, h) - c.heads)
	} else {
		c.size[set]++
	}
	linkFront(c.nodes, h, uint32(key)+c.heads, nodePresent)
	return false, victim
}

// Touch refreshes key's recency within set if it is cached there, and
// reports whether it was. A miss changes nothing.
func (c *SetLRU) Touch(set int, key uint64) bool {
	if !c.Contains(key) {
		return false
	}
	h, s := uint32(set), uint32(key)+c.heads
	if c.nodes[h].next != s {
		unlink(c.nodes, s)
		linkFront(c.nodes, h, s, nodePresent)
	}
	return true
}

// Contains reports whether key is cached, without touching recency.
func (c *SetLRU) Contains(key uint64) bool {
	return key < uint64(len(c.nodes))-uint64(c.heads) && c.nodes[uint64(c.heads)+key].prev&nodePresent != 0
}

// Remove drops key from set, reporting whether it was cached.
func (c *SetLRU) Remove(set int, key uint64) bool {
	if !c.Contains(key) {
		return false
	}
	s := uint32(key) + c.heads
	unlink(c.nodes, s)
	c.nodes[s].prev = 0
	c.size[set]--
	return true
}

// Len returns the number of cached keys across all sets.
func (c *SetLRU) Len() int {
	n := 0
	for _, k := range c.size {
		n += int(k)
	}
	return n
}
