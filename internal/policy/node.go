package policy

import "fmt"

// lruNode is one key's recency-list state in 8 bytes: both links, with
// flags in the top three bits of prev. The key-indexed structures
// (DenseLRU, SetLRU, RecencyStack) give every key its own node at a fixed
// index past the list heads, so a relink touches only the nodes it names:
// there is no key→slot lookup before the list work, and no key array to
// read back on eviction, since a node's index is its key.
type lruNode struct{ prev, next uint32 }

const (
	nodePresent = 1 << 29            // in a recency list
	nodeIndex   = nodePresent - 1    // the low 29 bits of prev: a node index
	nodeFlags   = ^uint32(nodeIndex) // presence plus RecencyStack's two zone bits
	maxNodes    = uint64(nodeIndex) + 1

	// KeyIndexBound bounds the keys of the key-indexed structures: node
	// key+1 must fit the 29-bit link index, so keys lie in
	// [0, KeyIndexBound). Keys past it (replayed page numbers, say) need
	// the map-backed LRU; NewKeyed picks it from the caller's key bound.
	KeyIndexBound = nodeIndex
)

// newNodes returns a node array of heads list heads followed by the nodes
// of keys [0, keyHint).
func newNodes(heads, keyHint uint64) []lruNode {
	if keyHint > maxNodes-heads {
		panic(fmt.Sprintf("policy: key hint %d exceeds the %d-node index", keyHint, maxNodes))
	}
	return make([]lruNode, heads+keyHint)
}

// growNodes extends an array of heads list heads and key nodes to cover
// key, at least doubling it. A key past the 29-bit link space panics
// rather than alias another key's node.
func growNodes(nodes []lruNode, heads, key uint64) []lruNode {
	if key >= maxNodes-heads {
		panic(fmt.Sprintf("policy: key %d is past the %d-node index", key, maxNodes))
	}
	grown := make([]lruNode, min(max(2*uint64(len(nodes)), heads+key+1), maxNodes))
	copy(grown, nodes)
	return grown
}

// unlink takes node s out of its list. Its neighbours keep their flags;
// s keeps its own links, so callers that reinsert it overwrite them.
func unlink(nodes []lruNode, s uint32) {
	p, n := nodes[s].prev&nodeIndex, nodes[s].next
	nodes[p].next = n
	nodes[n].prev = nodes[n].prev&nodeFlags | p
}

// linkFront inserts node s right after head h with prev flags f.
func linkFront(nodes []lruNode, h, s, f uint32) {
	first := nodes[h].next
	nodes[s] = lruNode{prev: f | h, next: first}
	nodes[first].prev = nodes[first].prev&nodeFlags | s
	nodes[h].next = s
}

// dropTail unlinks the least recent node of head h's list, clears its
// flags and returns it. The list must not be empty.
func dropTail(nodes []lruNode, h uint32) uint32 {
	t := nodes[h].prev & nodeIndex
	unlink(nodes, t)
	nodes[t].prev = 0
	return t
}
