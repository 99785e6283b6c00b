package policy

// ARC implements Adaptive Replacement Cache (Megiddo & Modha, FAST '03):
// two LRU lists — T1 (recent) and T2 (frequent) — plus ghost lists B1/B2
// remembering recently evicted keys. A hit in a ghost list adapts the
// target size p of T1, letting the cache shift capacity between recency
// and frequency online. Included as a stronger oblivious RAM-replacement
// policy for the decoupling experiments: the decoupling scheme is policy-
// agnostic, so plugging in ARC demonstrates the interface carries real
// policies, not just LRU.
type ARC struct {
	capacity int
	p        int // target size of t1

	t1, t2 list // cached (t1: seen once recently, t2: seen twice+)
	b1, b2 list // ghosts (metadata only)

	where map[uint64]*arcEntry
}

type arcEntry struct {
	node *node
	list arcList
}

type arcList uint8

const (
	inT1 arcList = iota
	inT2
	inB1
	inB2
)

var _ Policy = (*ARC)(nil)

// NewARC returns an ARC cache with the given capacity (> 0).
func NewARC(capacity int) *ARC {
	if capacity <= 0 {
		panic("policy: ARC capacity must be positive")
	}
	a := &ARC{
		capacity: capacity,
		where:    make(map[uint64]*arcEntry, 2*capacity),
	}
	a.t1.init()
	a.t2.init()
	a.b1.init()
	a.b2.init()
	return a
}

// Access implements Policy.
func (a *ARC) Access(key uint64) (hit bool, victim uint64) {
	victim = NoEviction
	e, ok := a.where[key]
	if ok {
		switch e.list {
		case inT1:
			// Promote to frequent list.
			a.t1.remove(e.node)
			a.t2.pushFront(e.node)
			e.list = inT2
			return true, NoEviction
		case inT2:
			a.t2.moveToFront(e.node)
			return true, NoEviction
		case inB1:
			// Ghost hit in B1: grow recency target.
			delta := 1
			if a.b1.size > 0 {
				if d := a.b2.size / a.b1.size; d > 1 {
					delta = d
				}
			}
			a.p = min(a.p+delta, a.capacity)
			victim = a.replace(false)
			a.b1.remove(e.node)
			a.t2.pushFront(e.node)
			e.list = inT2
			return false, victim
		case inB2:
			// Ghost hit in B2: grow frequency target.
			delta := 1
			if a.b2.size > 0 {
				if d := a.b1.size / a.b2.size; d > 1 {
					delta = d
				}
			}
			a.p = max(a.p-delta, 0)
			victim = a.replace(true)
			a.b2.remove(e.node)
			a.t2.pushFront(e.node)
			e.list = inT2
			return false, victim
		}
	}

	// Complete miss.
	l1 := a.t1.size + a.b1.size
	if l1 == a.capacity {
		if a.t1.size < a.capacity {
			// Drop the oldest B1 ghost and replace.
			g := a.b1.back()
			a.b1.remove(g)
			delete(a.where, g.key)
			victim = a.replace(false)
		} else {
			// T1 itself is full: evict its LRU member directly.
			v := a.t1.back()
			a.t1.remove(v)
			delete(a.where, v.key)
			victim = v.key
		}
	} else if l1 < a.capacity {
		total := a.t1.size + a.t2.size + a.b1.size + a.b2.size
		if total >= a.capacity {
			if total == 2*a.capacity {
				g := a.b2.back()
				a.b2.remove(g)
				delete(a.where, g.key)
			}
			victim = a.replace(false)
		}
	}
	n := &node{key: key}
	a.t1.pushFront(n)
	a.where[key] = &arcEntry{node: n, list: inT1}
	return false, victim
}

// replace evicts from T1 or T2 per the adaptive target, moving the victim
// into the corresponding ghost list, and returns the evicted key.
// b2Hit biases the tie toward evicting from T1 (the ARC paper's REPLACE).
func (a *ARC) replace(b2Hit bool) uint64 {
	if a.t1.size > 0 && (a.t1.size > a.p || (b2Hit && a.t1.size == a.p)) {
		v := a.t1.back()
		a.t1.remove(v)
		a.b1.pushFront(v)
		a.where[v.key].list = inB1
		return v.key
	}
	if a.t2.size > 0 {
		v := a.t2.back()
		a.t2.remove(v)
		a.b2.pushFront(v)
		a.where[v.key].list = inB2
		return v.key
	}
	// Both cache lists empty: nothing to evict.
	return NoEviction
}

// Contains implements Policy (ghost entries are not cached).
func (a *ARC) Contains(key uint64) bool {
	e, ok := a.where[key]
	return ok && (e.list == inT1 || e.list == inT2)
}

// Remove implements Policy.
func (a *ARC) Remove(key uint64) bool {
	e, ok := a.where[key]
	if !ok {
		return false
	}
	switch e.list {
	case inT1:
		a.t1.remove(e.node)
	case inT2:
		a.t2.remove(e.node)
	default:
		return false // ghosts are not cached
	}
	delete(a.where, key)
	return true
}

// Len implements Policy.
func (a *ARC) Len() int { return a.t1.size + a.t2.size }

// Cap implements Policy.
func (a *ARC) Cap() int { return a.capacity }

// Name implements Policy.
func (a *ARC) Name() string { return string(ARCKind) }

// Target exposes the adaptive T1 target for tests.
func (a *ARC) Target() int { return a.p }
