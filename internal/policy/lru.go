package policy

// LRU evicts the least-recently-used key. This is the policy the paper's
// Section 6 simulator uses for both the TLB and RAM, and the canonical
// k-competitive online algorithm of Sleator and Tarjan.
type LRU struct {
	capacity int
	items    map[uint64]*node
	order    list // front = most recent
}

var _ Policy = (*LRU)(nil)

// NewLRU returns an LRU cache with the given capacity (> 0).
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("policy: LRU capacity must be positive")
	}
	l := &LRU{
		capacity: capacity,
		items:    make(map[uint64]*node, capacity),
	}
	l.order.init()
	return l
}

// Access implements Policy.
func (l *LRU) Access(key uint64) (hit bool, victim uint64) {
	if n, ok := l.items[key]; ok {
		l.order.moveToFront(n)
		return true, NoEviction
	}
	victim = NoEviction
	if len(l.items) >= l.capacity {
		v := l.order.back()
		l.order.remove(v)
		delete(l.items, v.key)
		victim = v.key
	}
	n := &node{key: key}
	l.order.pushFront(n)
	l.items[key] = n
	return false, victim
}

// Touch refreshes key's recency if it is cached, exactly as Access of a
// resident key would, and reports whether it was; a miss changes nothing
// (DenseLRU.Touch's contract).
func (l *LRU) Touch(key uint64) bool {
	n, ok := l.items[key]
	if ok {
		l.order.moveToFront(n)
	}
	return ok
}

// Contains implements Policy.
func (l *LRU) Contains(key uint64) bool {
	_, ok := l.items[key]
	return ok
}

// Remove implements Policy.
func (l *LRU) Remove(key uint64) bool {
	n, ok := l.items[key]
	if !ok {
		return false
	}
	l.order.remove(n)
	delete(l.items, key)
	return true
}

// Len implements Policy.
func (l *LRU) Len() int { return len(l.items) }

// Cap implements Policy.
func (l *LRU) Cap() int { return l.capacity }

// Name implements Policy.
func (l *LRU) Name() string { return string(LRUKind) }

// EvictLRU removes and returns the least-recently-used key, or ok=false
// if the cache is empty. Used by algorithms that manage variable-size
// units and need to force evictions beyond the per-Access one.
func (l *LRU) EvictLRU() (key uint64, ok bool) {
	n := l.order.back()
	if n == nil {
		return 0, false
	}
	l.order.remove(n)
	delete(l.items, n.key)
	return n.key, true
}

// ScanLRU calls fn for each cached key from least to most recently used,
// stopping early when fn returns false. fn must not mutate the cache.
// Mirrors DenseLRU.ScanLRU.
func (l *LRU) ScanLRU(fn func(key uint64) bool) {
	for n := l.order.head.prev; n != &l.order.head && fn(n.key); n = n.prev {
	}
}

// Keys returns the cached keys from most to least recently used. Intended
// for tests and debugging; O(n).
func (l *LRU) Keys() []uint64 {
	keys := make([]uint64, 0, len(l.items))
	for n := l.order.head.next; n != &l.order.head; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}
