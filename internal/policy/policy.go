// Package policy implements page-replacement policies for the classical
// paging problem of Sleator and Tarjan.
//
// The paper's Lemma 1 reduces both halves of the address-translation
// problem to classical paging: minimizing C_TLB(X,σ) is paging over
// huge-page requests r(p₁),r(p₂),… with a cache of ℓ entries, and
// minimizing C_IO(Y,σ) is paging over base-page requests with a cache of
// (1−δ)P entries. Both the TLB model and the RAM-replacement side of the
// decoupling scheme therefore consume the same Policy interface.
//
// A Policy manages an abstract cache of fixed capacity holding uint64 keys.
// Access(key) reports whether the access hit and, on a miss with a full
// cache, which key was evicted to make room. Policies are deterministic
// given their construction parameters (Random takes an explicit seed).
package policy

import "fmt"

// NoEviction is returned as the victim by Access when a miss was absorbed
// without evicting anything (the cache still had free capacity).
const NoEviction = ^uint64(0)

// Policy is an online page-replacement policy over uint64 keys.
type Policy interface {
	// Access requests key. hit reports whether key was already cached.
	// On a miss, key is brought in; victim is the evicted key, or
	// NoEviction if nothing was displaced. Multi-queue policies (2Q) may
	// also report a victim on a hit, when promoting the accessed key
	// between internal queues displaces another key.
	Access(key uint64) (hit bool, victim uint64)

	// Contains reports whether key is currently cached, without touching
	// any recency/frequency state.
	Contains(key uint64) bool

	// Remove evicts key immediately if present, returning whether it was.
	// Used by wrappers that must keep two caches in sync.
	Remove(key uint64) bool

	// Len returns the number of cached keys.
	Len() int

	// Cap returns the capacity.
	Cap() int

	// Name returns a short human-readable policy name, e.g. "lru".
	Name() string
}

// Kind names a policy for flag parsing and experiment configs.
type Kind string

// Supported policy kinds.
const (
	LRUKind     Kind = "lru"
	FIFOKind    Kind = "fifo"
	ClockKind   Kind = "clock"
	RandomKind  Kind = "random"
	LFUKind     Kind = "lfu"
	MRUKind     Kind = "mru"
	TwoQKind    Kind = "2q"
	ARCKind     Kind = "arc"
	MarkingKind Kind = "marking"
)

// New constructs a policy of the given kind with the given capacity, for
// dense keys of no known bound. seed is used only by randomized policies.
// It returns an error for an unknown kind or non-positive capacity.
func New(kind Kind, capacity int, seed uint64) (Policy, error) {
	return NewKeyed(kind, capacity, 0, seed)
}

// NewKeyed is New for callers that know their keys lie in [0, keyBound),
// keyBound 0 when the keys are dense but their bound is unknown. LRU runs
// on the key-indexed DenseLRU, pre-sized for the bound, unless the bound
// is past KeyIndexBound (replayed page numbers, say): those sparse keys
// get the map-backed LRU.
func NewKeyed(kind Kind, capacity int, keyBound, seed uint64) (Policy, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("policy: capacity must be positive, got %d", capacity)
	}
	switch kind {
	case LRUKind:
		// DenseLRU: identical eviction order to LRU (differentially
		// tested) on flat arrays — the hot default gets the fast path.
		if keyBound > KeyIndexBound {
			return NewLRU(capacity), nil
		}
		return NewDenseLRU(capacity, keyBound), nil
	case FIFOKind:
		return NewFIFO(capacity), nil
	case ClockKind:
		return NewClock(capacity), nil
	case RandomKind:
		return NewRandom(capacity, seed), nil
	case LFUKind:
		return NewLFU(capacity), nil
	case MRUKind:
		return NewMRU(capacity), nil
	case TwoQKind:
		return NewTwoQ(capacity), nil
	case ARCKind:
		return NewARC(capacity), nil
	case MarkingKind:
		return NewMarking(capacity, seed), nil
	default:
		return nil, fmt.Errorf("policy: unknown kind %q", kind)
	}
}

// Kinds lists every online policy kind New accepts, for CLI help text.
func Kinds() []Kind {
	return []Kind{LRUKind, FIFOKind, ClockKind, RandomKind, LFUKind, MRUKind, TwoQKind, ARCKind, MarkingKind}
}
