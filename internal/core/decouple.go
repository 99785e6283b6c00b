package core

import (
	"fmt"

	"addrxlat/internal/bitpack"
)

// Scheme is a huge-page decoupling scheme D (Section 3): the assembly of a
// RAM-allocation scheme, a TLB-encoding scheme, and a TLB-decoding scheme.
// It is driven from outside by two oblivious policies:
//
//   - the RAM-replacement policy calls PageIn/PageOut as it changes the
//     active set A (never exceeding MaxResident pages);
//   - the TLB-replacement policy reads TLB values via Value/Snapshot when
//     it changes the TLB contents T.
//
// The scheme tracks the paging-failure set F: pages the RAM-replacement
// policy added to A that could not be assigned a physical address. Pages
// in F stay resident-in-name-only until paged out; Theorem 4's algorithm
// Z handles accesses to them with a temporary IO plus a decoding miss.
//
// All operations are O(1), making the scheme constant-time in the paper's
// sense.
type Scheme struct {
	params Params
	alloc  Allocator
	enc    *Encoder
	dec    decoder // f, with the decode constants hoisted

	failed map[uint64]bool // F: pages in A without a physical address

	// Lifetime statistics.
	pageIns      uint64
	pageOuts     uint64
	failureCount uint64 // total failures ever entered into F
}

// NewScheme builds the decoupling scheme described by p, with all hash
// randomness derived from seed.
func NewScheme(p Params, seed uint64) (*Scheme, error) {
	alloc, err := NewAllocator(p, seed)
	if err != nil {
		return nil, err
	}
	return &Scheme{
		params: p,
		alloc:  alloc,
		enc:    NewEncoder(p),
		dec:    newDecoder(alloc, &p),
		failed: make(map[uint64]bool),
	}, nil
}

// Params returns the scheme's derived constants.
func (s *Scheme) Params() Params { return s.params }

// Allocator exposes the underlying RAM-allocation scheme (read-only use).
func (s *Scheme) Allocator() Allocator { return s.alloc }

// PageIn is called when the RAM-replacement policy adds virtual page v to
// the active set. It returns ok=false on a paging failure, in which case v
// enters F (and must still be paged out later). It panics if the caller
// exceeds MaxResident — that is a violation of the policy contract, not a
// runtime condition.
func (s *Scheme) PageIn(v uint64) (ok bool) {
	if s.Resident() >= s.params.MaxResident {
		panic(fmt.Sprintf("core: PageIn would exceed MaxResident=%d (δ=%0.4f); RAM-replacement policy misconfigured",
			s.params.MaxResident, s.params.Delta))
	}
	s.pageIns++
	code, ok := s.alloc.Assign(v)
	if !ok {
		s.failed[v] = true
		s.failureCount++
		return false
	}
	s.enc.PageAdded(v, code)
	return true
}

// PageOut is called when the RAM-replacement policy removes v from the
// active set.
func (s *Scheme) PageOut(v uint64) {
	s.pageOuts++
	if len(s.failed) > 0 && s.failed[v] {
		delete(s.failed, v)
		return
	}
	s.alloc.Release(v)
	s.enc.PageRemoved(v)
}

// ResolveMiss drives one packed miss from the batch kernels through the
// allocator: the RAM-replacement policy's victim (if any) is paged out,
// then v is paged in. It reports whether v suffered a paging failure and
// entered F — reusing PageIn's own failure answer, where the scalar path
// pays a separate IsFailed probe after the fact. State transitions are
// exactly PageOut(victim); !PageIn(v), in that order: bucket loads depend
// on the out-before-in sequence, so the batch resolve pass must preserve
// it miss by miss.
func (s *Scheme) ResolveMiss(v uint64, victim uint64, hasVictim bool) (failed bool) {
	if hasVictim {
		s.PageOut(victim)
	}
	return !s.PageIn(v)
}

// InActiveSet reports whether v is currently in the active set (including
// pages suffering a paging failure).
func (s *Scheme) InActiveSet(v uint64) bool {
	if len(s.failed) > 0 && s.failed[v] {
		return true
	}
	_, ok := s.alloc.PhysOf(v)
	return ok
}

// Resident returns |A|: allocator-resident pages plus failed pages.
func (s *Scheme) Resident() uint64 {
	return s.alloc.Resident() + uint64(len(s.failed))
}

// Value returns the live TLB value ψ(u) for huge page u.
func (s *Scheme) Value(u uint64) *bitpack.FieldArray { return s.enc.Value(u) }

// Snapshot returns a frozen copy of ψ(u).
func (s *Scheme) Snapshot(u uint64) *bitpack.FieldArray { return s.enc.Snapshot(u) }

// Lookup runs the decoding function f on the *live* TLB value for v's huge
// page: it returns φ(v), or NullAddress if v is absent (or failed).
func (s *Scheme) Lookup(v uint64) uint64 {
	return s.dec.decode(v, s.enc.Value(v>>s.dec.shift))
}

// LookupIn runs the decoding function f against a caller-held TLB value
// (e.g. one latched into the TLB model earlier).
func (s *Scheme) LookupIn(v uint64, value *bitpack.FieldArray) uint64 {
	return s.dec.decode(v, value)
}

// Failures returns |F|, the number of in-force paging failures.
func (s *Scheme) Failures() int { return len(s.failed) }

// IsFailed reports whether v is currently in the failure set F. The
// empty-set fast path keeps this off the hash on the per-access hot path:
// failures are rare by construction (w.h.p. none occur), so the common
// case is a single length check.
func (s *Scheme) IsFailed(v uint64) bool { return len(s.failed) > 0 && s.failed[v] }

// TotalFailures returns the number of paging failures over the scheme's
// lifetime (entries ever added to F).
func (s *Scheme) TotalFailures() uint64 { return s.failureCount }

// PageIns and PageOuts return lifetime operation counts.
func (s *Scheme) PageIns() uint64 { return s.pageIns }

// PageOuts returns the lifetime count of PageOut operations.
func (s *Scheme) PageOuts() uint64 { return s.pageOuts }

// Encoder exposes the encoding scheme for tests and the TLB model.
func (s *Scheme) Encoder() *Encoder { return s.enc }
