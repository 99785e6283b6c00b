package core

import (
	"fmt"
	"math/bits"

	"addrxlat/internal/bitpack"
	"addrxlat/internal/dense"
)

// NullAddress is the paper's −1: the value the decoding function f returns
// for a virtual page that is not in the active set.
const NullAddress = ^uint64(0)

// Encoder is the TLB-encoding scheme ψ (Section 3). For every virtual huge
// page with at least one resident constituent page it maintains the w-bit
// TLB value: an array of hmax per-page location codes, each BitsPerPage
// wide, with the absent sentinel for non-resident pages. Maintaining the
// table keyed by huge-page address is exactly the "constant time" hash
// table from the proof of Theorem 1.
//
// The Encoder is updated by the decoupling scheme whenever the
// RAM-replacement policy changes the active set; the TLB model reads
// values out when the TLB-replacement policy inserts a huge page.
// The entries table is flat, indexed by huge-page number: virtual huge
// pages are densely numbered in [0, V/hmax], so ψ lives in an array rather
// than a hash table. An entry whose huge page has no resident pages keeps
// its (all-absent) field array cached, so churn on a huge page allocates
// its value exactly once over the encoder's lifetime. As in dense.Table,
// huge pages at or past dense.FlatBound(V/hmax) — all of them, when a
// sparse address space of terabytes passes dense.SparseBound — live in a
// map instead, holding only those with resident pages, so memory follows
// the active set rather than V.
type Encoder struct {
	pageLayout
	entries   []encEntry           // flat by huge page below flatBound; arr == nil ⇒ never touched
	sparse    map[uint64]*encEntry // huge pages ≥ flatBound with resident pages
	flatBound uint64               // dense.SparseBound, or 0 when V/hmax passes it
	active    int                  // entries with resident > 0
	allAbsent *bitpack.FieldArray  // shared read-only "no pages resident" value
}

// pageLayout holds the per-page addressing constants of Params, hoisted
// out of the per-access path. DeriveParams rounds hmax to a power of two,
// so r(v) is a shift and v's field index within ψ(r(v)) is a mask: no
// division, and no copy of Params.
type pageLayout struct {
	shift  uint   // log₂ hmax: v >> shift is the huge page r(v)
	mask   uint64 // hmax − 1: v & mask is v's field index
	absent uint64 // the absent sentinel code (Params.AbsentCode)
}

// layoutOf hoists p's addressing constants. hmax must be a power of two.
func layoutOf(p *Params) pageLayout {
	if p.HMax <= 0 || p.HMax&(p.HMax-1) != 0 {
		panic(fmt.Sprintf("core: hmax=%d is not a positive power of two", p.HMax))
	}
	return pageLayout{
		shift:  uint(bits.TrailingZeros64(uint64(p.HMax))),
		mask:   uint64(p.HMax) - 1,
		absent: p.AbsentCode(),
	}
}

type encEntry struct {
	arr      *bitpack.FieldArray
	resident int32
}

// NewEncoder creates the encoding scheme for the given parameters.
func NewEncoder(p Params) *Encoder {
	if p.HMax <= 0 || p.BitsPerPage == 0 {
		panic(fmt.Sprintf("core: invalid encoder params hmax=%d bits=%d", p.HMax, p.BitsPerPage))
	}
	allAbsent := bitpack.NewFieldArray(p.HMax, p.BitsPerPage)
	allAbsent.Fill(p.AbsentCode())
	layout := layoutOf(&p)
	return &Encoder{
		pageLayout: layout,
		allAbsent:  allAbsent,
		flatBound:  dense.FlatBound(p.V>>layout.shift + 1),
	}
}

// entryFor returns the (possibly fresh) entry for huge page u, growing the
// flat table on demand.
func (e *Encoder) entryFor(u uint64) *encEntry {
	var ent *encEntry
	switch {
	case u < uint64(len(e.entries)):
		ent = &e.entries[u]
	case u >= e.flatBound:
		if ent = e.sparse[u]; ent == nil {
			if e.sparse == nil {
				e.sparse = make(map[uint64]*encEntry)
			}
			ent = &encEntry{}
			e.sparse[u] = ent
		}
	default:
		entries := make([]encEntry, min(max(uint64(len(e.entries))*2+1, u+1), e.flatBound))
		copy(entries, e.entries)
		e.entries = entries
		ent = &e.entries[u]
	}
	if ent.arr == nil {
		ent.arr = e.allAbsent.Clone()
	}
	return ent
}

// lookup returns huge page u's entry, nil if it has none.
func (e *Encoder) lookup(u uint64) *encEntry {
	if u < uint64(len(e.entries)) {
		return &e.entries[u]
	}
	return e.sparse[u]
}

// PageAdded records that virtual page v became resident with the given
// location code, updating ψ(r(v)) in O(1).
func (e *Encoder) PageAdded(v uint64, code uint64) {
	if code >= e.absent {
		panic(fmt.Sprintf("core: code %d out of range [0,%d)", code, e.absent))
	}
	ent := e.entryFor(v >> e.shift)
	idx := int(v & e.mask)
	if ent.arr.Get(idx) != e.absent {
		panic(fmt.Sprintf("core: PageAdded for already-resident page %d", v))
	}
	ent.arr.Set(idx, code)
	if ent.resident == 0 {
		e.active++
	}
	ent.resident++
}

// PageRemoved records that virtual page v left the active set.
func (e *Encoder) PageRemoved(v uint64) {
	u := v >> e.shift
	ent := e.lookup(u)
	if ent == nil || ent.arr == nil || ent.resident == 0 {
		panic(fmt.Sprintf("core: PageRemoved for page %d with no encoded huge page", v))
	}
	idx := int(v & e.mask)
	if ent.arr.Get(idx) == e.absent {
		panic(fmt.Sprintf("core: PageRemoved for non-resident page %d", v))
	}
	ent.arr.Set(idx, e.absent)
	ent.resident--
	if ent.resident == 0 {
		e.active--
		if u >= e.flatBound {
			delete(e.sparse, u)
		}
	}
}

// Value returns ψ(u), the current w-bit TLB value for virtual huge page u.
// Huge pages with no resident constituent pages share one all-absent value.
// The returned array must be treated as read-only; the TLB copies it on
// insertion (Snapshot) to model the hardware latching a value.
func (e *Encoder) Value(u uint64) *bitpack.FieldArray {
	// A cached entry with resident == 0 holds all-absent codes, so it is
	// interchangeable with the shared allAbsent value.
	if u < uint64(len(e.entries)) && e.entries[u].arr != nil {
		return e.entries[u].arr
	}
	if ent := e.sparse[u]; ent != nil {
		return ent.arr
	}
	return e.allAbsent
}

// Snapshot returns a copy of ψ(u) frozen at the current moment.
func (e *Encoder) Snapshot(u uint64) *bitpack.FieldArray {
	return e.Value(u).Clone()
}

// ResidentInHugePage returns how many of u's constituent pages are
// resident.
func (e *Encoder) ResidentInHugePage(u uint64) int {
	if ent := e.lookup(u); ent != nil {
		return int(ent.resident)
	}
	return 0
}

// EncodedHugePages returns how many huge pages currently have at least one
// resident page (the occupancy of the proof's "constant time" table).
func (e *Encoder) EncodedHugePages() int { return e.active }

// Decode is the TLB-decoding function f (Equation 4 of the paper): given a
// virtual page address v and a TLB value ψ(u) for the huge page u ∋ v, it
// returns φ(v) if v is in the active set and NullAddress otherwise. It is
// evaluated in O(1) and uses only v, the value bits, and the allocator's
// fixed random hash functions. Scheme.Lookup runs the same decoder with
// its constants hoisted once at construction.
func Decode(alloc Allocator, p *Params, v uint64, value *bitpack.FieldArray) uint64 {
	d := newDecoder(alloc, p)
	return d.decode(v, value)
}

// decoder is the decoding function f with its constants hoisted: the
// page layout, and the allocator held concretely when it is one of the
// bucketed schemes, so the per-access decode is a direct call rather than
// interface dispatch.
type decoder struct {
	pageLayout
	alloc   Allocator
	iceberg *IcebergAllocator // non-nil when alloc is the Theorem 3 scheme
	bucket  *BucketAllocator  // non-nil when alloc is the Theorem 1 scheme
}

func newDecoder(alloc Allocator, p *Params) decoder {
	d := decoder{pageLayout: layoutOf(p), alloc: alloc}
	switch a := alloc.(type) {
	case *IcebergAllocator:
		d.iceberg = a
	case *BucketAllocator:
		d.bucket = a
	}
	return d
}

// decode is f: the code in v's field of value, mapped through the
// allocator, or NullAddress for the absent sentinel.
func (d *decoder) decode(v uint64, value *bitpack.FieldArray) uint64 {
	code := value.Get(int(v & d.mask))
	if code == d.absent {
		return NullAddress
	}
	switch {
	case d.iceberg != nil:
		return d.iceberg.Decode(v, code)
	case d.bucket != nil:
		return d.bucket.Decode(v, code)
	}
	return d.alloc.Decode(v, code)
}
