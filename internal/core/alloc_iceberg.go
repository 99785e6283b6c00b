package core

import (
	"fmt"

	"addrxlat/internal/dense"
	"addrxlat/internal/hashutil"
)

// IcebergAllocator is the Theorem 3 scheme. Each virtual page has three
// hash choices h₁,h₂,h₃ into buckets of B = Θ̃(log log P) frames. Placement
// follows the Iceberg[2] rule: the page goes to its front bucket h₁(v) if
// that bucket's front occupancy is below the threshold (and a frame is
// free); otherwise it goes to whichever of h₂(v), h₃(v) has the smaller
// back occupancy (Greedy[2] over back-inserted pages only, per footnote 4
// of the paper). The per-page code combines the choice index and slot:
// code = choice·B + slot, needing ⌈log₂(3B+1)⌉ bits.
type IcebergAllocator struct {
	params Params
	fam    *hashutil.Family // 3 functions
	space  *bucketSpace
	front  []int32 // per-bucket count of front-inserted pages
	back   []int32 // per-bucket count of back-inserted pages
	// where stores, flat by virtual page number, the page's location code
	// choice·B + slot — the same value Assign returns — or the table's
	// absent sentinel when the page is not resident.
	where *dense.Table[uint32]

	frontAssigns uint64
	backAssigns  uint64
}

var _ Allocator = (*IcebergAllocator)(nil)

// NewIcebergAllocator builds the k=3 Iceberg allocator described by p
// (p.Kind must be IcebergAlloc).
func NewIcebergAllocator(p Params, seed uint64) (*IcebergAllocator, error) {
	if p.Kind != IcebergAlloc {
		return nil, fmt.Errorf("core: IcebergAllocator requires kind %q, got %q", IcebergAlloc, p.Kind)
	}
	if p.NumBuckets == 0 || p.B <= 0 || p.Threshold <= 0 {
		return nil, fmt.Errorf("core: invalid iceberg geometry n=%d B=%d threshold=%d",
			p.NumBuckets, p.B, p.Threshold)
	}
	return &IcebergAllocator{
		params: p,
		fam:    hashutil.NewFamily(seed, 3, p.NumBuckets),
		space:  newBucketSpace(p.NumBuckets, p.B),
		front:  make([]int32, p.NumBuckets),
		back:   make([]int32, p.NumBuckets),
		where:  dense.NewTable[uint32](^uint32(0), p.V),
	}, nil
}

// Assign implements Allocator.
func (a *IcebergAllocator) Assign(v uint64) (uint64, bool) {
	if a.where.Contains(v) {
		panic(fmt.Sprintf("core: double Assign of page %d", v))
	}
	// Front path: bucket h₁(v) if its front occupancy is under threshold.
	b0 := a.fam.At(0, v)
	if int(a.front[b0]) < a.params.Threshold {
		if slot := a.space.takeSlot(b0); slot >= 0 {
			a.front[b0]++
			a.where.Set(v, uint32(slot))
			a.frontAssigns++
			return uint64(slot), true
		}
		// Front bucket physically full even though under front threshold
		// (back-inserted pages crowd it): fall through to the back path.
	}
	// Back path: Greedy[2] over h₂, h₃ comparing back occupancy.
	b1, b2 := a.fam.At(1, v), a.fam.At(2, v)
	first, second := b1, b2
	firstChoice, secondChoice := uint8(1), uint8(2)
	if a.back[b2] < a.back[b1] {
		first, second = b2, b1
		firstChoice, secondChoice = 2, 1
	}
	if slot := a.space.takeSlot(first); slot >= 0 {
		a.back[first]++
		code := uint32(firstChoice)*uint32(a.params.B) + uint32(slot)
		a.where.Set(v, code)
		a.backAssigns++
		return uint64(code), true
	}
	if slot := a.space.takeSlot(second); slot >= 0 {
		a.back[second]++
		code := uint32(secondChoice)*uint32(a.params.B) + uint32(slot)
		a.where.Set(v, code)
		a.backAssigns++
		return uint64(code), true
	}
	return 0, false // paging failure: all candidate buckets full
}

// Release implements Allocator.
func (a *IcebergAllocator) Release(v uint64) {
	code, ok := a.where.Get(v)
	if !ok {
		panic(fmt.Sprintf("core: Release of unassigned page %d", v))
	}
	choice, slot := a.split(uint64(code))
	bucket := a.fam.At(choice, v)
	a.space.freeSlot(bucket, int(slot))
	if choice == 0 {
		a.front[bucket]--
	} else {
		a.back[bucket]--
	}
	a.where.Delete(v)
}

// PhysOf implements Allocator.
func (a *IcebergAllocator) PhysOf(v uint64) (uint64, bool) {
	code, ok := a.where.Get(v)
	if !ok {
		return 0, false
	}
	return a.Decode(v, uint64(code)), true
}

// Decode implements Allocator: code = choice·B + slot; the bucket for the
// choice is recomputed from v's hashes.
func (a *IcebergAllocator) Decode(v uint64, code uint64) uint64 {
	choice, slot := a.split(code)
	return a.fam.At(choice, v)*uint64(a.params.B) + slot
}

// split separates code = choice·B + slot with compares and subtracts
// instead of two divisions by B. A code past the last choice (≥ 3B, which
// Assign never returns) stays on choice 2 with an out-of-bucket slot:
// an unspecified address, as the Allocator contract allows, but never an
// index past the three hash functions.
func (a *IcebergAllocator) split(code uint64) (choice int, slot uint64) {
	b := uint64(a.params.B)
	if code >= b {
		code -= b
		choice = 1
		if code >= b {
			code -= b
			choice = 2
		}
	}
	return choice, code
}

// CodeBound implements Allocator: codes are in [0, 3B).
func (a *IcebergAllocator) CodeBound() uint64 { return 3 * uint64(a.params.B) }

// Associativity implements Allocator.
func (a *IcebergAllocator) Associativity() uint64 { return 3 * uint64(a.params.B) }

// Resident implements Allocator.
func (a *IcebergAllocator) Resident() uint64 { return uint64(a.where.Len()) }

// Name implements Allocator.
func (a *IcebergAllocator) Name() string { return string(IcebergAlloc) }

// FrontAssigns reports how many assignments took the front path.
func (a *IcebergAllocator) FrontAssigns() uint64 { return a.frontAssigns }

// BackAssigns reports how many assignments took the Greedy[2] back path.
func (a *IcebergAllocator) BackAssigns() uint64 { return a.backAssigns }

// BucketLoad exposes the total occupancy of a bucket for experiments.
func (a *IcebergAllocator) BucketLoad(bucket uint64) int { return a.space.load(bucket) }

// LoadHistogram returns hist[l] = number of buckets currently holding
// exactly l resident pages, for l in [0, B] — the distribution the
// Theorem 2 bound monitor compares against (1+o(1))λ + log log n.
func (a *IcebergAllocator) LoadHistogram() []int {
	hist := make([]int, a.params.B+1)
	for b := uint64(0); b < a.params.NumBuckets; b++ {
		hist[a.space.load(b)]++
	}
	return hist
}
