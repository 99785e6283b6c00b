package core

import (
	"fmt"

	"addrxlat/internal/dense"
	"addrxlat/internal/hashutil"
)

// BucketAllocator is the Theorem 1 warm-up scheme: RAM is split into n
// buckets of B consecutive page frames; each virtual page hashes (k=1) to
// a single bucket and may occupy any free slot there. The per-page code is
// just the slot index, so codes need only ⌈log₂(B+1)⌉ bits.
type BucketAllocator struct {
	params Params
	fam    *hashutil.Family
	space  *bucketSpace
	slots  *dense.Table[uint32] // virtual page -> slot index within its bucket
}

var _ Allocator = (*BucketAllocator)(nil)

// NewBucketAllocator builds the k=1 bucketed allocator described by p
// (p.Kind must be SingleChoice).
func NewBucketAllocator(p Params, seed uint64) (*BucketAllocator, error) {
	if p.Kind != SingleChoice {
		return nil, fmt.Errorf("core: BucketAllocator requires kind %q, got %q", SingleChoice, p.Kind)
	}
	if p.NumBuckets == 0 || p.B <= 0 {
		return nil, fmt.Errorf("core: invalid bucket geometry n=%d B=%d", p.NumBuckets, p.B)
	}
	return &BucketAllocator{
		params: p,
		fam:    hashutil.NewFamily(seed, 1, p.NumBuckets),
		space:  newBucketSpace(p.NumBuckets, p.B),
		slots:  dense.NewTable[uint32](^uint32(0), p.V),
	}, nil
}

// bucketOf returns the unique bucket page v may reside in.
func (a *BucketAllocator) bucketOf(v uint64) uint64 { return a.fam.At(0, v) }

// Assign implements Allocator.
func (a *BucketAllocator) Assign(v uint64) (uint64, bool) {
	if a.slots.Contains(v) {
		panic(fmt.Sprintf("core: double Assign of page %d", v))
	}
	bucket := a.bucketOf(v)
	slot := a.space.takeSlot(bucket)
	if slot < 0 {
		return 0, false // paging failure: the page's only bucket is full
	}
	a.slots.Set(v, uint32(slot))
	return uint64(slot), true
}

// Release implements Allocator.
func (a *BucketAllocator) Release(v uint64) {
	slot, ok := a.slots.Get(v)
	if !ok {
		panic(fmt.Sprintf("core: Release of unassigned page %d", v))
	}
	a.space.freeSlot(a.bucketOf(v), int(slot))
	a.slots.Delete(v)
}

// PhysOf implements Allocator.
func (a *BucketAllocator) PhysOf(v uint64) (uint64, bool) {
	slot, ok := a.slots.Get(v)
	if !ok {
		return 0, false
	}
	return a.bucketOf(v)*uint64(a.params.B) + uint64(slot), true
}

// Decode implements Allocator: physical address = bucket·B + slot, where
// the bucket is recomputed from v's hash and the code is the slot.
func (a *BucketAllocator) Decode(v uint64, code uint64) uint64 {
	return a.bucketOf(v)*uint64(a.params.B) + code
}

// CodeBound implements Allocator: codes are slot indices in [0, B).
func (a *BucketAllocator) CodeBound() uint64 { return uint64(a.params.B) }

// Associativity implements Allocator.
func (a *BucketAllocator) Associativity() uint64 { return uint64(a.params.B) }

// Resident implements Allocator.
func (a *BucketAllocator) Resident() uint64 { return uint64(a.slots.Len()) }

// Name implements Allocator.
func (a *BucketAllocator) Name() string { return string(SingleChoice) }

// BucketLoad exposes the occupancy of a bucket for experiments.
func (a *BucketAllocator) BucketLoad(bucket uint64) int { return a.space.load(bucket) }
