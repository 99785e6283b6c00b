package explain

import (
	"testing"

	"addrxlat/internal/dense"
)

// mapClassifier is the reference TLB-miss classifier: the original
// map-backed implementation, kept here as the oracle the flat table is
// checked against.
type mapClassifier struct {
	compulsory, capacity, coverage, invalidations uint64
	state                                         map[uint64]uint8
}

func (m *mapClassifier) miss(key uint64) {
	if m.state == nil {
		m.state = make(map[uint64]uint8)
	}
	switch st := m.state[key]; {
	case st == 0:
		m.compulsory++
	case st&tlbInvalidated != 0:
		m.coverage++
	default:
		m.capacity++
	}
	m.state[key] = tlbSeen
}

func (m *mapClassifier) invalidated(key uint64) {
	m.invalidations++
	if m.state == nil {
		m.state = make(map[uint64]uint8)
	}
	m.state[key] = tlbSeen | tlbInvalidated
}

func (m *mapClassifier) reset() {
	m.compulsory, m.capacity, m.coverage, m.invalidations = 0, 0, 0, 0
}

// check fails unless c's classified counts equal the oracle's.
func (m *mapClassifier) check(t *testing.T, c *Counters, step int) {
	t.Helper()
	if c.TLBCompulsory != m.compulsory || c.TLBCapacity != m.capacity ||
		c.TLBCoverageLoss != m.coverage || c.TLBInvalidations != m.invalidations {
		t.Fatalf("step %d: got compulsory/capacity/coverage/invalidations %d/%d/%d/%d, oracle %d/%d/%d/%d",
			step, c.TLBCompulsory, c.TLBCapacity, c.TLBCoverageLoss, c.TLBInvalidations,
			m.compulsory, m.capacity, m.coverage, m.invalidations)
	}
}

// classes returns the three miss classes, for compact assertions.
func classes(c *Counters) [3]uint64 {
	return [3]uint64{c.TLBCompulsory, c.TLBCapacity, c.TLBCoverageLoss}
}

func TestTLBMissClasses(t *testing.T) {
	var c Counters
	c.TLBMiss(5) // never resident: compulsory
	if got := classes(&c); got != [3]uint64{1, 0, 0} {
		t.Fatalf("first miss: %v", got)
	}
	c.TLBMiss(5) // resident before, pushed out: capacity
	if got := classes(&c); got != [3]uint64{1, 1, 0} {
		t.Fatalf("second miss: %v", got)
	}
	c.TLBInvalidated(5) // explicitly dropped: the next miss is coverage loss
	c.TLBMiss(5)
	if got := classes(&c); got != [3]uint64{1, 1, 1} {
		t.Fatalf("miss after invalidation: %v", got)
	}
	c.TLBMiss(5) // the invalidation is consumed: capacity again
	if got := classes(&c); got != [3]uint64{1, 2, 1} {
		t.Fatalf("miss after coverage loss: %v", got)
	}
	c.TLBInvalidated(9) // invalidating a never-missed key still marks it seen
	c.TLBMiss(9)
	if got := classes(&c); got != [3]uint64{1, 2, 2} {
		t.Fatalf("miss of an invalidated-first key: %v", got)
	}
	if c.TLBInvalidations != 2 || c.TLBMisses() != 5 {
		t.Fatalf("invalidations %d, misses %d", c.TLBInvalidations, c.TLBMisses())
	}
}

// TestResetKeepsHistory pins the Reset contract: counts zero, classifier
// history survives, so a key first missed in warmup is never compulsory
// again in the measured window.
func TestResetKeepsHistory(t *testing.T) {
	var c Counters
	c.TLBMiss(3)
	c.TLBMiss(4)
	c.TLBInvalidated(4)
	c.DemandIO()
	c.Reset()
	if c.Snapshot() != (Counters{}) {
		t.Fatalf("Reset left counts: %+v", c.Snapshot())
	}
	c.TLBMiss(3)
	c.TLBMiss(4)
	c.TLBMiss(7)
	if got := classes(&c); got != [3]uint64{1, 1, 1} {
		t.Fatalf("after Reset: %v, want one of each class", got)
	}
}

// TestSnapshotSharesNoState pins that a snapshot is a plain value: it
// carries the counts but no classifier, so neither side's later misses
// reach the other.
func TestSnapshotSharesNoState(t *testing.T) {
	var c Counters
	c.TLBMiss(1)
	c.TLBMiss(1 << 40)
	s := c.Snapshot()
	if s.tlbState != nil {
		t.Fatal("snapshot shares the classifier")
	}
	if got := classes(&s); got != [3]uint64{2, 0, 0} {
		t.Fatalf("snapshot counts: %v", got)
	}
	c.TLBMiss(1)
	if got := classes(&s); got != [3]uint64{2, 0, 0} {
		t.Fatalf("snapshot moved with the live counters: %v", got)
	}
	s.TLBMiss(2) // a miss into the copy starts a fresh history
	s.TLBInvalidated(1)
	c.TLBMiss(1)
	c.TLBMiss(2)
	if got := classes(&c); got != [3]uint64{3, 2, 0} {
		t.Fatalf("live counters saw the snapshot's history: %v", got)
	}
}

// TestNilCounters pins the disarmed contract: every method is a no-op on
// a nil receiver.
func TestNilCounters(t *testing.T) {
	var c *Counters
	c.DemandIO()
	c.AmplifiedIO(3)
	c.FailureIO(1)
	c.DecodeMiss()
	c.Evict()
	c.Promote()
	c.Demote()
	c.Preempt()
	c.Shootdown()
	c.NestedWalk()
	c.CoalescedFill()
	c.SingleFill()
	c.TLBMiss(1)
	c.TLBInvalidated(1)
	c.Reset()
	c.Merge(Counters{IODemand: 1})
	if c.Snapshot() != (Counters{}) {
		t.Fatal("nil Snapshot is not the zero value")
	}
}

// TestTaggedKeys pins that keys at or above dense.SparseBound (tagged
// keyspaces) classify like any other key and never grow the flat region.
func TestTaggedKeys(t *testing.T) {
	var c Counters
	keys := []uint64{dense.SparseBound, dense.SparseBound + 1, 1 << 62, 1<<62 | 1, ^uint64(0)}
	for _, k := range keys {
		c.TLBMiss(k)
	}
	for _, k := range keys {
		c.TLBMiss(k)
	}
	c.TLBInvalidated(1 << 62)
	c.TLBMiss(1 << 62)
	if got := classes(&c); got != [3]uint64{5, 5, 1} {
		t.Fatalf("tagged keys: %v", got)
	}
	if n := c.tlbState.Cap(); n != 0 {
		t.Fatalf("tagged keys grew the flat region to %d", n)
	}
}

func TestSubMergeRoundTrip(t *testing.T) {
	a := Counters{IODemand: 5, IOAmplified: 4, IOFailure: 3, TLBCompulsory: 2, DecodeMisses: 3, SingleFills: 9}
	b := Counters{IODemand: 2, IOAmplified: 1, IOFailure: 1, TLBCompulsory: 1, DecodeMisses: 1, SingleFills: 4}
	d := Sub(a, b)
	b.Merge(d)
	if b != a {
		t.Fatalf("b + (a − b) = %+v, want %+v", b, a)
	}
	if a.IOs() != 12 || a.TLBMisses() != 2 {
		t.Fatalf("IOs %d, TLBMisses %d", a.IOs(), a.TLBMisses())
	}
}

// fuzzKey maps one fuzz byte pair onto the classifier's keyspaces: a small
// dense range (so keys repeat), the first keys of the map fallback at
// dense.SparseBound, and high-bit tagged keys.
func fuzzKey(sel, b byte) uint64 {
	switch sel % 4 {
	case 0, 1:
		return uint64(b % 32)
	case 2:
		return dense.SparseBound + uint64(b%8)
	default:
		return 1<<62 | uint64(b%8)
	}
}

// FuzzClassifier replays random TLBMiss / TLBInvalidated / Reset / Snapshot
// sequences against the map-backed oracle, comparing every class count
// after every step.
func FuzzClassifier(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 0, 1})
	f.Add([]byte{0, 5, 2, 0, 0, 5, 1, 5, 0, 5})
	f.Add([]byte{8, 3, 9, 3, 12, 3, 13, 7, 15, 7, 10, 7})
	f.Add([]byte{4, 200, 5, 200, 6, 0, 4, 200, 2, 0, 4, 201})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var c Counters
		var m mapClassifier
		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i], fuzzKey(ops[i]>>2, ops[i+1])
			switch op % 4 {
			case 0:
				c.TLBMiss(key)
				m.miss(key)
			case 1:
				c.TLBInvalidated(key)
				m.invalidated(key)
			case 2:
				c.Reset()
				m.reset()
			default:
				s := c.Snapshot() // must neither share nor disturb state
				s.TLBMiss(key)
			}
			m.check(t, &c, i/2)
		}
	})
}

// BenchmarkTLBMiss times the classifier on its hot path: misses over a
// page-number keyspace of 1<<20 keys, one in 16 preceded by an
// invalidation, as an armed simulator issues them.
func BenchmarkTLBMiss(b *testing.B) {
	keys := make([]uint64, 1<<16)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x & (1<<20 - 1)
	}
	var c Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		if i&15 == 0 {
			c.TLBInvalidated(k)
		}
		c.TLBMiss(k)
	}
}
