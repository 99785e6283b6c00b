package core

import (
	"testing"
	"testing/quick"

	"addrxlat/internal/hashutil"
)

func mkScheme(t testing.TB, kind AllocKind, P uint64, seed uint64) *Scheme {
	t.Helper()
	p, err := DeriveParams(kind, P, P*16, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDecodeEquation4 verifies the decoding guarantee of Equation (4):
// for every page v in the huge page u, f(v, ψ(u)) = φ(v) if v ∈ A, and
// NullAddress otherwise.
func TestDecodeEquation4(t *testing.T) {
	for _, kind := range []AllocKind{FullyAssociative, SingleChoice, IcebergAlloc} {
		t.Run(string(kind), func(t *testing.T) {
			s := mkScheme(t, kind, 1<<16, 5)
			p := s.Params()
			rng := hashutil.NewRNG(6)
			active := map[uint64]bool{}
			// Random page-in/page-out churn over a small virtual region so
			// huge pages get partially populated.
			region := uint64(p.HMax) * 64
			for step := 0; step < 20000; step++ {
				v := rng.Uint64n(region)
				if active[v] {
					s.PageOut(v)
					delete(active, v)
				} else if s.Resident() < p.MaxResident {
					if ok := s.PageIn(v); ok {
						active[v] = true
					} else {
						// Failed pages are still in A conceptually; page
						// them right back out to keep this test focused
						// on the decode equation.
						s.PageOut(v)
					}
				}
			}
			// Check Equation (4) for every page of every huge page in the
			// region.
			for u := uint64(0); u < 64; u++ {
				val := s.Value(u)
				for i := 0; i < p.HMax; i++ {
					v := u*uint64(p.HMax) + uint64(i)
					got := s.LookupIn(v, val)
					if active[v] {
						phys, ok := s.Allocator().PhysOf(v)
						if !ok {
							t.Fatalf("active page %d not in allocator", v)
						}
						if got != phys {
							t.Fatalf("f(%d, ψ) = %d, want φ(v) = %d", v, got, phys)
						}
					} else if got != NullAddress {
						t.Fatalf("f(%d, ψ) = %d, want NullAddress for absent page", v, got)
					}
				}
			}
		})
	}
}

// TestSnapshotIsolation: a snapshot taken before later churn must keep
// decoding to the *old* state (the TLB latches values; ψ updates only
// happen through the encoding scheme when the TLB entry is updated).
func TestSnapshotIsolation(t *testing.T) {
	s := mkScheme(t, IcebergAlloc, 1<<14, 9)
	p := s.Params()
	v := uint64(3)
	u := p.HugePage(v)
	s.PageIn(v)
	snap := s.Snapshot(u)
	phys, _ := s.Allocator().PhysOf(v)
	s.PageOut(v) // live value changes...
	if got := s.LookupIn(v, snap); got != phys {
		t.Fatalf("snapshot decode = %d, want %d", got, phys)
	}
	if got := s.Lookup(v); got != NullAddress {
		t.Fatalf("live decode = %d, want NullAddress", got)
	}
}

// TestConstantTimeTableSize: the encoder's table must only hold huge pages
// with at least one resident page (the constant-time bookkeeping of the
// Theorem 1 proof).
func TestConstantTimeTableSize(t *testing.T) {
	s := mkScheme(t, SingleChoice, 1<<14, 2)
	p := s.Params()
	h := uint64(p.HMax)
	// Populate 10 huge pages with 1 page each.
	for u := uint64(0); u < 10; u++ {
		s.PageIn(u * h)
	}
	if got := s.Encoder().EncodedHugePages(); got != 10 {
		t.Fatalf("encoded huge pages = %d, want 10", got)
	}
	for u := uint64(0); u < 10; u++ {
		s.PageOut(u * h)
	}
	if got := s.Encoder().EncodedHugePages(); got != 0 {
		t.Fatalf("encoded huge pages = %d after drain, want 0", got)
	}
}

// TestFailureSetLifecycle: failures enter F, are reported, and clear on
// page-out.
func TestFailureSetLifecycle(t *testing.T) {
	// Force failures by using single-choice and saturating one bucket.
	p, err := DeriveParams(SingleChoice, 1<<14, 1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme(p, 13)
	if err != nil {
		t.Fatal(err)
	}
	a := s.alloc.(*BucketAllocator)
	target := a.bucketOf(0)
	var sameBucket []uint64
	for v := uint64(0); len(sameBucket) <= p.B; v++ {
		if a.bucketOf(v) == target {
			sameBucket = append(sameBucket, v)
		}
	}
	for _, v := range sameBucket[:p.B] {
		if !s.PageIn(v) {
			t.Fatalf("unexpected failure before bucket full")
		}
	}
	overflow := sameBucket[p.B]
	if s.PageIn(overflow) {
		t.Fatal("expected paging failure on overflowing bucket")
	}
	if !s.IsFailed(overflow) || s.Failures() != 1 {
		t.Fatalf("failure set: IsFailed=%v |F|=%d", s.IsFailed(overflow), s.Failures())
	}
	if !s.InActiveSet(overflow) {
		t.Fatal("failed page must still count as in the active set")
	}
	if got := s.Lookup(overflow); got != NullAddress {
		t.Fatalf("failed page decoded to %d, want NullAddress", got)
	}
	s.PageOut(overflow)
	if s.Failures() != 0 || s.IsFailed(overflow) {
		t.Fatal("failure should clear on page-out")
	}
	if s.TotalFailures() != 1 {
		t.Fatalf("TotalFailures = %d, want 1", s.TotalFailures())
	}
}

// TestSchemeFailureFreeAtScale is the Decoupling Theorem's empirical
// high-probability check at simulation scale: for several seeds, a full
// fill-to-m plus heavy churn never yields a paging failure.
func TestSchemeFailureFreeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, kind := range []AllocKind{SingleChoice, IcebergAlloc} {
		t.Run(string(kind), func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				s := mkScheme(t, kind, 1<<16, seed)
				p := s.Params()
				rng := hashutil.NewRNG(seed * 31)
				live := make([]uint64, 0, p.MaxResident)
				var next uint64
				for uint64(len(live)) < p.MaxResident {
					if !s.PageIn(next) {
						t.Fatalf("seed %d: failure during fill", seed)
					}
					live = append(live, next)
					next++
				}
				for step := 0; step < 30000; step++ {
					i := rng.Intn(len(live))
					s.PageOut(live[i])
					live[i] = next
					if !s.PageIn(next) {
						t.Fatalf("seed %d step %d: paging failure under churn", seed, step)
					}
					next++
				}
				if s.TotalFailures() != 0 {
					t.Fatalf("seed %d: %d total failures", seed, s.TotalFailures())
				}
			}
		})
	}
}

// TestPageInBeyondMaxResidentPanics: exceeding m is a contract violation.
func TestPageInBeyondMaxResidentPanics(t *testing.T) {
	p, err := DeriveParams(IcebergAlloc, 64, 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < p.MaxResident; v++ {
		s.PageIn(v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PageIn beyond m should panic")
		}
	}()
	s.PageIn(p.MaxResident)
}

// TestQuickDecodeRoundTrip is a property test across random churn
// schedules: decode of the live value always equals PhysOf.
func TestQuickDecodeRoundTrip(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		s := mkScheme(t, IcebergAlloc, 1<<12, seed)
		p := s.Params()
		active := map[uint64]bool{}
		for _, op := range ops {
			v := uint64(op) % (uint64(p.HMax) * 16)
			if active[v] {
				s.PageOut(v)
				delete(active, v)
			} else if s.Resident() < p.MaxResident {
				if s.PageIn(v) {
					active[v] = true
				} else {
					s.PageOut(v)
				}
			}
			got := s.Lookup(v)
			if active[v] {
				phys, _ := s.Allocator().PhysOf(v)
				if got != phys {
					return false
				}
			} else if got != NullAddress {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEncoderPanics: misuse of the encoder is programmer error.
func TestEncoderPanics(t *testing.T) {
	p, err := DeriveParams(IcebergAlloc, 1<<12, 1<<16, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("double add", func(t *testing.T) {
		e := NewEncoder(p)
		e.PageAdded(1, 0)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		e.PageAdded(1, 1)
	})
	t.Run("remove absent", func(t *testing.T) {
		e := NewEncoder(p)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		e.PageRemoved(1)
	})
	t.Run("code out of range", func(t *testing.T) {
		e := NewEncoder(p)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		e.PageAdded(1, p.AbsentCode())
	})
}

// TestValueBitBudget: every TLB value must fit in w bits.
func TestValueBitBudget(t *testing.T) {
	for _, kind := range []AllocKind{FullyAssociative, SingleChoice, IcebergAlloc} {
		s := mkScheme(t, kind, 1<<16, 3)
		p := s.Params()
		if bits := p.HMax * int(p.BitsPerPage); bits > p.W {
			t.Errorf("%s: value uses %d bits > w=%d", kind, bits, p.W)
		}
		v := uint64(0)
		s.PageIn(v)
		if val := s.Value(p.HugePage(v)); val.Len()*int(val.Width()) > p.W {
			t.Errorf("%s: encoded value %d bits > w=%d", kind, val.Len()*int(val.Width()), p.W)
		}
	}
}

func BenchmarkSchemePageInOut(b *testing.B) {
	for _, kind := range []AllocKind{SingleChoice, IcebergAlloc} {
		b.Run(string(kind), func(b *testing.B) {
			p, err := DeriveParams(kind, 1<<20, 1<<24, 64)
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewScheme(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			warm := p.MaxResident - 1
			for v := uint64(0); v < warm; v++ {
				s.PageIn(v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := warm + uint64(i)
				if s.PageIn(v) {
					s.PageOut(v)
				}
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	p, err := DeriveParams(IcebergAlloc, 1<<20, 1<<24, 64)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewScheme(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	for v := uint64(0); v < 10000; v++ {
		s.PageIn(v)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Lookup(uint64(i) % 10000)
	}
	_ = sink
}

// TestSchemeLookupMatchesPhysOf drives random PageIn/PageOut churn up to
// MaxResident — deep enough that Iceberg takes its back path — and checks
// the scheme's decode against the allocator at every checkpoint, for every
// page of the region: Lookup(v) is PhysOf(v) for an allocator-resident
// page and NullAddress otherwise (absent, or failed and so without a
// frame), and LookupIn on the live value and the exported Decode both
// agree with it. The single-choice run finally overfills one bucket so a
// failed page is checked too.
func TestSchemeLookupMatchesPhysOf(t *testing.T) {
	for _, kind := range []AllocKind{FullyAssociative, SingleChoice, IcebergAlloc} {
		t.Run(string(kind), func(t *testing.T) {
			s := mkScheme(t, kind, 1<<12, 17)
			p := s.Params()
			rng := hashutil.NewRNG(18)
			region := 4 * p.P
			check := func(step int) {
				t.Helper()
				for v := uint64(0); v < region; v++ {
					got := s.Lookup(v)
					if phys, ok := s.Allocator().PhysOf(v); ok {
						if got != phys {
							t.Fatalf("step %d: Lookup(%d) = %d, PhysOf = %d", step, v, got, phys)
						}
					} else if got != NullAddress {
						t.Fatalf("step %d: Lookup(%d) = %d for a page without a frame (failed=%v)",
							step, v, got, s.IsFailed(v))
					}
					value := s.Value(p.HugePage(v))
					if in := s.LookupIn(v, value); in != got {
						t.Fatalf("step %d: LookupIn(%d) = %d, Lookup = %d", step, v, in, got)
					}
					if d := Decode(s.Allocator(), &p, v, value); d != got {
						t.Fatalf("step %d: Decode(%d) = %d, Lookup = %d", step, v, d, got)
					}
				}
			}
			var inA []uint64 // the active set A, failed pages included
			pageOutRandom := func() {
				i := rng.Intn(len(inA))
				s.PageOut(inA[i])
				inA[i] = inA[len(inA)-1]
				inA = inA[:len(inA)-1]
			}
			for step := 1; step <= 60000; step++ {
				if len(inA) > 0 && (uint64(len(inA)) >= p.MaxResident || rng.Float64() < 0.45) {
					pageOutRandom()
				} else if v := rng.Uint64n(region); !s.InActiveSet(v) {
					s.PageIn(v)
					inA = append(inA, v)
				}
				if step%15000 == 0 {
					check(step)
				}
			}
			if ia, ok := s.Allocator().(*IcebergAllocator); ok && ia.BackAssigns() == 0 {
				t.Fatal("churn never reached the Iceberg back path; choices 1 and 2 went unchecked")
			}
			if ba, ok := s.Allocator().(*BucketAllocator); ok {
				target := ba.bucketOf(0)
				for v := uint64(0); v < region && s.Failures() == 0; v++ {
					if ba.bucketOf(v) != target || s.InActiveSet(v) {
						continue
					}
					if uint64(len(inA)) >= p.MaxResident {
						pageOutRandom()
					}
					s.PageIn(v)
					inA = append(inA, v)
				}
				if s.Failures() == 0 {
					t.Fatal("overfilling one bucket produced no paging failure")
				}
				check(-1)
			}
		})
	}
}
