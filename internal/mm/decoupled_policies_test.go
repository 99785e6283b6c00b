package mm

import (
	"fmt"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

// TestDecoupledWithEveryPolicy drives Z with every replacement-policy kind
// on both the TLB (X) and RAM (Y) sides. This exercises, among other
// paths, 2Q's eviction-on-hit promotions, which must flow through the
// decoupling scheme's PageOut without desynchronizing φ.
func TestDecoupledWithEveryPolicy(t *testing.T) {
	for _, kind := range policy.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			z, err := NewDecoupled(DecoupledConfig{
				Alloc:        core.IcebergAlloc,
				RAMPages:     1 << 12,
				VirtualPages: 1 << 16,
				TLBEntries:   32,
				ValueBits:    64,
				TLBPolicy:    kind,
				RAMPolicy:    kind,
				Seed:         7,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := hashutil.NewRNG(8)
			for i := 0; i < 100000; i++ {
				// Mix of hot reuse and cold traffic so hits, misses,
				// promotions and evictions all occur.
				var v uint64
				if r.Float64() < 0.8 {
					v = r.Uint64n(1 << 10)
				} else {
					v = r.Uint64n(1 << 15)
				}
				z.Access(v)
			}
			c := z.Costs()
			if c.Accesses != 100000 {
				t.Fatalf("accesses = %d", c.Accesses)
			}
			if c.IOs == 0 || c.TLBMisses == 0 {
				t.Fatalf("degenerate run: %+v", c)
			}
			// Scheme-internal consistency: resident count matches Y's.
			if z.scheme.Resident() != uint64(z.ramY.Len()) {
				t.Fatalf("scheme resident %d != policy len %d",
					z.scheme.Resident(), z.ramY.Len())
			}
		})
	}
}

// TestDecoupledAllocatorKinds drives Z with each allocation scheme.
func TestDecoupledAllocatorKinds(t *testing.T) {
	for _, alloc := range []core.AllocKind{core.FullyAssociative, core.SingleChoice, core.IcebergAlloc} {
		alloc := alloc
		t.Run(string(alloc), func(t *testing.T) {
			t.Parallel()
			z, err := NewDecoupled(DecoupledConfig{
				Alloc:        alloc,
				RAMPages:     1 << 12,
				VirtualPages: 1 << 16,
				TLBEntries:   32,
				ValueBits:    64,
				Seed:         3,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := hashutil.NewRNG(4)
			for i := 0; i < 50000; i++ {
				z.Access(r.Uint64n(1 << 13))
			}
			if z.Costs().Accesses != 50000 {
				t.Fatal("lost accesses")
			}
			// The fully-associative scheme can never fail; the bucketed
			// schemes shouldn't either at this load.
			if z.Scheme().TotalFailures() != 0 {
				t.Fatalf("%d paging failures", z.Scheme().TotalFailures())
			}
		})
	}
}

// TestDecoupledSeedStability: identical configurations must produce
// identical cost counters (full determinism).
func TestDecoupledSeedStability(t *testing.T) {
	run := func() Costs {
		z, err := NewDecoupled(DecoupledConfig{
			Alloc:        core.IcebergAlloc,
			RAMPages:     1 << 12,
			VirtualPages: 1 << 16,
			TLBEntries:   32,
			ValueBits:    64,
			Seed:         11,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := hashutil.NewRNG(12)
		for i := 0; i < 30000; i++ {
			z.Access(r.Uint64n(1 << 13))
		}
		return z.Costs()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestDecoupledSmallValueBits: tiny w forces hmax=1 (decoupling degrades
// to page-grain TLB entries but must still work).
func TestDecoupledSmallValueBits(t *testing.T) {
	z, err := NewDecoupled(DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     1 << 12,
		VirtualPages: 1 << 16,
		TLBEntries:   16,
		ValueBits:    8,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("w=8 bits should still support hmax≥1: %v", err)
	}
	if z.Params().HMax != 1 {
		t.Fatalf("hmax = %d, want 1 at w=8", z.Params().HMax)
	}
	for v := uint64(0); v < 1000; v++ {
		z.Access(v % 300)
	}
	if z.Costs().Accesses != 1000 {
		t.Fatal("lost accesses")
	}
}

// TestDecoupledStress is a longer mixed-workload soak guarded by -short.
func TestDecoupledStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	z, err := NewDecoupled(DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     1 << 16,
		VirtualPages: 1 << 22,
		TLBEntries:   256,
		ValueBits:    64,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := hashutil.NewRNG(6)
	phases := []struct {
		name string
		gen  func() uint64
	}{
		{"hot", func() uint64 { return r.Uint64n(1 << 12) }},
		{"scan", func() uint64 { return r.Uint64() % (1 << 21) }},
		{"zipfish", func() uint64 {
			v := r.Uint64n(1 << 20)
			return v * v >> 20 // quadratic skew toward 0
		}},
	}
	for cycle := 0; cycle < 3; cycle++ {
		for _, ph := range phases {
			for i := 0; i < 200000; i++ {
				z.Access(ph.gen())
			}
		}
	}
	c := z.Costs()
	if c.Accesses != 3*3*200000 {
		t.Fatalf("accesses = %d", c.Accesses)
	}
	failRate := float64(z.FailureHits()) / float64(c.Accesses)
	if failRate > 0.001 {
		t.Fatalf("failure-path rate %v exceeds 0.1%%", failRate)
	}
	_ = fmt.Sprintf("%v", c)
}
