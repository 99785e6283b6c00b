package workload

import "testing"

// countingGen is a scalar-only Generator for pinning Fill's fallback path.
type countingGen struct{ n uint64 }

func (g *countingGen) Next() uint64 {
	g.n++
	return g.n * 5
}
func (g *countingGen) Name() string { return "counting" }

// TestFillDispatch pins Fill, the shared fill-dispatch point: it must
// route through NextBatch when the generator has one and fall back to
// per-element Next otherwise, producing in both cases exactly the
// sequence repeated Next calls would.
func TestFillDispatch(t *testing.T) {
	t.Run("batcher-replay", func(t *testing.T) {
		pages := make([]uint64, 257)
		for i := range pages {
			pages[i] = uint64(i * 3)
		}
		scalar, err := NewReplay(pages)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := NewReplay(pages)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint64, 100)
		for off := 0; off < len(pages); off += len(dst) {
			Fill(batch, dst)
			for i, got := range dst {
				if want := scalar.Next(); got != want {
					t.Fatalf("offset %d: Fill[%d] = %d, Next says %d", off, i, got, want)
				}
			}
		}
	})
	t.Run("batcher-bimodal", func(t *testing.T) {
		mk := func() *Bimodal {
			g, err := NewBimodal(1<<8, 1<<14, 0.9, 11)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		ref, gen := mk(), mk()
		if _, ok := any(gen).(BatchGenerator); !ok {
			t.Fatal("Bimodal expected to batch")
		}
		dst := make([]uint64, 333)
		for round := 0; round < 5; round++ {
			Fill(gen, dst)
			for i, got := range dst {
				if want := ref.Next(); got != want {
					t.Fatalf("round %d: Fill[%d] = %d, Next says %d (RNG sequences diverged)", round, i, got, want)
				}
			}
		}
	})
	t.Run("scalar-only", func(t *testing.T) {
		gen := &countingGen{}
		if _, ok := any(gen).(BatchGenerator); ok {
			t.Fatal("countingGen must stay scalar-only for this test")
		}
		ref := &countingGen{}
		dst := make([]uint64, 333)
		Fill(gen, dst)
		for i, got := range dst {
			if want := ref.Next(); got != want {
				t.Fatalf("Fill[%d] = %d, Next says %d", i, got, want)
			}
		}
	})
}
