package bitpack

import (
	"testing"
	"testing/quick"

	"addrxlat/internal/hashutil"
)

func TestRoundTripAllWidths(t *testing.T) {
	for width := uint(1); width <= 64; width++ {
		a := NewFieldArray(17, width)
		mask := ^uint64(0)
		if width < 64 {
			mask = (1 << width) - 1
		}
		r := hashutil.NewRNG(uint64(width))
		want := make([]uint64, 17)
		for i := range want {
			want[i] = r.Uint64() & mask
			a.Set(i, want[i])
		}
		for i := range want {
			if got := a.Get(i); got != want[i] {
				t.Fatalf("width %d field %d: got %#x want %#x", width, i, got, want[i])
			}
		}
	}
}

func TestNeighborsUndisturbed(t *testing.T) {
	// Setting one field must not disturb its neighbors, including across
	// word boundaries (width 13 straddles words at fields 4, 9, ...).
	a := NewFieldArray(30, 13)
	for i := 0; i < 30; i++ {
		a.Set(i, uint64(i)*101%8192)
	}
	a.Set(15, 7777)
	for i := 0; i < 30; i++ {
		want := uint64(i) * 101 % 8192
		if i == 15 {
			want = 7777
		}
		if got := a.Get(i); got != want {
			t.Fatalf("field %d: got %d want %d", i, got, want)
		}
	}
}

func TestQuickSetGet(t *testing.T) {
	f := func(idx uint8, val uint64, width uint8) bool {
		w := uint(width%64) + 1
		n := 64
		i := int(idx) % n
		a := NewFieldArray(n, w)
		mask := ^uint64(0)
		if w < 64 {
			mask = (1 << w) - 1
		}
		v := val & mask
		a.Set(i, v)
		return a.Get(i) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFill(t *testing.T) {
	a := NewFieldArray(100, 7)
	a.Fill(127)
	for i := 0; i < 100; i++ {
		if a.Get(i) != 127 {
			t.Fatalf("field %d not filled", i)
		}
	}
	a.Fill(0)
	for i := 0; i < 100; i++ {
		if a.Get(i) != 0 {
			t.Fatalf("field %d not cleared", i)
		}
	}
}

func TestClone(t *testing.T) {
	a := NewFieldArray(10, 9)
	a.Set(3, 300)
	b := a.Clone()
	b.Set(3, 42)
	if a.Get(3) != 300 {
		t.Fatal("Clone shares storage with original")
	}
	if b.Get(3) != 42 {
		t.Fatal("Clone lost write")
	}
}

func TestBits(t *testing.T) {
	a := NewFieldArray(10, 5)
	if len(a.words) != 1 {
		t.Fatalf("50 bits should fit in 1 word, got %d", len(a.words))
	}
	b := NewFieldArray(10, 7)
	if len(b.words) != 2 {
		t.Fatalf("70 bits should need 2 words, got %d", len(b.words))
	}
}

func TestZeroLength(t *testing.T) {
	a := NewFieldArray(0, 8)
	if a.Len() != 0 || len(a.words) != 0 {
		t.Fatal("zero-length array misreports size")
	}
}

func TestPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"width 0", func() { NewFieldArray(4, 0) }},
		{"width 65", func() { NewFieldArray(4, 65) }},
		{"negative n", func() { NewFieldArray(-1, 8) }},
		{"get oob", func() { NewFieldArray(4, 8).Get(4) }},
		{"get negative", func() { NewFieldArray(4, 8).Get(-1) }},
		{"set oob", func() { NewFieldArray(4, 8).Set(5, 0) }},
		{"set too wide", func() { NewFieldArray(4, 8).Set(0, 256) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestWidthFor(t *testing.T) {
	cases := []struct {
		max  uint64
		want uint
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 32, 33}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := WidthFor(c.max); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestWidthForRoundTrip(t *testing.T) {
	// Property: any v in [0, max] fits in WidthFor(max) bits.
	f := func(max uint64) bool {
		w := WidthFor(max)
		if w > 64 {
			return false
		}
		if w == 64 {
			return true
		}
		return max < (uint64(1) << w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	a := NewFieldArray(64, 5)
	for i := 0; i < b.N; i++ {
		a.Set(i%64, uint64(i)&31)
	}
}

func BenchmarkGet(b *testing.B) {
	a := NewFieldArray(64, 5)
	for i := 0; i < 64; i++ {
		a.Set(i, uint64(i)&31)
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += a.Get(i % 64)
	}
	_ = sink
}
