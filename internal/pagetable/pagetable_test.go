package pagetable

import (
	"testing"
	"testing/quick"

	"addrxlat/internal/hashutil"
)

func TestLevels(t *testing.T) {
	cases := []struct {
		vPages uint64
		want   int
	}{
		{1, 1},
		{512, 1},
		{513, 2},
		{1 << 18, 2},
		{1 << 19, 3}, // 19 bits -> ceil(19/9) = 3
		{1 << 27, 3},
		{1 << 28, 4},
		{1 << 36, 4},
	}
	for _, c := range cases {
		if got := New(c.vPages).levels; got != c.want {
			t.Errorf("New(%d).levels = %d, want %d", c.vPages, got, c.want)
		}
	}
}

func TestMapTranslateUnmap(t *testing.T) {
	pt := New(1 << 27)
	pairs := map[uint64]uint64{}
	r := hashutil.NewRNG(1)
	for i := 0; i < 5000; i++ {
		v := r.Uint64n(1 << 27)
		if _, dup := pairs[v]; dup {
			continue
		}
		phys := r.Uint64n(1 << 24)
		pt.Map(v, phys)
		pairs[v] = phys
	}
	if pt.Entries() != uint64(len(pairs)) {
		t.Fatalf("Entries = %d, want %d", pt.Entries(), len(pairs))
	}
	for v, want := range pairs {
		got, ok := pt.Translate(v)
		if !ok || got != want {
			t.Fatalf("Translate(%d) = %d,%v want %d", v, got, ok, want)
		}
	}
	// Unmapped pages must miss.
	misses := 0
	for i := 0; i < 1000; i++ {
		v := r.Uint64n(1 << 27)
		if _, mapped := pairs[v]; mapped {
			continue
		}
		if _, ok := pt.Translate(v); ok {
			t.Fatalf("Translate(%d) hit for unmapped page", v)
		}
		misses++
	}
	if misses == 0 {
		t.Fatal("test never exercised an unmapped page")
	}
	for v := range pairs {
		pt.Unmap(v)
	}
	if pt.Entries() != 0 {
		t.Fatalf("Entries = %d after full unmap", pt.Entries())
	}
}

func TestPhysZeroMappable(t *testing.T) {
	// Physical page 0 is a legal target (regression guard for the +1
	// sentinel encoding).
	pt := New(1024)
	pt.Map(5, 0)
	got, ok := pt.Translate(5)
	if !ok || got != 0 {
		t.Fatalf("Translate(5) = %d,%v want 0,true", got, ok)
	}
}

func TestDoubleMapPanics(t *testing.T) {
	pt := New(1024)
	pt.Map(7, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double map should panic")
		}
	}()
	pt.Map(7, 2)
}

func TestUnmapAbsentPanics(t *testing.T) {
	pt := New(1024)
	defer func() {
		if recover() == nil {
			t.Fatal("unmap of absent page should panic")
		}
	}()
	pt.Unmap(3)
}

func TestHugeMapping(t *testing.T) {
	pt := New(1 << 27) // 3 levels; node spans: 512^2, 512, 1
	// One level-1 huge mapping covering 512 pages, aligned.
	pt.MapHuge(512*3, 4096, 512)
	for off := uint64(0); off < 512; off += 37 {
		got, ok := pt.Translate(512*3 + off)
		if !ok || got != 4096+off {
			t.Fatalf("Translate(%d) = %d,%v want %d", 512*3+off, got, ok, 4096+off)
		}
	}
	if pt.Entries() != 512 {
		t.Fatalf("Entries = %d, want 512", pt.Entries())
	}
	pt.UnmapHuge(512*3, 512)
	if pt.Entries() != 0 {
		t.Fatalf("Entries = %d after UnmapHuge", pt.Entries())
	}
	if _, ok := pt.Translate(512 * 3); ok {
		t.Fatal("huge page still translates after unmap")
	}
}

func TestGiantHugeMapping(t *testing.T) {
	pt := New(1 << 27)
	span := uint64(512 * 512) // level-0 child
	pt.MapHuge(span*2, 0, span)
	got, ok := pt.Translate(span*2 + 99999)
	if !ok || got != 99999 {
		t.Fatalf("Translate = %d,%v want 99999", got, ok)
	}
	pt.UnmapHuge(span*2, span)
}

func TestHugeMappingAlignmentPanics(t *testing.T) {
	pt := New(1 << 27)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned huge map should panic")
		}
	}()
	pt.MapHuge(5, 0, 512)
}

func TestHugeMappingBadSpanPanics(t *testing.T) {
	pt := New(1 << 27)
	defer func() {
		if recover() == nil {
			t.Fatal("non-node span should panic")
		}
	}()
	pt.MapHuge(0, 0, 100)
}

func TestHugeOverlapPanics(t *testing.T) {
	pt := New(1 << 27)
	pt.Map(512*4+1, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("huge map over existing base map should panic")
		}
	}()
	pt.MapHuge(512*4, 0, 512)
}

func TestBaseUnderHugePanics(t *testing.T) {
	pt := New(1 << 27)
	pt.MapHuge(0, 0, 512)
	defer func() {
		if recover() == nil {
			t.Fatal("base map under huge mapping should panic")
		}
	}()
	pt.Map(3, 9)
}

func TestWalkAccounting(t *testing.T) {
	pt := New(1 << 27) // 3 levels
	pt.Map(12345, 1)
	pt.Translate(12345)
	if pt.Walks() != 1 {
		t.Fatalf("Walks = %d, want 1", pt.Walks())
	}
	if pt.NodeVisits() != 3 {
		t.Fatalf("NodeVisits = %d, want 3 (one per level)", pt.NodeVisits())
	}
	// Huge mappings shorten walks.
	pt2 := New(1 << 27)
	pt2.MapHuge(0, 0, 512*512)
	pt2.Translate(100)
	if pt2.NodeVisits() >= 3 {
		t.Fatalf("huge-mapping walk visited %d nodes, want < 3", pt2.NodeVisits())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	pt := New(1024) // 2 levels -> covers 512^2 pages
	limit := uint64(512 * 512)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access should panic")
		}
	}()
	pt.Map(limit, 0)
}

func TestPruning(t *testing.T) {
	// Mapping and unmapping must leave no leaked interior nodes: map a
	// page in a fresh subtree, unmap, and confirm root slot is nil again.
	pt := New(1 << 27)
	v := uint64(512 * 512 * 7)
	pt.Map(v, 1)
	if pt.root.children[pt.indexAt(v, 0)] == nil {
		t.Fatal("interior node missing after Map")
	}
	pt.Unmap(v)
	if pt.root.children[pt.indexAt(v, 0)] != nil {
		t.Fatal("interior node leaked after Unmap")
	}
	if pt.root.used != 0 {
		t.Fatalf("root.used = %d after drain", pt.root.used)
	}
}

func TestQuickMapUnmapTranslate(t *testing.T) {
	f := func(vs []uint32) bool {
		pt := New(1 << 27)
		mapped := map[uint64]uint64{}
		for i, raw := range vs {
			v := uint64(raw) % (1 << 27)
			if _, ok := mapped[v]; ok {
				pt.Unmap(v)
				delete(mapped, v)
			} else {
				pt.Map(v, uint64(i))
				mapped[v] = uint64(i)
			}
		}
		for v, want := range mapped {
			got, ok := pt.Translate(v)
			if !ok || got != want {
				return false
			}
		}
		return pt.Entries() == uint64(len(mapped))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTranslate(b *testing.B) {
	pt := New(1 << 27)
	r := hashutil.NewRNG(1)
	var vs []uint64
	for i := 0; i < 1<<16; i++ {
		v := r.Uint64n(1 << 27)
		if _, ok := pt.Translate(v); !ok {
			pt.Map(v, uint64(i))
			vs = append(vs, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Translate(vs[i%len(vs)])
	}
}
