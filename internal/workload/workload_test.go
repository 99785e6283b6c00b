package workload

import (
	"math"
	"sort"
	"testing"

	"addrxlat/internal/hashutil"
)

func TestTake(t *testing.T) {
	g, err := NewSequential(10)
	if err != nil {
		t.Fatal(err)
	}
	got := Take(g, 12)
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Take = %v, want %v", got, want)
		}
	}
}

func TestBimodalErrors(t *testing.T) {
	if _, err := NewBimodal(0, 10, 0.5, 1); err == nil {
		t.Error("hot=0 should error")
	}
	if _, err := NewBimodal(20, 10, 0.5, 1); err == nil {
		t.Error("hot>total should error")
	}
	if _, err := NewBimodal(5, 10, 1.5, 1); err == nil {
		t.Error("prob>1 should error")
	}
	if _, err := NewBimodal(5, 10, -0.1, 1); err == nil {
		t.Error("prob<0 should error")
	}
}

func TestBimodalDistribution(t *testing.T) {
	const hot = 1000
	const total = 100000
	const prob = 0.99
	g, err := NewBimodal(hot, total, prob, 42)
	if err != nil {
		t.Fatal(err)
	}
	start, length := g.HotRange()
	if length != hot || start+length > total {
		t.Fatalf("hot range [%d,%d) outside space", start, start+length)
	}
	const n = 200000
	inHot := 0
	for i := 0; i < n; i++ {
		v := g.Next()
		if v >= total {
			t.Fatalf("page %d outside space", v)
		}
		if v >= start && v < start+length {
			inHot++
		}
	}
	frac := float64(inHot) / n
	// Hot fraction ≈ prob + (1-prob)*hot/total ≈ 0.99001.
	if math.Abs(frac-prob) > 0.01 {
		t.Fatalf("hot fraction = %v, want ≈ %v", frac, prob)
	}
}

func TestBimodalDeterminism(t *testing.T) {
	a, _ := NewBimodal(100, 10000, 0.9, 7)
	b, _ := NewBimodal(100, 10000, 0.9, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestGraphWalkErrors(t *testing.T) {
	if _, err := NewGraphWalk(0, 0.01, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewGraphWalk(100, 0, 1); err == nil {
		t.Error("alpha=0 should error")
	}
	if _, err := NewGraphWalk(100, -1, 1); err == nil {
		t.Error("alpha<0 should error")
	}
}

func TestGraphWalkProperties(t *testing.T) {
	const total = 1 << 16
	g, err := NewGraphWalk(total, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree() != 16 {
		t.Fatalf("OutDegree = %d, want log2(%d) = 16", g.OutDegree(), total)
	}
	counts := map[uint64]int{}
	for i := 0; i < 200000; i++ {
		v := g.Next()
		if v >= total {
			t.Fatalf("page %d outside space", v)
		}
		counts[v]++
	}
	// Pareto with α=0.01 is extremely heavy-tailed; low-index pages should
	// be visited far more often than high-index pages on average.
	lowSum, highSum := 0, 0
	for v, c := range counts {
		if v < total/10 {
			lowSum += c
		} else if v >= total*9/10 {
			highSum += c
		}
	}
	if lowSum <= highSum {
		t.Fatalf("low-index visits %d not above high-index %d — Pareto skew missing", lowSum, highSum)
	}
}

func TestGraphWalkEdgeConsistency(t *testing.T) {
	// The lazily-materialized graph must be consistent: the same (node,
	// edge) pair always leads to the same destination.
	g, _ := NewGraphWalk(1<<12, 0.01, 9)
	d1 := g.destination(42, 3)
	d2 := g.destination(42, 3)
	if d1 != d2 {
		t.Fatal("edge destinations not deterministic")
	}
	if d1 >= 1<<12 {
		t.Fatalf("destination %d outside space", d1)
	}
}

// TestGraphWalkStreamIdentity pins the walk to the per-step Pareto
// formula, which recomputes F(N+1) and −1/α on every draw: Next and
// NextBatch, in uneven chunks, must emit exactly the reference stream.
func TestGraphWalkStreamIdentity(t *testing.T) {
	for _, c := range []struct {
		total uint64
		alpha float64
	}{{1 << 21, 0.01}, {1 << 18, 0.01}, {1000, 0.5}, {7, 2}, {1, 0.01}} {
		for seed := uint64(1); seed <= 3; seed++ {
			ref, _ := NewGraphWalk(c.total, c.alpha, seed)
			want := make([]uint64, 50000)
			for i := range want {
				v := ref.current
				h := hashutil.Hash64(ref.edgeSeed+uint64(ref.rng.Intn(ref.outDegree)), v)
				u := float64(h>>11) / (1 << 53)
				fMax := 1 - math.Pow(float64(c.total)+1, -c.alpha)
				next := uint64(math.Pow(1-u*fMax, -1/c.alpha)) - 1
				if next >= c.total {
					next = c.total - 1
				}
				ref.current = next
				want[i] = v
			}

			g, _ := NewGraphWalk(c.total, c.alpha, seed)
			got := make([]uint64, len(want))
			rng := hashutil.NewRNG(seed)
			for lo := 0; lo < len(got); {
				hi := min(lo+1+rng.Intn(700), len(got))
				if hi-lo < 3 {
					for i := lo; i < hi; i++ {
						got[i] = g.Next()
					}
				} else {
					g.NextBatch(got[lo:hi])
				}
				lo = hi
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("N=%d α=%v seed=%d: step %d emits %d, per-step formula %d",
						c.total, c.alpha, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestUniform(t *testing.T) {
	if _, err := NewUniform(0, 1); err == nil {
		t.Error("n=0 should error")
	}
	g, _ := NewUniform(1000, 5)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := g.Next()
		if v >= 1000 {
			t.Fatalf("page %d outside space", v)
		}
		buckets[v/100]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from uniform", i, c)
		}
	}
}

func TestSequentialAndStrided(t *testing.T) {
	if _, err := NewSequential(0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewStrided(0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewStrided(10, 0); err == nil {
		t.Error("stride=0 should error")
	}
	s, _ := NewStrided(100, 7)
	prev := s.Next()
	for i := 0; i < 50; i++ {
		v := s.Next()
		if v != (prev+7)%100 {
			t.Fatalf("stride broken: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1.1, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewZipf(10, 0, 1); err == nil {
		t.Error("s=0 should error")
	}
}

func TestZipfDistribution(t *testing.T) {
	const n = 1000
	g, err := NewZipf(n, 1.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	const samples = 500000
	for i := 0; i < samples; i++ {
		v := g.Next()
		if v >= n {
			t.Fatalf("value %d outside range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate; counts must be roughly decreasing in rank.
	if counts[0] < counts[10] {
		t.Fatalf("rank 0 count %d below rank 10 count %d", counts[0], counts[10])
	}
	// Check the s exponent roughly: count(1)/count(10) ≈ 10^1.2 / ... use
	// ratio count[0]/count[9] ≈ (10/1)^1.2 ≈ 15.8; allow wide tolerance.
	ratio := float64(counts[0]) / math.Max(1, float64(counts[9]))
	if ratio < 5 || ratio > 50 {
		t.Fatalf("zipf head ratio = %v, want ≈ 15.8", ratio)
	}
	// Sanity: most mass in the head.
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	head := 0
	for _, c := range sorted[:100] {
		head += c
	}
	if float64(head)/samples < 0.5 {
		t.Fatalf("top-100 mass = %v, want > 0.5 for s=1.2", float64(head)/samples)
	}
}

func TestZipfSEqualOne(t *testing.T) {
	g, err := NewZipf(100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if v := g.Next(); v >= 100 {
			t.Fatalf("value %d outside range", v)
		}
	}
}

func TestNames(t *testing.T) {
	bm, _ := NewBimodal(10, 100, 0.9, 1)
	gw, _ := NewGraphWalk(100, 0.01, 1)
	un, _ := NewUniform(100, 1)
	se, _ := NewSequential(100)
	st, _ := NewStrided(100, 2)
	zf, _ := NewZipf(100, 1.1, 1)
	for _, g := range []Generator{bm, gw, un, se, st, zf} {
		if g.Name() == "" {
			t.Errorf("%T has empty name", g)
		}
	}
}

func BenchmarkBimodal(b *testing.B) {
	g, _ := NewBimodal(1<<18, 1<<24, 0.9999, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkGraphWalk(b *testing.B) {
	g, _ := NewGraphWalk(1<<24, 0.01, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkZipf(b *testing.B) {
	g, _ := NewZipf(1<<24, 1.1, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
