package hist

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSmallValuesExact: values below 2^subBits land in unit buckets, so
// quantiles over small samples are exact.
func TestSmallValuesExact(t *testing.T) {
	var h H
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	if h.Count() != 16 {
		t.Fatalf("count = %d, want 16", h.Count())
	}
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7 (the 8th smallest by nearest rank)", got)
	}
	if h.Min() != 0 || h.Max() != 15 {
		t.Errorf("min/max = %d/%d, want 0/15", h.Min(), h.Max())
	}
}

// TestBucketEdges: bucketLow(bucketOf(v)) ≤ v with relative error bounded
// by 2^-subBits, across magnitudes.
func TestBucketEdges(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1 << 62} {
		b := bucketOf(v)
		low := bucketLow(b)
		if low > v {
			t.Errorf("bucketLow(bucketOf(%d)) = %d > value", v, low)
		}
		if v >= 16 && float64(v-low)/float64(v) > 1.0/(1<<subBits) {
			t.Errorf("value %d: bucket low %d further than %g relative", v, low, 1.0/(1<<subBits))
		}
		// The next bucket must start above v.
		if b+1 < numBuckets && bucketLow(b+1) <= v {
			t.Errorf("value %d: next bucket already starts at %d", v, bucketLow(b+1))
		}
	}
}

// TestQuantileError: against an exact sorted reference, every quantile is
// within the documented 2^-subBits relative error (and never above the
// true value by construction: the lower bucket edge is reported).
func TestQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h H
	samples := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1_000_000_000) // up to 1s in ns
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*float64(len(samples)) + 0.5)
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		got := h.Quantile(q)
		if got > exact {
			t.Errorf("q=%g: histogram answer %d above exact %d", q, got, exact)
		}
		if rel := float64(exact-got) / float64(exact); rel > 1.0/(1<<subBits) {
			t.Errorf("q=%g: relative error %.4f beyond bound %.4f (got %d, exact %d)",
				q, rel, 1.0/(1<<subBits), got, exact)
		}
	}
}

// TestMerge: merging equals observing the concatenated stream.
func TestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, b, all H
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merged summary differs: %v vs %v", a.String(), all.String())
	}
	for _, q := range []float64{0.1, 0.5, 0.99, 0.999} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("q=%g: merged %d != direct %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

// TestMergedWindowsEqualWholeRun is the window→total aggregation
// property the serving metrics layer relies on: split a sample stream
// into fixed-width windows, record each window into one reusable
// histogram (Reset between windows, as the metrics collector does),
// merge the per-window histograms, and the result answers every
// quantile exactly as a single whole-run histogram would — which is in
// turn within the documented 2^-subBits (≤ 6.25%) relative error of the
// exact sorted-sample quantile.
func TestMergedWindowsEqualWholeRun(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const windows, perWindow = 37, 271
	var whole, merged, win H
	samples := make([]int64, 0, windows*perWindow)
	for w := 0; w < windows; w++ {
		win.Reset()
		for i := 0; i < perWindow; i++ {
			// A shifting mixture so windows have genuinely different
			// distributions, like a serving run drifting into overload.
			v := rng.Int63n(1_000_000) + int64(w)*50_000
			samples = append(samples, v)
			whole.Observe(v)
			win.Observe(v)
		}
		merged.Merge(&win)
	}
	if merged.Count() != whole.Count() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged summary differs: %v vs %v", merged.String(), whole.String())
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		m, w := merged.Quantile(q), whole.Quantile(q)
		if m != w {
			t.Errorf("q=%g: merged-windows %d != whole-run %d", q, m, w)
		}
		rank := int(q*float64(len(samples)) + 0.5)
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		if m > exact {
			t.Errorf("q=%g: histogram answer %d above exact %d", q, m, exact)
		}
		if exact > 0 {
			if rel := float64(exact-m) / float64(exact); rel > 1.0/(1<<subBits) {
				t.Errorf("q=%g: relative error %.4f beyond bound %.4f (got %d, exact %d)",
					q, rel, 1.0/(1<<subBits), m, exact)
			}
		}
	}
}

// TestReset: a Reset histogram is indistinguishable from a fresh zero
// value, including min/max tracking on reuse.
func TestReset(t *testing.T) {
	var h H
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000)
	}
	h.Reset()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("Reset left state behind: %s", h.String())
	}
	h.Observe(7)
	if h.Min() != 7 || h.Max() != 7 || h.Count() != 1 {
		t.Fatalf("reuse after Reset broken: %s", h.String())
	}
}

// TestEmptyAndNegative: the zero histogram answers zeros; negative samples
// clamp instead of corrupting bucket indexing.
func TestEmptyAndNegative(t *testing.T) {
	var h H
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must answer zeros")
	}
	h.Observe(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample not clamped: %s", h.String())
	}
}
