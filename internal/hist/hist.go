// Package hist provides a log-bucketed histogram over non-negative int64
// samples (the tracing layer records nanosecond durations). Buckets are
// HDR-style: every power-of-two octave is split into 2^subBits sub-buckets,
// so the relative quantile error is bounded by 1/2^subBits (~6.25%)
// regardless of magnitude, with a small fixed memory footprint and O(1)
// Observe. It is the percentile substrate for the per-chunk service-time
// columns of the timeline reports, and the same machinery the ROADMAP's
// discrete-event serving front-end needs for p50/p99/p999 latency curves.
//
// The package is zero-dependency and a leaf: anything may import it.
package hist

import (
	"fmt"
	"math/bits"
)

// subBits sub-divides each power-of-two octave into 2^subBits buckets,
// bounding the relative error of Quantile to 2^-subBits.
const subBits = 4

// numBuckets covers the full non-negative int64 range: values below
// 2^subBits map to exact unit buckets; each octave above contributes
// 2^subBits buckets up to bit 62.
const numBuckets = (64-subBits)<<subBits + (1 << subBits)

// H is a log-bucketed histogram. The zero value is ready to use. H is not
// safe for concurrent use; the tracing layer keeps one per worker and
// merges at analysis time.
type H struct {
	counts [numBuckets]uint32
	n      uint64
	min    int64
	max    int64
}

// bucketOf maps a non-negative value to its bucket index. Values below
// 2^subBits get exact unit buckets; above, the top subBits bits after the
// leading bit select the sub-bucket within the value's octave.
func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // index of the leading bit, ≥ subBits
	sub := int(v>>(uint(exp)-subBits)) & (1<<subBits - 1)
	return (exp-subBits)<<subBits + (1 << subBits) + sub
}

// bucketLow returns the smallest value mapping to bucket i — the
// conservative (under-reporting) representative Quantile answers with.
func bucketLow(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	i -= 1 << subBits
	exp := uint(i>>subBits) + subBits
	sub := int64(i & (1<<subBits - 1))
	return 1<<exp + sub<<(exp-subBits)
}

// Observe records one sample. Negative samples clamp to zero (durations
// measured across a clock step).
func (h *H) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.n++
}

// Count returns the number of recorded samples.
func (h *H) Count() uint64 { return h.n }

// Min returns the smallest recorded sample (0 when empty).
func (h *H) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *H) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns a value v such that at least q of the recorded samples
// are ≤ some value in v's bucket — the bucket's lower edge, clamped to the
// observed min/max so p0/p100 are exact. q is clamped to [0, 1]; an empty
// histogram returns 0.
func (h *H) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// rank: the 1-based index of the sample the quantile lands on, by the
	// nearest-rank definition.
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Reset returns h to its empty state for reuse, so a caller that needs
// one histogram per window (the serving metrics layer closes a window,
// extracts its quantiles, and starts the next) can recycle a single H
// instead of allocating per window. Aggregation across windows composes
// with Merge: merging per-window histograms reproduces exactly the
// histogram of the whole run (pinned by TestMergedWindowsEqualWholeRun).
func (h *H) Reset() { *h = H{} }

// Merge folds other into h. The merged histogram is exactly the histogram
// of the concatenated sample streams.
func (h *H) Merge(other *H) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
}

// String summarizes the distribution for debugging.
func (h *H) String() string {
	return fmt.Sprintf("hist{n=%d min=%d p50=%d p99=%d max=%d}",
		h.n, h.Min(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
}
