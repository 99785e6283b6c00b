package mm

import (
	"context"
	"errors"
	"testing"
)

// TestRunPhaseChunksCtxMatchesRunWarm pins the chunked runner's counter
// guarantee: with a live context and no sampler it is byte-identical to
// RunWarm for every Algorithm implementation, despite the chunked
// feeding.
func TestRunPhaseChunksCtxMatchesRunWarm(t *testing.T) {
	reqs := sampleReqs(40000)
	warm, meas := reqs[:20000], reqs[20000:]
	plain := allAlgorithms(t, 3)
	chunked := allAlgorithms(t, 3)
	for i := range plain {
		want := RunWarm(plain[i], warm, meas)
		got, err := runWarmChunks(context.Background(), chunked[i], warm, meas, 1<<12, nil)
		if err != nil {
			t.Fatalf("%s: %v", plain[i].Name(), err)
		}
		if got != want {
			t.Errorf("%s: ctx run differs: got %v want %v", plain[i].Name(), got, want)
		}
	}
}

// cancelAfter cancels its context once it has seen n samples.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Sample(string, string, Costs) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
}

// TestRunPhaseChunksCtxCanceled verifies cancellation stops the run at a
// chunk boundary with the context's error: a pre-canceled context
// services nothing, and a cancel after the third chunk leaves exactly
// three chunks' worth of accesses on the counters.
func TestRunPhaseChunksCtxCanceled(t *testing.T) {
	reqs := sampleReqs(10000)
	a := allAlgorithms(t, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := runWarmChunks(ctx, a, reqs, reqs, 1000, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Accesses != 0 {
		t.Fatalf("pre-canceled run serviced %d accesses", c.Accesses)
	}

	b := allAlgorithms(t, 1)[0]
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	err = RunPhaseChunksCtx(ctx, b, SliceChunks(reqs, 1000), &cancelAfter{n: 3, cancel: cancel}, PhaseMeasured, "")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if got := b.Costs().Accesses; got != 3000 {
		t.Fatalf("mid-run cancel serviced %d accesses, want 3000 (three chunks)", got)
	}
}

// TestRunPhaseChunksCtxSamplesPerChunk verifies sampling fires once per chunk.
func TestRunPhaseChunksCtxSamplesPerChunk(t *testing.T) {
	reqs := sampleReqs(10000)
	a := allAlgorithms(t, 1)[0]
	s := &collectSampler{}
	if err := RunPhaseChunksCtx(context.Background(), a, SliceChunks(reqs, 1000), s, PhaseMeasured, ""); err != nil {
		t.Fatal(err)
	}
	if len(s.costs) != 10 {
		t.Fatalf("got %d samples, want 10", len(s.costs))
	}
	for j, n := range s.accesses {
		if want := uint64(1000 * (j + 1)); n != want {
			t.Fatalf("sample %d at %d accesses, want %d", j, n, want)
		}
	}
}
