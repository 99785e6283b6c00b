package mm

import (
	"context"
	"testing"

	"addrxlat/internal/hashutil"
)

// collectSampler records every sample it receives.
type collectSampler struct {
	phases   []string
	algs     []string
	accesses []uint64
	costs    []Costs
}

func (s *collectSampler) Sample(phase, alg string, c Costs) {
	s.phases = append(s.phases, phase)
	s.algs = append(s.algs, alg)
	s.accesses = append(s.accesses, c.Accesses)
	s.costs = append(s.costs, c)
}

// sampleReqs draws the bimodal-ish request mix the other mm tests use.
func sampleReqs(n int) []uint64 {
	r := hashutil.NewRNG(99)
	reqs := make([]uint64, n)
	for i := range reqs {
		if r.Uint64n(100) < 90 {
			reqs[i] = r.Uint64n(1 << 10)
		} else {
			reqs[i] = r.Uint64n(1 << 15)
		}
	}
	return reqs
}

// runWarmChunks is the two-phase methodology on the chunked runner:
// warmup in every-sized chunks, counter reset, measured in every-sized
// chunks — how the experiment harness and atsim drive RunPhaseChunksCtx.
func runWarmChunks(ctx context.Context, a Algorithm, warm, meas []uint64, every int, s Sampler) (Costs, error) {
	if err := RunPhaseChunksCtx(ctx, a, SliceChunks(warm, every), s, PhaseWarmup, ""); err != nil {
		return a.Costs(), err
	}
	a.ResetCosts()
	err := RunPhaseChunksCtx(ctx, a, SliceChunks(meas, every), s, PhaseMeasured, "")
	return a.Costs(), err
}

// TestRunPhaseChunksCtxSampledMatchesRun pins the telemetry guarantee at the mm
// layer: feeding the request slice in sampled chunks leaves every
// algorithm's final counters identical to a single-batch Run, for every
// Algorithm implementation, with one sample per chunk.
func TestRunPhaseChunksCtxSampledMatchesRun(t *testing.T) {
	reqs := sampleReqs(30000)
	plain := allAlgorithms(t, 7)
	sampled := allAlgorithms(t, 7)
	for i := range plain {
		want := Run(plain[i], reqs)
		s := &collectSampler{}
		if err := RunPhaseChunksCtx(context.Background(), sampled[i], SliceChunks(reqs, 777), s, PhaseMeasured, ""); err != nil {
			t.Fatal(err)
		}
		if got := sampled[i].Costs(); got != want {
			t.Errorf("%s: sampled run differs: got %v want %v", plain[i].Name(), got, want)
		}
		wantSamples := (len(reqs) + 776) / 777
		if len(s.costs) != wantSamples {
			t.Errorf("%s: got %d samples, want %d", plain[i].Name(), len(s.costs), wantSamples)
		}
		last := s.costs[len(s.costs)-1]
		if last != want {
			t.Errorf("%s: final sample %v does not match final counters %v", plain[i].Name(), last, want)
		}
		for j := 1; j < len(s.accesses); j++ {
			if s.accesses[j] <= s.accesses[j-1] {
				t.Fatalf("%s: sample accesses not increasing: %d then %d", plain[i].Name(), s.accesses[j-1], s.accesses[j])
			}
		}
	}
}

// TestRunPhaseChunksCtxSampledMatchesRunWarm is the two-phase variant: identical
// counters to RunWarm, and samples labeled with both phases in order.
func TestRunPhaseChunksCtxSampledMatchesRunWarm(t *testing.T) {
	reqs := sampleReqs(40000)
	warm, meas := reqs[:20000], reqs[20000:]
	plain := allAlgorithms(t, 3)
	sampled := allAlgorithms(t, 3)
	for i := range plain {
		want := RunWarm(plain[i], warm, meas)
		s := &collectSampler{}
		got, err := runWarmChunks(context.Background(), sampled[i], warm, meas, 4096, s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: sampled warm run differs: got %v want %v", plain[i].Name(), got, want)
		}
		sawWarm, sawMeas := false, false
		for j, ph := range s.phases {
			switch ph {
			case PhaseWarmup:
				if sawMeas {
					t.Fatalf("%s: warmup sample after measured sample", plain[i].Name())
				}
				sawWarm = true
			case PhaseMeasured:
				sawMeas = true
			default:
				t.Fatalf("%s: unknown phase %q", plain[i].Name(), ph)
			}
			if s.algs[j] != plain[i].Name() {
				t.Fatalf("%s: sample attributed to %q", plain[i].Name(), s.algs[j])
			}
		}
		if !sawWarm || !sawMeas {
			t.Errorf("%s: phases warmup=%v measured=%v, want both", plain[i].Name(), sawWarm, sawMeas)
		}
	}
}

// TestRunPhaseChunksCtxNilSamplerIsRun checks the degenerate settings: a nil
// sampler still services every chunk, and every <= 0 runs the window as
// one chunk with exactly one sample.
func TestRunPhaseChunksCtxNilSamplerIsRun(t *testing.T) {
	reqs := sampleReqs(10000)
	want := Run(allAlgorithms(t, 1)[0], reqs)
	a := allAlgorithms(t, 1)[0]
	if err := RunPhaseChunksCtx(context.Background(), a, SliceChunks(reqs, 100), nil, PhaseMeasured, ""); err != nil {
		t.Fatal(err)
	}
	if got := a.Costs(); got != want {
		t.Errorf("nil sampler: got %v want %v", got, want)
	}
	c := allAlgorithms(t, 1)[0]
	s := &collectSampler{}
	if err := RunPhaseChunksCtx(context.Background(), c, SliceChunks(reqs, 0), s, PhaseMeasured, ""); err != nil {
		t.Fatal(err)
	}
	if got := c.Costs(); got != want {
		t.Errorf("every=0: got %v want %v", got, want)
	}
	if len(s.costs) != 1 {
		t.Errorf("every=0 produced %d samples, want 1", len(s.costs))
	}
}
