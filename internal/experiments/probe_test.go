package experiments

import (
	"testing"

	"addrxlat/internal/obs"
)

// TestSampledRunsByteIdentical is the telemetry regression guard: running
// the sweeps with a Probe attached must produce byte-identical tables to
// running them bare, at several seeds. The probe only observes counters at
// chunk boundaries, and chunking an AccessBatch changes no state
// transitions (the AccessBatch contract), so any divergence here means a hook
// leaked into the access path.
func TestSampledRunsByteIdentical(t *testing.T) {
	base := Scale{SpaceDiv: 4096, AccessDiv: 10000}

	experiments := []struct {
		name string
		run  func(Scale, uint64) (*Table, error)
	}{
		{"fig1a", func(s Scale, seed uint64) (*Table, error) { return Fig1(F1aBimodal, s, seed) }},
		{"crossover", Crossover},
		{"related", Related},
		{"geometry", TLBGeometryStudy},
		{"adaptive", Adaptive},
	}

	for _, seed := range []uint64{1, 7, 42} {
		for _, e := range experiments {
			bare, err := e.run(base, seed)
			if err != nil {
				t.Fatalf("%s seed %d (no probe): %v", e.name, seed, err)
			}
			want := renderTSV(t, bare)

			probed := base
			rec := obs.NewRecorder(50_000)
			probed.Probe = rec
			tab, err := e.run(probed, seed)
			if err != nil {
				t.Fatalf("%s seed %d (probe): %v", e.name, seed, err)
			}
			if got := renderTSV(t, tab); got != want {
				t.Errorf("%s seed %d: table changed with probe attached\nwith probe:\n%s\nwithout:\n%s",
					e.name, seed, got, want)
			}
			if !rec.HasSeries() {
				t.Errorf("%s seed %d: probe recorded no series", e.name, seed)
			}
			if len(rec.Phases()) == 0 {
				t.Errorf("%s seed %d: probe recorded no phase records", e.name, seed)
			}
		}
	}
}

// TestProbeSeesBothPhases: the streaming rows must report warmup and
// measured windows separately, with warmup counters reset away.
func TestProbeSeesBothPhases(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000}
	rec := obs.NewRecorder(1) // record every chunk-boundary sample
	s.Probe = rec
	if _, err := Fig1(F1aBimodal, s, 1); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	for _, sr := range rec.SeriesSnapshot() {
		phases[sr.Phase] = true
		for _, p := range sr.Points {
			if p.Accesses == 0 {
				t.Fatalf("series %s/%s has a zero-access point", sr.Phase, sr.Alg)
			}
		}
	}
	if !phases["warmup"] || !phases["measured"] {
		t.Fatalf("phases seen = %v, want warmup and measured", phases)
	}
}
