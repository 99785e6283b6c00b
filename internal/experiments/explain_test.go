package experiments

import (
	"bytes"
	"testing"

	"addrxlat/internal/obs"
)

// TestExplainByteIdentical is the attribution regression guard: running
// the sweeps with Explain on (counters allocated in every algorithm,
// snapshots delivered at chunk boundaries) must produce byte-identical
// tables to running them bare, at several seeds. The explain counters
// are observation-only — any divergence means an instrumentation site
// mutated algorithm state or steered a branch. Two explain-armed runs
// must also write byte-identical explain files: a series is keyed by
// (row, phase, algorithm name), so two cells of one row sharing a name
// would overwrite each other in whatever order the workers finish.
func TestExplainByteIdentical(t *testing.T) {
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
		{"nested", Nested},
	}

	for _, seed := range []uint64{1, 7, 42} {
		for _, e := range experiments {
			bare, err := e.run(base, seed)
			if err != nil {
				t.Fatalf("%s seed %d (no explain): %v", e.name, seed, err)
			}
			want := renderTSV(t, bare)

			var explained []string
			for run := 0; run < 2; run++ {
				probed := base
				probed.Explain = true
				rec := obs.NewRecorder(50_000)
				probed.Probe = rec
				tab, err := e.run(probed, seed)
				if err != nil {
					t.Fatalf("%s seed %d (explain): %v", e.name, seed, err)
				}
				if got := renderTSV(t, tab); got != want {
					t.Errorf("%s seed %d: table changed with explain attached\nwith explain:\n%s\nwithout:\n%s",
						e.name, seed, got, want)
				}
				if !rec.HasExplain() {
					t.Errorf("%s seed %d: no attribution recorded", e.name, seed)
				}
				var buf bytes.Buffer
				if err := rec.WriteExplainTSV(&buf); err != nil {
					t.Fatal(err)
				}
				explained = append(explained, buf.String())
			}
			if explained[0] != explained[1] {
				t.Errorf("%s seed %d: two explain runs wrote different explain files:\n%s\nvs\n%s",
					e.name, seed, explained[0], explained[1])
			}
		}
	}
}

// TestExplainAccountsForCosts: the attribution must decompose the cost
// counters, not merely correlate with them — summed across the explain
// series of a phase, the IO and TLB-miss events must equal the simulator's
// Costs for algorithms with exact attribution (the Figure 1 hugepage
// family).
func TestExplainAccountsForCosts(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000}
	s.Explain = true
	rec := obs.NewRecorder(1)
	s.Probe = rec
	tab, err := Fig1(F1aBimodal, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	checked := 0
	for _, es := range rec.ExplainSnapshot() {
		if es.Phase != "measured" {
			continue
		}
		// The latest curve point of the matching series holds the phase's
		// final Costs for the same (row, phase, alg).
		for _, sr := range rec.SeriesSnapshot() {
			if sr.Row != es.Row || sr.Phase != es.Phase || sr.Alg != es.Alg || len(sr.Points) == 0 {
				continue
			}
			last := sr.Points[len(sr.Points)-1]
			if got, want := es.Counters.IOs(), last.IOs; got != want {
				t.Errorf("%s/%s: attributed IOs %d != costs %d", es.Row, es.Alg, got, want)
			}
			if got, want := es.Counters.TLBMisses(), last.TLBMisses; got != want {
				t.Errorf("%s/%s: attributed TLB misses %d != costs %d", es.Row, es.Alg, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no (explain, curve) series pairs to compare")
	}
}
