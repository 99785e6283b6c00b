package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"addrxlat/internal/faultinject"
	"addrxlat/internal/mm"
	"addrxlat/internal/obs"
)

// pipelineArtifacts runs one experiment under the given scale and renders
// every comparable artifact: the result table, and — when a recorder is
// attached — the sample-curve TSV and the explain TSV, exactly as
// cmd/figures writes them.
func pipelineArtifacts(t *testing.T, run func(Scale, uint64) (*Table, error), s Scale, seed uint64, rec *obs.Recorder) (table, curves, explainTSV string) {
	t.Helper()
	tab, err := run(s, seed)
	if err != nil {
		t.Fatalf("workers=%d seed=%d: %v", s.Workers, seed, err)
	}
	table = renderTSV(t, tab)
	if rec != nil {
		var c, e strings.Builder
		if err := rec.WriteTSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteExplainTSV(&e); err != nil {
			t.Fatal(err)
		}
		curves, explainTSV = c.String(), e.String()
	}
	return table, curves, explainTSV
}

// TestPipelinedMatchesSequential is the row executor's regression guard
// against an independent reference: for each probe mode (bare, -sample,
// -explain), several seeds and Workers ∈ {1, 4, GOMAXPROCS}, the table
// must equal the materialized reference (per-cell mm.RunWarm over the
// whole windows, fig1MaterializedTSV / crossoverMaterializedTSV), and the
// sample-curve and explain TSVs must be byte-identical across the Workers
// settings. Workers only changes when chunks are simulated, never what
// any simulator observes.
func TestPipelinedMatchesSequential(t *testing.T) {
	base := Scale{SpaceDiv: 4096, AccessDiv: 500} // ≥3 chunks per window: real lookahead
	experiments := []struct {
		name string
		run  func(Scale, uint64) (*Table, error)
		ref  func(*testing.T, Scale, uint64) string
	}{
		{"fig1a",
			func(s Scale, seed uint64) (*Table, error) { return Fig1(F1aBimodal, s, seed) },
			func(t *testing.T, s Scale, seed uint64) string { return fig1MaterializedTSV(t, F1aBimodal, s, seed) }},
		{"crossover", Crossover, crossoverMaterializedTSV},
	}
	workerSettings := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		workerSettings = append(workerSettings, n)
	}
	modes := []struct {
		name    string
		sample  bool
		explain bool
	}{
		{"bare", false, false},
		{"sample", true, false},
		{"explain", true, true},
	}

	for _, seed := range []uint64{1, 7, 42} {
		for _, e := range experiments {
			wantTab := e.ref(t, base, seed)
			for _, mode := range modes {
				var firstCurves, firstExplain string
				for k, w := range workerSettings {
					s := base
					s.Workers = w
					s.Lookahead = 2
					var rec *obs.Recorder
					if mode.sample {
						rec = obs.NewRecorder(50_000)
						s.Probe = rec
						s.Explain = mode.explain
					}
					gotTab, gotCurves, gotExplain := pipelineArtifacts(t, e.run, s, seed, rec)
					if gotTab != wantTab {
						t.Errorf("%s seed %d %s: table differs from the materialized reference at Workers=%d\ngot:\n%s\nreference:\n%s",
							e.name, seed, mode.name, w, gotTab, wantTab)
					}
					if k == 0 {
						firstCurves, firstExplain = gotCurves, gotExplain
						continue
					}
					if gotCurves != firstCurves {
						t.Errorf("%s seed %d %s: curves TSV differs between Workers=%d and Workers=%d\n%s\nvs\n%s",
							e.name, seed, mode.name, w, workerSettings[0], gotCurves, firstCurves)
					}
					if gotExplain != firstExplain {
						t.Errorf("%s seed %d %s: explain TSV differs between Workers=%d and Workers=%d\n%s\nvs\n%s",
							e.name, seed, mode.name, w, workerSettings[0], gotExplain, firstExplain)
					}
				}
			}
		}
	}
}

// TestPipelinedRaceSmoke is the `make check` race-detector smoke: one
// pipelined Fig1a row at Workers=4, lookahead=2, with sampling and
// attribution on, so every concurrent seam (ring publish/release, gate,
// probe delivery, phase clock) gets exercised under -race.
func TestPipelinedRaceSmoke(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4, Lookahead: 2, Explain: true}
	s.Probe = obs.NewRecorder(50_000)
	if _, err := Fig1(F1aBimodal, s, 1); err != nil {
		t.Fatal(err)
	}
}

// pipelineCancelProbe cancels the sweep as soon as any simulator reports
// its first measured-phase sample — mid-row, while every worker is in
// flight.
type pipelineCancelProbe struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (p *pipelineCancelProbe) RowSample(row, phase, alg string, c mm.Costs) {
	if phase == mm.PhaseMeasured {
		p.once.Do(p.cancel)
	}
}

func (p *pipelineCancelProbe) RowPhase(row, phase, alg string, accesses int, elapsed time.Duration) {
}

// TestPipelinedKillMidRow cancels a pipelined row from inside a probe
// callback and asserts the clean-drain contract: the row returns an error
// wrapping context.Canceled, no table is produced, and every goroutine
// the executor started (ring producer, watcher, per-sim workers) has
// exited.
func TestPipelinedKillMidRow(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4, Lookahead: 2, Ctx: ctx}
	s.Probe = &pipelineCancelProbe{cancel: cancel}

	tab, err := Fig1(F1aBimodal, s, 1)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if tab != nil {
		t.Fatal("canceled sweep still produced a table")
	}

	// All executor goroutines must drain — give the scheduler a moment,
	// then compare against the pre-run count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelinedPoisonedCell mirrors TestPoisonedCellFootnote on the
// pipelined executor: one worker's panic poisons only its own cell — the
// survivors keep streaming and the table degrades to a footnoted error
// row, byte-identical in every healthy cell to a clean run.
func TestPipelinedPoisonedCell(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4, Lookahead: 2}
	clean, err := Fig1(F1aBimodal, s, 7)
	if err != nil {
		t.Fatal(err)
	}

	defer faultinject.Disarm()
	if err := faultinject.Arm("cell-panic=(h=4"); err != nil {
		t.Fatal(err)
	}
	poisoned, err := Fig1(F1aBimodal, s, 7)
	faultinject.Disarm()
	if err != nil {
		t.Fatalf("poisoned cell must not fail the row: %v", err)
	}
	if len(poisoned.Notes) != 1 || !strings.Contains(poisoned.Notes[0], "h=4") {
		t.Fatalf("expected one h=4 footnote, got %v", poisoned.Notes)
	}
	errRows := 0
	for i, row := range poisoned.Rows {
		isErr := false
		for _, cell := range row {
			if cell == "error" {
				isErr = true
			}
		}
		if isErr {
			errRows++
			continue
		}
		for j, cell := range row {
			if clean.Rows[i][j] != cell {
				t.Errorf("healthy row %d cell %d changed: %q != %q", i, j, cell, clean.Rows[i][j])
			}
		}
	}
	if errRows != 1 {
		t.Fatalf("expected exactly 1 error row, got %d", errRows)
	}
}
