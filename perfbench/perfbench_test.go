package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"addrxlat/internal/experiments"
)

func TestStackLayer(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"innermost addrxlat frame wins",
			[]string{"addrxlat/internal/core.Decode", "addrxlat/internal/mm.(*Decoupled).AccessBatch"}, "core"},
		{"runtime helper goes to its caller",
			[]string{"runtime.duffcopy", "addrxlat/internal/core.(*Scheme).Lookup", "addrxlat/internal/mm.(*Decoupled).AccessBatch"}, "core"},
		{"allocation goes to its caller",
			[]string{"runtime.mallocgc", "runtime.makeslice", "addrxlat/internal/dense.NewTable", "addrxlat/internal/mm.NewHugePage"}, "dense"},
		{"RNG goes to the layer that draws",
			[]string{"addrxlat/internal/hashutil.(*RNG).Uint64n", "addrxlat/internal/workload.(*GraphWalk).Next"}, "workload"},
		{"RNG seeding goes to the caller",
			[]string{"addrxlat/internal/hashutil.NewRNG", "addrxlat/internal/serve.New"}, "serve"},
		{"hashing other than RNG is hashutil",
			[]string{"addrxlat/internal/hashutil.Mix64", "addrxlat/internal/hashutil.(*Family).At", "addrxlat/internal/core.(*IcebergAllocator).Decode"}, "hashutil"},
		{"recency stack",
			[]string{"addrxlat/internal/policy.(*RecencyStack).AccessShifted", "addrxlat/internal/mm.(*HugePage).AccessBatch"}, "policy.stack"},
		{"recency stack closure",
			[]string{"addrxlat/internal/policy.(*RecencyStack).AccessShifted.func1"}, "policy.stack"},
		{"dense LRU",
			[]string{"addrxlat/internal/policy.(*DenseLRU).unlink", "addrxlat/internal/policy.(*DenseLRU).AccessSlot"}, "policy.lru"},
		{"sweep pool folds into experiments",
			[]string{"addrxlat/internal/parallel.ForEachCtx.func1"}, "experiments"},
		{"serve metrics fold into serve",
			[]string{"addrxlat/internal/metrics.(*Collector).Observe"}, "serve"},
		{"package outside the layer map",
			[]string{"addrxlat/internal/graph500.Generate"}, layerOther},
		{"no addrxlat frame is runtime",
			[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerRuntime},
		{"RNG alone is runtime",
			[]string{"addrxlat/internal/hashutil.(*RNG).Uint64"}, layerRuntime},
		{"benchmark frames are runtime",
			[]string{"crypto/sha256.block", "main.checkTable", "main.(*bench).runPass"}, layerRuntime},
		{"empty stack is runtime", nil, layerRuntime},
	}
	for _, c := range cases {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("%s: stackLayer(%q) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

func TestAttributeAccountsForEverySample(t *testing.T) {
	p := &cpuProfile{samples: []cpuSample{
		{stack: []string{"addrxlat/internal/tlb.(*TLB).LookupHit"}, nanos: 10_000_000, labels: map[string]string{"addrxlat_alg": "thp"}},
		{stack: []string{"runtime.duffcopy", "addrxlat/internal/core.Decode"}, nanos: 20_000_000, labels: map[string]string{"addrxlat_alg": "decoupled"}},
		{stack: []string{"addrxlat/internal/core.Decode"}, nanos: 20_000_000, labels: map[string]string{"addrxlat_alg": "decoupled"}},
		{stack: []string{"runtime.gcDrain"}, nanos: 5_000_000},
		{stack: []string{"addrxlat/internal/journal.(*Journal).Append"}, nanos: 1_000_000},
	}}
	a := p.attribute()
	if a.total != 56_000_000 {
		t.Fatalf("total = %d", a.total)
	}
	var sum int64
	for _, l := range cpuLayers {
		sum += a.layerNanos[l]
	}
	if sum != a.total {
		t.Errorf("layers sum to %d, want %d", sum, a.total)
	}
	want := map[string]int64{"tlb": 10_000_000, "core": 40_000_000, layerRuntime: 5_000_000, layerOther: 1_000_000}
	for l, n := range want {
		if a.layerNanos[l] != n {
			t.Errorf("layer %s = %d, want %d", l, a.layerNanos[l], n)
		}
	}
	if a.algNanos["decoupled"] != 40_000_000 || a.algNanos["thp"] != 10_000_000 {
		t.Errorf("per-algorithm CPU = %v", a.algNanos)
	}
}

//go:noinline
func burn(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// TestParseCPUProfile decodes a real runtime/pprof profile: samples,
// symbolized stacks and string labels.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("addrxlat_alg", "burner"), func(context.Context) {
		sink = burn(400 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, labeled int64
	for _, s := range p.samples {
		total += s.nanos
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".burn") && s.labels["addrxlat_alg"] == "burner" {
				labeled += s.nanos
				break
			}
		}
	}
	if total <= 0 || labeled <= 0 {
		t.Fatalf("profile of %d samples: %d ns total, %d ns in labeled burn", len(p.samples), total, labeled)
	}
	if labeled < total/2 {
		t.Errorf("only %d of %d ns attributed to the labeled burn loop", labeled, total)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("parsed garbage")
	}
}

func TestMetricNames(t *testing.T) {
	if err := validateMetrics(endToEnd); err != nil {
		t.Error(err)
	}
	if err := validateMetrics(perLayer); err != nil {
		t.Error(err)
	}
	if err := validateMetrics(append(append([]metricDef{}, endToEnd...), perLayer...)); err != nil {
		t.Error("end-to-end and per-layer names overlap:", err)
	}
	for _, bad := range []metricDef{
		{"", "s"}, {"_wall", "s"}, {".wall", "s"}, {"wall s", "s"}, {"wall/s", "s"}, {"wäll", "s"},
		{strings.Repeat("a", 65), "s"}, {"wall", ""}, {"wall", "seconds per op!"}, {"wall", strings.Repeat("s", 17)},
	} {
		if validateMetrics([]metricDef{bad}) == nil {
			t.Errorf("accepted %q [%q]", bad.name, bad.unit)
		}
	}
	for _, good := range []metricDef{{"wall_s", "s"}, {"policy.stack.cpu_s", "s"}, {"9-lives", "1/s"}, {strings.Repeat("a", 64), "%"}} {
		if err := validateMetrics([]metricDef{good}); err != nil {
			t.Error(err)
		}
	}
	if validateMetrics([]metricDef{{"wall_s", "s"}, {"wall_s", "s"}}) == nil {
		t.Error("accepted a repeated name")
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestDigestsFormat checks that digests.json is byte for byte what
// -mode digests prints for its contents.
func TestDigestsFormat(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(out, '\n'), digestsJSON) {
		t.Error("digests.json is not in the format -mode digests prints")
	}
}

func TestDigestsCoverDefaultSeeds(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, n := range defaultSeeds {
			for _, seed := range inputSeeds(n) {
				for _, size := range []string{"floor", fmt.Sprintf("ad=%d", sp.accessDiv)} {
					if d[digestKey(sp.name, size, seed)] == "" {
						t.Errorf("no digest for %s", digestKey(sp.name, size, seed))
					}
				}
			}
		}
	}
}

// TestSmokeFloor runs every workload at floor length through the digest
// check, then through the invariant check at a seed without a digest,
// and checks that a wrong digest fails every cell.
func TestSmokeFloor(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			b := &bench{sp: sp, cpus: maxProcs, digests: d}
			p := b.runPass(sp.scale(floorAccessDiv, maxProcs), 8, nil)
			b.check(&p, "floor")
			if p.table.problem != "" || p.table.failed != 0 || p.table.cells != sp.rows {
				t.Fatalf("floor pass: %d/%d cells failed: %s", p.table.failed, p.table.cells, p.table.problem)
			}
			if want := d[digestKey(sp.name, "floor", 8)]; p.table.digest != want {
				t.Fatalf("digest %s, want %s", p.table.digest, want)
			}
			if r := checkTable(sp, p.tab, strings.Repeat("0", 64)); r.failed != sp.rows || r.problem == "" {
				t.Errorf("wrong digest: %d/%d cells failed, problem %q", r.failed, r.cells, r.problem)
			}

			p = b.runPass(sp.scale(floorAccessDiv, maxProcs), 123457, nil)
			if b.check(&p, "floor"); p.table.problem != "" || p.table.failed != 0 {
				t.Errorf("invariants at seed 123457: %d cells failed: %s", p.table.failed, p.table.problem)
			}
		})
	}
}

func TestInvariantsCatchBrokenTables(t *testing.T) {
	sv, err := lookupSpec("sv-overload")
	if err != nil {
		t.Fatal(err)
	}
	tab := &experiments.Table{
		Name:    experiments.ServeGoodputID,
		Columns: []string{"offered_load", "alg", "admitted", "completed", "shed", "timed_out"},
	}
	for i := 0; i < sv.rows; i++ {
		tab.AddRow(0.5, "hugepage(h=1)", 10, 7, 2, 1)
	}
	if r := checkTable(sv, tab, ""); r.problem != "" {
		t.Fatalf("clean table: %s", r.problem)
	}
	tab.Rows[3][3] = "6"
	if r := checkTable(sv, tab, ""); r.failed != sv.rows || !strings.Contains(r.problem, "admitted") {
		t.Errorf("broken identity: %d cells failed, problem %q", r.failed, r.problem)
	}

	f1a, err := lookupSpec("f1a-hot")
	if err != nil {
		t.Fatal(err)
	}
	tab = &experiments.Table{Name: "f1a-bimodal", Columns: []string{"huge_page_size", "ios"}}
	for h := 1; h <= 1024; h *= 2 {
		tab.AddRow(h, 5)
	}
	if r := checkTable(f1a, tab, ""); r.problem != "" {
		t.Fatalf("clean table: %s", r.problem)
	}
	tab.Rows[2] = []string{"4", "error"}
	tab.AddNote("cell h=4 failed: boom")
	if r := checkTable(f1a, tab, ""); r.failed != f1a.rows || !strings.Contains(r.problem, "footnote") {
		t.Errorf("error row: %d cells failed, problem %q", r.failed, r.problem)
	}
	tab.Rows = tab.Rows[:5]
	if r := checkTable(f1a, tab, ""); !strings.Contains(r.problem, "rows") {
		t.Errorf("short table: problem %q", r.problem)
	}
}

// TestStreamMirror checks, at floor length, that the access counts the
// entry points report to Probe.RowPhase match the mirrored streams.
func TestStreamMirror(t *testing.T) {
	for _, sp := range specs {
		s := sp.scale(floorAccessDiv, maxProcs)
		pr := &layerProbe{}
		s.Probe = pr
		if _, err := sp.run(s, 3); err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		st, err := sp.stream(s, 3)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if pr.accesses != st.reported || st.reported == 0 {
			t.Errorf("%s: entry point reported %d accesses, mirror %d", sp.name, pr.accesses, st.reported)
		}
	}
}
