package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"addrxlat/internal/experiments"
	"addrxlat/internal/mm"
	"addrxlat/internal/serve"
	"addrxlat/internal/workload"
	"addrxlat/internal/xtrace"
)

// layerProbe collects the row drivers' telemetry of one traced pass: the
// phase wall times, the chunk ring's backpressure counters, and the
// serving sweep's counters.
type layerProbe struct {
	mu                           sync.Mutex
	warmup, measured             time.Duration
	accesses                     int // summed over RowPhase reports
	producerWaits, consumerWaits int
	peakInFlight                 int
	// Serve counters summed over the sweep's points.
	offered, completed, shed, retries, timedOut, rejected uint64
	identityErr                                           error
}

func (p *layerProbe) RowSample(row, phase, alg string, c mm.Costs) {}

func (p *layerProbe) RowPhase(row, phase, alg string, accesses int, elapsed time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.accesses += accesses
	if phase == mm.PhaseWarmup {
		p.warmup += elapsed
	} else {
		p.measured += elapsed
	}
}

func (p *layerProbe) RowPipeline(row string, st workload.RingStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.producerWaits += st.ProducerWaits
	p.consumerWaits += st.ConsumerWaits
	p.peakInFlight = max(p.peakInFlight, st.PeakInFlight)
}

func (p *layerProbe) ServeSweep(rec serve.SweepRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pt := range rec.Points {
		c := pt.Counters
		if err := c.CheckIdentity(); err != nil && p.identityErr == nil {
			p.identityErr = fmt.Errorf("%s load=%g: %w", pt.Alg, pt.Load, err)
		}
		p.offered += c.Offered
		p.completed += c.Completed
		p.shed += c.Shed
		p.retries += c.Retries
		p.timedOut += c.TimedOutQueued + c.TimedOutServed
		p.rejected += c.RejectedQueue + c.RejectedThrottle
	}
}

var (
	_ experiments.PipelineProbe = (*layerProbe)(nil)
	_ experiments.ServeProbe    = (*layerProbe)(nil)
)

// spanTotals sums the exported trace's spans by what they mean for the
// executor: chunk service (busy) and the two kinds of waiting.
type spanTotals struct {
	busy, waitGen, waitAdmission float64 // seconds
}

func sumSpans(tr *xtrace.Tracer) (spanTotals, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return spanTotals{}, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return spanTotals{}, fmt.Errorf("trace export: %w", err)
	}
	var t spanTotals
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		d := e.Dur / 1e6
		switch {
		case e.Cat == xtrace.CatChunk:
			t.busy += d
		case e.Name == xtrace.WaitGeneration:
			t.waitGen += d
		case e.Name == xtrace.WaitAdmission:
			t.waitAdmission += d
		}
	}
	return t, nil
}

// tableCounts sums the counter columns of a finished table: IOs, TLB
// misses, decoding misses, and the decoupled scheme's allocation
// failures from the notes column.
func tableCounts(t *experiments.Table) map[string]float64 {
	col := map[string]string{"ios": "policy.ios", "tlb_misses": "tlb.misses", "decode_misses": "core.decode_misses"}
	out := map[string]float64{}
	for j, c := range t.Columns {
		for _, row := range t.Rows {
			if m, ok := col[c]; ok {
				if n, err := strconv.ParseUint(row[j], 10, 64); err == nil {
					out[m] += float64(n)
				}
			}
			if c == "notes" {
				for _, f := range strings.Fields(row[j]) {
					if v, ok := strings.CutPrefix(f, "failures="); ok {
						if n, err := strconv.ParseUint(v, 10, 64); err == nil {
							out["core.failures"] += float64(n)
						}
					}
				}
			}
		}
	}
	return out
}

// tracedPass runs one pass with the CPU profiler, the execution tracer
// and the layer probe armed.
type tracedPass struct {
	pass
	attr   attribution
	spans  spanTotals
	probe  *layerProbe
	counts map[string]float64
}

func (b *bench) tracedPass(s experiments.Scale, i int) (tracedPass, error) {
	tp := tracedPass{probe: &layerProbe{}}
	s.Probe = tp.probe
	tr := xtrace.New()
	var prof bytes.Buffer
	var profErr error
	tp.pass = b.timed(s, i, func() func() {
		xtrace.Install(tr)
		profErr = pprof.StartCPUProfile(&prof)
		return func() {
			if profErr == nil {
				pprof.StopCPUProfile()
			}
			xtrace.Install(nil)
		}
	})
	if profErr != nil {
		return tp, profErr
	}

	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return tp, err
	}
	tp.attr = p.attribute()
	if tp.spans, err = sumSpans(tr); err != nil {
		return tp, err
	}
	if tp.probe.identityErr != nil {
		b.problem("serve counter identity: %v", tp.probe.identityErr)
	}
	if tp.tab != nil {
		tp.counts = tableCounts(tp.tab)
	}
	return tp, nil
}

// genSeconds times generating the stream alone, in chunks through the
// generators' batch path.
func genSeconds(st stream) float64 {
	buf := make([]uint64, workload.DefaultChunk)
	start := time.Now()
	for _, g := range st.gens {
		for left := st.draws; left > 0; left -= len(buf) {
			workload.Fill(g, buf[:min(left, len(buf))])
		}
	}
	return time.Since(start).Seconds()
}

// traced alternates untraced and traced passes at the same seed, cycling
// through the run's seeds, until the budget would be exceeded (at least
// two of each), and reports the per-layer budget per pass. Every traced
// table must be byte-identical to the untraced one.
func (b *bench) traced(budget time.Duration) (result, error) {
	s := b.sp.scale(b.sp.accessDiv, b.cpus)
	var (
		bare, tracedWalls []float64
		passes            []tracedPass
	)
	deadline := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Add(secondsDur(median(bare)+median(tracedWalls))).Before(deadline); i++ {
		bare = append(bare, b.timed(s, i, nil).wall)
		tp, err := b.tracedPass(s, i)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, tp)
		tracedWalls = append(tracedWalls, tp.wall)
	}
	st, err := b.sp.stream(s, b.seeds[0])
	if err != nil {
		return result{}, err
	}
	gen := genSeconds(st)

	n := float64(len(passes))
	var total, slowest int64
	layers := map[string]int64{}
	var spans spanTotals
	// Counts stay present (as 0) on workloads whose tables lack them.
	vals := map[string]float64{"policy.ios": 0, "tlb.misses": 0, "core.decode_misses": 0, "core.failures": 0}
	for _, tp := range passes {
		total += tp.attr.total
		for l, v := range tp.attr.layerNanos {
			layers[l] += v
		}
		var top int64
		for _, v := range tp.attr.algNanos {
			top = max(top, v)
		}
		slowest += top
		spans.busy += tp.spans.busy
		spans.waitGen += tp.spans.waitGen
		spans.waitAdmission += tp.spans.waitAdmission
		pr := tp.probe
		if pr.accesses != st.reported {
			b.problem("the entry point reported %d accesses per pass, the stream mirrored for workload.gen_s %d", pr.accesses, st.reported)
		}
		vals["workload.ring_producer_waits"] += float64(pr.producerWaits) / n
		vals["workload.ring_consumer_waits"] += float64(pr.consumerWaits) / n
		vals["workload.ring_peak_in_flight"] = max(vals["workload.ring_peak_in_flight"], float64(pr.peakInFlight))
		vals["experiments.warmup_s"] += pr.warmup.Seconds() / n
		vals["experiments.measured_s"] += pr.measured.Seconds() / n
		vals["serve.offered"] += float64(pr.offered) / n
		vals["serve.completed"] += float64(pr.completed) / n
		vals["serve.shed"] += float64(pr.shed) / n
		vals["serve.retries"] += float64(pr.retries) / n
		vals["serve.timed_out"] += float64(pr.timedOut) / n
		vals["serve.rejected"] += float64(pr.rejected) / n
		for k, v := range tp.counts {
			vals[k] += v / n
		}
	}
	if total <= 0 {
		return result{}, fmt.Errorf("%s: the CPU profile recorded no samples", b.sp.name)
	}
	// Every sample lands in exactly one reported layer.
	var sum int64
	for _, l := range cpuLayers {
		sum += layers[l]
		vals[l+".cpu_s"] = float64(layers[l]) / 1e9 / n
	}
	if sum != total {
		b.problem("layer CPU %d ns != profiled CPU %d ns", sum, total)
	}
	vals["mm.slowest_alg_cpu_s"] = float64(slowest) / 1e9 / n
	vals["workload.gen_s"] = gen
	vals["experiments.wait_gen_s"] = spans.waitGen / n
	vals["experiments.wait_admission_s"] = spans.waitAdmission / n
	vals["experiments.busy_frac"] = frac(spans.busy, spans.busy+spans.waitGen+spans.waitAdmission)
	vals["serve.goodput_ratio"] = frac(vals["serve.completed"], vals["serve.offered"])
	vals["bench.profiled_cpu_s"] = float64(total) / 1e9 / n
	vals["bench.trace_overhead_frac"] = median(tracedWalls)/median(bare) - 1
	vals["bench.unattributed_frac"] = frac(float64(layers[layerRuntime]+layers[layerOther]), float64(total))

	r := b.result()
	return r, r.setMetrics(perLayer, vals)
}

// frac is num/den, or 0 where the layer did no work at all.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
