package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, each the median over the
// run's timed passes (setup_s over the run's set-ups).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mib", "MiB"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, each per pass (summed over the
// traced passes and divided by their number).
var perLayer = func() []metricDef {
	var m []metricDef
	for _, l := range cpuLayers {
		m = append(m, metricDef{l + ".cpu_s", "s"})
	}
	return append(m,
		metricDef{"mm.slowest_alg_cpu_s", "s"},
		metricDef{"workload.gen_s", "s"},
		metricDef{"workload.ring_producer_waits", "count"},
		metricDef{"workload.ring_consumer_waits", "count"},
		metricDef{"workload.ring_peak_in_flight", "count"},
		metricDef{"experiments.wait_gen_s", "s"},
		metricDef{"experiments.wait_admission_s", "s"},
		metricDef{"experiments.busy_frac", "ratio"},
		metricDef{"experiments.warmup_s", "s"},
		metricDef{"experiments.measured_s", "s"},
		metricDef{"policy.ios", "count"},
		metricDef{"tlb.misses", "count"},
		metricDef{"core.decode_misses", "count"},
		metricDef{"core.failures", "count"},
		metricDef{"serve.offered", "count"},
		metricDef{"serve.completed", "count"},
		metricDef{"serve.goodput_ratio", "ratio"},
		metricDef{"serve.shed", "count"},
		metricDef{"serve.retries", "count"},
		metricDef{"serve.timed_out", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"bench.profiled_cpu_s", "s"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
		metricDef{"bench.unattributed_frac", "ratio"},
	)
}()

// validateMetrics checks names and units against the result format and
// that no name repeats.
func validateMetrics(defs []metricDef) error {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q: want letters, digits, _ . - (at most 64, starting with a letter or digit)", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setMetrics fills r.Metrics from values, which must hold exactly the
// metrics in defs.
func (r *result) setMetrics(defs []metricDef, values map[string]float64) error {
	if len(values) != len(defs) {
		return fmt.Errorf("%d metric values for %d metrics", len(values), len(defs))
	}
	r.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s has no value", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
