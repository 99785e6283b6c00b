// Command perfbench is addrxlat's end-to-end and per-layer benchmark.
//
// One run calls one public entry point of internal/experiments (the
// workload) repeatedly for a fixed time and checks every table it
// returns. An untraced run prints the end-to-end metrics; a traced run
// (-trace 1) profiles and traces alternate passes and prints the
// per-layer budget. run.py builds this program and is the command the
// benchmark is run with; see README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"addrxlat/internal/experiments"
	"addrxlat/internal/faultinject"
)

// procStart stands in for the process start when run.py does not pass
// the spawn time.
var procStart = time.Now()

// maxProcs caps GOMAXPROCS and Scale.Workers: no workload uses more than
// two workers, and a fixed cap keeps runs comparable across hosts with
// more CPUs.
const maxProcs = 2

// inputsPerRun is how many experiment seeds one run cycles its passes
// through. A table's allocation and peak memory depend on its seed (dense
// tables grow with the order in which keys arrive), so with one seed per
// run the run-to-run spread would mostly measure which seeds were drawn.
const inputsPerRun = 8

// inputSeeds derives a run's experiment seeds from its --seed n:
// 8n … 8n+7.
func inputSeeds(n uint64) []uint64 {
	seeds := make([]uint64, inputsPerRun)
	for i := range seeds {
		seeds[i] = n*inputsPerRun + uint64(i)
	}
	return seeds
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	mode := fs.String("mode", "run", "run (timed passes), setup (floor pass only) or digests (print digests.json)")
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed; the run's experiment seeds are derived from it")
	setupIndex := fs.Int("setup-index", 0, "which of the run's experiment seeds the setup pass uses")
	seconds := fs.Float64("seconds", 10, "measuring time of a run")
	trace := fs.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
	spawnedAt := fs.Int64("spawned-at", 0, "Unix nanoseconds at which the process was spawned (default: its start)")
	commit := fs.String("commit", "unknown", "commit or source digest stamped into the host line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkEnv(); err != nil {
		return err
	}
	cpus := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(cpus)
	start := procStart
	if *spawnedAt > 0 {
		start = time.Unix(0, *spawnedAt)
	}
	switch *mode {
	case "digests":
		return printDigests(cpus)
	case "run", "setup":
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	sp, err := lookupSpec(*name)
	if err != nil {
		return err
	}
	b := &bench{sp: sp, seeds: inputSeeds(*seed), cpus: cpus,
		out: bufio.NewWriter(os.Stdout), tsv: map[uint64][]byte{}}
	defer b.out.Flush()

	// Set-up ends with the floor pass. The benchmark's own start-up work
	// (metric checks, digests, host line) comes after it, so that both
	// modes time the same work.
	floor := b.runPass(sp.scale(floorAccessDiv, cpus), b.seeds[*setupIndex%len(b.seeds)], nil)
	setup := time.Since(start).Seconds()
	if err := validateMetrics(append(append([]metricDef{}, endToEnd...), perLayer...)); err != nil {
		return err
	}
	if b.digests, err = loadDigests(); err != nil {
		return err
	}
	b.check(&floor, "floor")
	b.count(floor)

	if *mode == "setup" {
		return b.emit(map[string]any{"setup_s": setup, "correct": b.result().Correct, "problems": append([]string{}, b.problems...)})
	}
	if err := b.emit(map[string]any{"host": hostFingerprint(*commit)}); err != nil {
		return err
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var r result
	if *trace == 1 {
		r, err = b.traced(budget)
	} else {
		r, err = b.untraced(budget, setup)
	}
	if err != nil {
		return err
	}
	for _, p := range b.problems {
		fmt.Fprintf(b.out, "# problem: %s\n", p)
	}
	return b.emit(r)
}

// checkEnv refuses the environments in which tables are not the program's
// plain output: fault injection or the stall watchdog armed.
func checkEnv() error {
	for _, v := range []string{faultinject.EnvVar, experiments.WatchdogEnvVar} {
		if os.Getenv(v) != "" {
			return fmt.Errorf("%s is set; unset it to benchmark", v)
		}
	}
	if faultinject.Armed() {
		return errors.New("fault injection is armed")
	}
	return nil
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seeds   []uint64 // experiment seeds, cycled through pass by pass
	cpus    int
	digests map[string]string
	out     *bufio.Writer

	attempted, failed int
	// problems lists each distinct table-level failure seen.
	problems []string
	// tsv holds each seed's first timed table; later passes must match.
	tsv map[uint64][]byte
}

func (b *bench) emit(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b.out.Write(line)
	b.out.WriteByte('\n')
	return b.out.Flush()
}

func (b *bench) problem(format string, args ...any) {
	p := fmt.Sprintf(format, args...)
	for _, q := range b.problems {
		if q == p {
			return
		}
	}
	b.problems = append(b.problems, p)
}

// pass is one call of the entry point.
type pass struct {
	seed                uint64
	wall, cpu, allocMiB float64
	tab                 *experiments.Table // nil when the entry point failed
	err                 error
	table               tableResult
}

// runPass calls the entry point once at the given scale and seed and
// times the call. A non-nil arm is called just before the timed call and
// the function it returns just after it, so that whatever arm starts
// covers the timed window and nothing else.
func (b *bench) runPass(s experiments.Scale, seed uint64, arm func() (disarm func())) pass {
	if s.Cache != nil || s.Blobs != nil {
		panic("perfbench: a result cache is attached")
	}
	runtime.GC()
	disarm := func() {}
	if arm != nil {
		disarm = arm()
	}
	a0, c0, t0 := heapAllocBytes(), cpuSeconds(), time.Now()
	t, err := b.sp.run(s, seed)
	p := pass{
		seed:     seed,
		wall:     time.Since(t0).Seconds(),
		cpu:      cpuSeconds() - c0,
		allocMiB: float64(heapAllocBytes()-a0) / (1 << 20),
		tab:      t,
		err:      err,
	}
	disarm()
	return p
}

// check checks the pass's table against the committed digest for
// sizeKey, if there is one, and records a table-level failure.
func (b *bench) check(p *pass, sizeKey string) {
	if p.err != nil {
		p.tab = nil
		p.table = tableResult{cells: b.sp.rows, failed: b.sp.rows, problem: p.err.Error()}
	} else {
		p.table = checkTable(b.sp, p.tab, b.digests[digestKey(b.sp.name, sizeKey, p.seed)])
	}
	if p.table.problem != "" {
		b.problem("%s: %s", sizeKey, p.table.problem)
	}
}

// count adds the pass's cells to the run's attempted and failed cells.
func (b *bench) count(p pass) {
	b.attempted += p.table.cells
	b.failed += p.table.failed
}

// timed runs the i-th timed pass (arm as for runPass), checks it, counts
// its cells, and checks that its table is byte-identical to the first
// pass at the same seed.
func (b *bench) timed(s experiments.Scale, i int, arm func() func()) pass {
	p := b.runPass(s, b.seeds[i%len(b.seeds)], arm)
	b.check(&p, fmt.Sprintf("ad=%d", b.sp.accessDiv))
	if first, ok := b.tsv[p.seed]; !ok {
		b.tsv[p.seed] = p.table.tsv
	} else if !bytes.Equal(first, p.table.tsv) && p.table.problem == "" {
		p.table.problem = "table differs from the first pass at the same seed"
		p.table.failed = p.table.cells
		b.problem("%s", p.table.problem)
	}
	b.count(p)
	fmt.Fprintf(b.out, "# pass %s seed=%d wall_s=%.4f cpu_s=%.4f alloc_mib=%.2f digest=%s failed=%d/%d\n",
		b.sp.name, p.seed, p.wall, p.cpu, p.allocMiB, p.table.digest, p.table.failed, p.table.cells)
	return p
}

// untraced makes timed passes, cycling through the run's seeds, until the
// budget would be exceeded (at least one pass per seed). Wall and CPU
// time are medians over all passes; allocation, which is fixed by the
// seed, is the mean over seeds of each seed's median.
func (b *bench) untraced(budget time.Duration, setup float64) (result, error) {
	s := b.sp.scale(b.sp.accessDiv, b.cpus)
	var walls, cpus []float64
	allocs := map[uint64][]float64{}
	deadline := time.Now().Add(budget)
	for i := 0; i < len(b.seeds) || time.Now().Add(secondsDur(median(walls))).Before(deadline); i++ {
		p := b.timed(s, i, nil)
		walls, cpus = append(walls, p.wall), append(cpus, p.cpu)
		allocs[p.seed] = append(allocs[p.seed], p.allocMiB)
	}
	var alloc float64
	for _, a := range allocs {
		alloc += median(a) / float64(len(allocs))
	}
	r := b.result()
	err := r.setMetrics(endToEnd, map[string]float64{
		"wall_s":       median(walls),
		"cpu_s":        median(cpus),
		"alloc_mib":    alloc,
		"peak_rss_mib": peakRSSMiB(),
		"setup_s":      setup,
	})
	return r, err
}

func (b *bench) result() result {
	return result{
		Correct:   b.failed == 0 && len(b.problems) == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
	}
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// heapAllocBytes is the cumulative count of bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// host identifies the machine and code a run measured.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostFingerprint(commit string) host {
	h := host{
		CPUModel:   runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// printDigests prints digests.json: the table digest of the floor pass
// and of the timed pass of every workload at every experiment seed of
// the default seeds.
func printDigests(cpus int) error {
	d := map[string]string{}
	for _, sp := range specs {
		b := &bench{sp: sp, cpus: cpus}
		for _, n := range defaultSeeds {
			for _, seed := range inputSeeds(n) {
				for _, size := range []struct {
					key string
					div uint64
				}{{"floor", floorAccessDiv}, {fmt.Sprintf("ad=%d", sp.accessDiv), sp.accessDiv}} {
					p := b.runPass(sp.scale(size.div, cpus), seed, nil)
					b.check(&p, size.key)
					if p.table.problem != "" || p.table.failed > 0 {
						return fmt.Errorf("%s seed %d %s: %d failed cells: %s", sp.name, seed, size.key, p.table.failed, p.table.problem)
					}
					d[digestKey(sp.name, size.key, seed)] = p.table.digest
				}
			}
		}
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(out, '\n'))
	return err
}
