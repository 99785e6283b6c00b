// Package xtrace is the zero-dependency structured execution tracer of
// the sweep engine: per-worker span buffers recorded only at chunk
// boundaries, exported as Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing), and analyzable in-process into per-row straggler and
// chunk-latency reports (see analyze.go).
//
// Design rules, in order:
//
//  1. Byte-identity. Tracing observes wall time at chunk boundaries and
//     nothing else: no RNG draws, no counter mutations, no allocation on
//     any simulator's access path. An instrumented run produces tables,
//     curves, and explain files byte-identical to a bare run (pinned by
//     TestTraceByteIdentical).
//  2. Disabled means free. The global tracer pointer is read with one
//     atomic load (Active/Enabled); call sites hold the resulting
//     *Tracer or *Thread, and every Thread method no-ops on a nil
//     receiver, so the disarmed per-chunk cost is a nil check.
//  3. One writer per buffer. A Thread is owned by exactly one goroutine
//     (the worker that created it) and appends without locks; the Tracer
//     locks only thread creation, shared instants, and export. Export
//     and analysis require quiescence: call them only after the workers
//     that feed the tracer have joined (the row executors guarantee this
//     — a canceled row still joins its workers before returning).
//
// The span hierarchy is sweep → experiment (the CLI's thread 0), row (one
// thread per row), phase → chunk (one thread per (row, simulator) worker,
// wait spans interleaved), with instant events marking cancellation,
// fault injection, cell quarantine, and result-cache hits, and counter
// tracks mirroring the chunk ring's in-flight depth and backpressure.
package xtrace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories the analyzer understands. Anything else is carried to
// the trace file verbatim and ignored by Analyze.
const (
	CatSweep      = "sweep"      // whole CLI invocation (thread 0)
	CatExperiment = "experiment" // one experiment of the sweep (thread 0)
	CatRow        = "row"        // one streaming row (its own thread)
	CatPhase      = "phase"      // warmup/measured window of one worker
	CatChunk      = "chunk"      // one chunk serviced by one simulator
	CatWait       = "wait"       // blocked time (see the Wait* names)
	CatWorker     = "worker"     // one (row, simulator) worker's lifetime
	CatRing       = "ring"       // chunk-ring producer activity
)

// Serve request-lifecycle categories. Unlike the sweep categories above,
// these spans carry VIRTUAL-time stamps (the serving layer's integer
// nanosecond clock), recorded onto dedicated threads after the cell's
// event loop drains — one thread per exemplar request, one per cell for
// the governor/window tracks — so virtual and wall timelines never mix on
// one thread. Validate enforces their schema: queued/attempt/backoff
// spans must nest inside a request span, and governor trip/clear instants
// must alternate starting with a trip.
const (
	CatServeRequest = "serve-request" // whole request lifetime: admission → terminal
	CatServeQueued  = "serve-queued"  // waiting in the admission queue
	CatServeAttempt = "serve-attempt" // one service attempt on the mm simulator
	CatServeBackoff = "serve-backoff" // retry backoff between attempts
)

// Wait-span names: where a worker's non-busy time went.
const (
	WaitGeneration = "wait generation" // blocked in Ring.Get
	WaitAdmission  = "wait admission"  // blocked on the Workers gate
	WaitConsumers  = "wait consumers"  // producer blocked on a full ring
)

// Instant-event names.
const (
	InstantCancel     = "canceled"
	InstantFault      = "fault injected"
	InstantQuarantine = "cell quarantined"
	InstantCacheHit   = "resultcache hit"

	// Serve-cell instants (virtual-time stamps, see the serve categories).
	// Trip/clear must alternate per thread, trip first; a trailing
	// unmatched trip means the run ended degraded and is legal. Shed
	// instants are emitted once per metrics window with a count argument,
	// not per shed request — overload sheds thousands.
	InstantGovTrip  = "governor trip"
	InstantGovClear = "governor clear"
	InstantShed     = "shed"
)

// Arg is one key/value annotation on an event. Exactly one of Str or Int
// is meaningful; IsStr selects.
type Arg struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// ArgStr annotates an event with a string value.
func ArgStr(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// ArgInt annotates an event with an integer value.
func ArgInt(key string, v int64) Arg { return Arg{Key: key, Int: v} }

// Event is one recorded trace event. TS and Dur are nanoseconds since the
// tracer started; Ph is the Chrome trace-event phase ('X' complete span,
// 'i' instant, 'C' counter).
type Event struct {
	Name string
	Cat  string
	Ph   byte
	TS   int64
	Dur  int64
	Args []Arg
}

// Thread is one timeline of the trace: a lock-free append buffer owned by
// a single goroutine, mapped to one tid of the exported trace. A nil
// Thread is valid and ignores every call, so call sites thread it
// unconditionally.
type Thread struct {
	tracer *Tracer
	tid    int
	name   string
	scope  string // experiment id active when the thread was created
	row    string // row label ("" for non-worker threads)
	alg    string // simulator label ("" for non-worker threads)
	events []Event
}

// Tracer collects events from many threads. Create with New, activate
// with Install, and export with WriteJSON after the traced work has
// quiesced.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	threads []*Thread
	shared  *Thread // locked timeline for cross-goroutine instants
	scope   string
	dropped int
}

// maxThreads caps the trace's timeline count so a pathological sweep
// (thousands of cells) degrades by dropping threads, not by exhausting
// memory. Dropped threads are counted and reported in the export.
const maxThreads = 4096

// active is the installed tracer; the disabled path is this single atomic
// load.
var active atomic.Pointer[Tracer]

// New returns an empty tracer whose clock starts now.
func New() *Tracer {
	t := &Tracer{start: time.Now()}
	t.shared = t.newThreadLocked("events", "", "")
	return t
}

// Install makes t the process-wide active tracer (nil uninstalls).
// Instrumentation sites pick it up at their next Active() load.
func Install(t *Tracer) { active.Store(t) }

// Active returns the installed tracer, nil when tracing is off. This is
// the one atomic load of the disabled path.
func Active() *Tracer { return active.Load() }

// Enabled reports whether a tracer is installed.
func Enabled() bool { return active.Load() != nil }

// SetScope labels threads created from now on with the given experiment
// id, so analysis can slice one experiment out of a whole-sweep trace.
// Call between experiments, not while their workers run.
func (t *Tracer) SetScope(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scope = id
	t.mu.Unlock()
}

// Now returns the tracer-relative timestamp in nanoseconds. Call sites
// capture it at span boundaries only — never inside an access loop.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

func (t *Tracer) newThreadLocked(name, row, alg string) *Thread {
	th := &Thread{tracer: t, tid: len(t.threads), name: name, scope: t.scope, row: row, alg: alg}
	t.threads = append(t.threads, th)
	return th
}

// Thread registers a new general-purpose timeline (the sweep thread, a
// ring producer, a row timeline). Returns nil — safely ignorable — when
// the tracer is nil or the thread cap is reached.
func (t *Tracer) Thread(name string) *Thread { return t.thread(name, "", "") }

// RowThread registers the timeline carrying one row's lifecycle span.
func (t *Tracer) RowThread(row string) *Thread { return t.thread("row "+row, row, "") }

// RingThread registers the timeline of one row's chunk-ring producer: its
// wait-for-consumers spans and in-flight counter track.
func (t *Tracer) RingThread(row string) *Thread { return t.thread("ring "+row, row, "") }

// Worker registers the timeline of one (row, simulator) worker; its chunk
// and wait spans drive the straggler attribution. alg must be non-empty.
func (t *Tracer) Worker(row, alg string) *Thread {
	name := alg
	if row != "" {
		name = row + " | " + alg
	}
	return t.thread(name, row, alg)
}

func (t *Tracer) thread(name, row, alg string) *Thread {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.threads) >= maxThreads {
		t.dropped++
		return nil
	}
	return t.newThreadLocked(name, row, alg)
}

// Instant records a cross-goroutine instant event on the tracer's shared
// timeline (cancellation, fault injection, quarantine, cache hits). Safe
// for concurrent use; nil-safe.
func (t *Tracer) Instant(name string, args ...Arg) {
	if t == nil {
		return
	}
	now := t.Now()
	t.mu.Lock()
	t.shared.events = append(t.shared.events, Event{Name: name, Ph: 'i', TS: now, Args: args})
	t.mu.Unlock()
}

// Now returns the owning tracer's clock (0 on a nil thread), for
// capturing span start stamps.
func (th *Thread) Now() int64 {
	if th == nil {
		return 0
	}
	return th.tracer.Now()
}

// Span records a complete span on the thread, from start (a Tracer.Now
// stamp) to now.
func (th *Thread) Span(name, cat string, start int64, args ...Arg) {
	if th == nil {
		return
	}
	th.SpanAt(name, cat, start, th.tracer.Now(), args...)
}

// SpanAt records a complete span with explicit start and end stamps (both
// Tracer.Now values). end < start clamps to a zero-duration span.
func (th *Thread) SpanAt(name, cat string, start, end int64, args ...Arg) {
	if th == nil {
		return
	}
	if end < start {
		end = start
	}
	th.events = append(th.events, Event{Name: name, Cat: cat, Ph: 'X', TS: start, Dur: end - start, Args: args})
}

// Instant records an instant event on the thread's own timeline.
func (th *Thread) Instant(name string, args ...Arg) {
	if th == nil {
		return
	}
	th.events = append(th.events, Event{Name: name, Ph: 'i', TS: th.tracer.Now(), Args: args})
}

// InstantAt records an instant event with an explicit timestamp. The
// serve layer uses it to place virtual-time instants (governor trips,
// per-window shed counts) on its dedicated threads.
func (th *Thread) InstantAt(name string, ts int64, args ...Arg) {
	if th == nil {
		return
	}
	if ts < 0 {
		ts = 0
	}
	th.events = append(th.events, Event{Name: name, Ph: 'i', TS: ts, Args: args})
}

// Counter records a counter sample; each Arg becomes one series of the
// counter track named name.
func (th *Thread) Counter(name string, args ...Arg) {
	if th == nil {
		return
	}
	th.events = append(th.events, Event{Name: name, Ph: 'C', TS: th.tracer.Now(), Args: args})
}

// CounterAt records a counter sample with an explicit timestamp (the
// serve layer's per-window queue/token/heap tracks, stamped in virtual
// time at window close).
func (th *Thread) CounterAt(name string, ts int64, args ...Arg) {
	if th == nil {
		return
	}
	if ts < 0 {
		ts = 0
	}
	th.events = append(th.events, Event{Name: name, Ph: 'C', TS: ts, Args: args})
}

// Events returns the thread's recorded events (the live slice — callers
// must not append). Nil-safe.
func (th *Thread) Events() []Event {
	if th == nil {
		return nil
	}
	return th.events
}

// Stats summarizes the tracer's content for logs and tests.
func (t *Tracer) Stats() (threads, events, dropped int) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, th := range t.threads {
		events += len(th.events)
	}
	return len(t.threads), events, t.dropped
}

// String describes the tracer for debugging.
func (t *Tracer) String() string {
	th, ev, dr := t.Stats()
	return fmt.Sprintf("xtrace{threads=%d events=%d dropped=%d}", th, ev, dr)
}
