package mm

// Phase labels used by the phase runner and the telemetry layer: the
// warmup phase covers the accesses before the counter reset, the measured
// phase the accesses after it.
const (
	PhaseWarmup   = "warmup"
	PhaseMeasured = "measured"
)

// Sampler receives cumulative cost snapshots from RunPhaseChunksCtx.
// Samples for one algorithm arrive in access order; implementations must
// be safe for concurrent use, since harnesses run algorithms in parallel.
// internal/obs.Recorder is the standard implementation.
type Sampler interface {
	// Sample reports alg's cumulative counters after one chunk of the
	// given phase. Costs.Accesses is the x-axis: accesses serviced since
	// the phase began (the counter reset, for the measured phase).
	Sample(phase, alg string, c Costs)
}
