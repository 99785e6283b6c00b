package mm

import (
	"context"

	"addrxlat/internal/xtrace"
)

// ChunkSeq yields the successive request chunks of one phase: each call
// returns the next chunk and true, or ok=false once the phase is
// exhausted. It is the seam between the runner and wherever requests
// come from — a materialized slice (SliceChunks) or a streaming producer
// such as workload.Ring, whose chunks need not be resident all at once.
type ChunkSeq func() (chunk []uint64, ok bool)

// SliceChunks adapts a materialized window to a ChunkSeq yielding pieces
// of at most every requests (the final piece short); every <= 0 yields
// the whole window as one piece.
func SliceChunks(requests []uint64, every int) ChunkSeq {
	if every <= 0 {
		every = len(requests)
	}
	return func() ([]uint64, bool) {
		if len(requests) == 0 {
			return nil, false
		}
		n := every
		if len(requests) < n {
			n = len(requests)
		}
		chunk := requests[:n]
		requests = requests[n:]
		return chunk, true
	}
}

// RunPhaseChunksCtx services one phase from a chunk iterator: each chunk
// is preceded by a context check and followed by an optional sample (s
// may be nil), so cancellation and telemetry both land exactly at chunk
// boundaries. name labels the samples and the trace timeline; empty means
// a.Name(). By the AccessBatch contract the chunking changes no
// counters; on cancellation the counters accumulated so far remain on the
// algorithm and the context's error is returned.
//
// With an execution tracer installed (xtrace.Install) the phase gets its
// own worker timeline — a phase span containing one span per chunk — so
// the materialized runners (atsim, the related/geometry studies) appear
// in the trace alongside the streaming rows. The timeline carries no row
// label; the analyzer groups such phases per algorithm. Disabled cost:
// one atomic load per phase, a nil check per chunk.
func RunPhaseChunksCtx(ctx context.Context, a Algorithm, next ChunkSeq, s Sampler, phase, name string) error {
	if name == "" {
		name = a.Name()
	}
	var th *xtrace.Thread
	if tr := xtrace.Active(); tr != nil {
		th = tr.Worker("", name)
		phaseStart := th.Now()
		defer func() { th.Span(phase, xtrace.CatPhase, phaseStart) }()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk, ok := next()
		if !ok {
			return nil
		}
		var chunkStart int64
		if th != nil {
			chunkStart = th.Now()
		}
		a.AccessBatch(chunk)
		if s != nil {
			s.Sample(phase, name, a.Costs())
		}
		if th != nil {
			th.Span(phase, xtrace.CatChunk, chunkStart, xtrace.ArgInt("n", int64(len(chunk))))
		}
	}
}
