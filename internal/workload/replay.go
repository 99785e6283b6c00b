package workload

import (
	"fmt"
	"io"

	"addrxlat/internal/trace"
)

// Replay is a Generator backed by a recorded trace, cycling when it
// reaches the end (so harnesses can draw warmup and measurement windows
// longer than the recording, as trace-driven simulators commonly do).
type Replay struct {
	pages []uint64
	next  int
	laps  int
}

var _ Generator = (*Replay)(nil)

// NewReplay wraps an in-memory page sequence.
func NewReplay(pages []uint64) (*Replay, error) {
	if len(pages) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return &Replay{pages: pages}, nil
}

// NewReplayFrom reads a binary trace (trace.Write format) from r.
func NewReplayFrom(r io.Reader) (*Replay, error) {
	pages, err := trace.Read(r)
	if err != nil {
		return nil, err
	}
	return NewReplay(pages)
}

// Next implements Generator.
func (rp *Replay) Next() uint64 {
	v := rp.pages[rp.next]
	rp.next++
	if rp.next == len(rp.pages) {
		rp.next = 0
		rp.laps++
	}
	return v
}

// NextBatch implements BatchGenerator: whole stretches of the recording are
// copied out per call (with wraparound), instead of one virtual Next call
// per request.
func (rp *Replay) NextBatch(dst []uint64) {
	for len(dst) > 0 {
		n := copy(dst, rp.pages[rp.next:])
		rp.next += n
		if rp.next == len(rp.pages) {
			rp.next = 0
			rp.laps++
		}
		dst = dst[n:]
	}
}

// Name implements Generator.
func (rp *Replay) Name() string { return "replay" }

// StreamReplay replays a recorded trace directly from its file (or any
// io.ReadSeeker), decoding one chunk at a time through trace.Reader and
// cycling by re-seeking to the start — so replaying a multi-billion-access
// recording needs O(chunk) memory instead of O(trace), unlike Replay,
// which materializes the recording up front.
type StreamReplay struct {
	src   io.ReadSeeker
	tr    *trace.Reader
	buf   []uint64
	pos   int // next unread index in buf
	fill  int // valid prefix of buf
	count uint64
	laps  int
	err   error // first decode/seek error; panics surface it
}

var _ Generator = (*StreamReplay)(nil)
var _ BatchGenerator = (*StreamReplay)(nil)

// NewStreamReplay opens a streaming replay over src with the given decode
// chunk size in pages (0 means workload.DefaultChunk). Empty traces are
// rejected, as in NewReplay.
func NewStreamReplay(src io.ReadSeeker, chunkSize int) (*StreamReplay, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunk
	}
	tr, err := trace.NewReader(src)
	if err != nil {
		return nil, err
	}
	if tr.Count() == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return &StreamReplay{
		src:   src,
		tr:    tr,
		buf:   make([]uint64, chunkSize),
		count: tr.Count(),
	}, nil
}

// refill decodes the next chunk, rewinding to the start of the recording
// when it is exhausted.
func (sr *StreamReplay) refill() {
	for {
		n, err := sr.tr.Read(sr.buf)
		if n > 0 {
			sr.pos, sr.fill = 0, n
			return
		}
		if err != io.EOF {
			sr.err = err
			panic(fmt.Sprintf("workload: stream replay: %v", err))
		}
		if _, err := sr.src.Seek(0, io.SeekStart); err != nil {
			sr.err = err
			panic(fmt.Sprintf("workload: stream replay rewind: %v", err))
		}
		tr, err := trace.NewReader(sr.src)
		if err != nil {
			sr.err = err
			panic(fmt.Sprintf("workload: stream replay rewind: %v", err))
		}
		sr.tr = tr
		sr.laps++
	}
}

// Next implements Generator.
func (sr *StreamReplay) Next() uint64 {
	if sr.pos == sr.fill {
		sr.refill()
	}
	v := sr.buf[sr.pos]
	sr.pos++
	return v
}

// NextBatch implements BatchGenerator.
func (sr *StreamReplay) NextBatch(dst []uint64) {
	for len(dst) > 0 {
		if sr.pos == sr.fill {
			sr.refill()
		}
		n := copy(dst, sr.buf[sr.pos:sr.fill])
		sr.pos += n
		dst = dst[n:]
	}
}

// Name implements Generator.
func (sr *StreamReplay) Name() string { return "stream-replay" }

// Len returns the recording's length in accesses.
func (sr *StreamReplay) Len() int { return int(sr.count) }

// Laps reports how many times the recording has wrapped.
func (sr *StreamReplay) Laps() int { return sr.laps }

// Err returns the first decode or seek error, if any (also raised as a
// panic at the point of failure, since Generator.Next cannot fail).
func (sr *StreamReplay) Err() error { return sr.err }

// Len returns the recording's length.
func (rp *Replay) Len() int { return len(rp.pages) }

// Laps reports how many times the recording has wrapped.
func (rp *Replay) Laps() int { return rp.laps }

// Phased switches between sub-generators on a fixed schedule, modeling
// program phase behavior (init → compute → IO → compute …). Each phase
// runs for its configured length of accesses, cycling through the list.
type Phased struct {
	phases   []Phase
	current  int
	left     int
	switches int
}

// Phase is one phase of a phased workload.
type Phase struct {
	Gen    Generator
	Length int // accesses before moving to the next phase
}

var _ Generator = (*Phased)(nil)

// NewPhased builds a phase-switching generator.
func NewPhased(phases []Phase) (*Phased, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: at least one phase required")
	}
	for i, p := range phases {
		if p.Gen == nil {
			return nil, fmt.Errorf("workload: phase %d has nil generator", i)
		}
		if p.Length <= 0 {
			return nil, fmt.Errorf("workload: phase %d length %d must be positive", i, p.Length)
		}
	}
	return &Phased{phases: phases, left: phases[0].Length}, nil
}

// Next implements Generator.
func (p *Phased) Next() uint64 {
	if p.left == 0 {
		p.current = (p.current + 1) % len(p.phases)
		p.left = p.phases[p.current].Length
		p.switches++
	}
	p.left--
	return p.phases[p.current].Gen.Next()
}

// Name implements Generator.
func (p *Phased) Name() string { return fmt.Sprintf("phased(%d phases)", len(p.phases)) }

// Switches reports how many phase transitions have occurred.
func (p *Phased) Switches() int { return p.switches }
