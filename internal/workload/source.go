package workload

// Source streams a bounded prefix of a Generator as fixed-size chunks,
// produced by a dedicated goroutine running one chunk ahead: while the
// consumer simulates chunk i, the producer is already filling chunk i+1,
// so request generation overlaps simulation instead of serializing ahead
// of it (or being materialized whole, as the harness did before — 800 MB
// per window at paper scale).
//
// Source is the single-consumer, single-segment view of Ring — the
// depth-2 special case kept for linear consumers (trace generation,
// replay pre-passes). The multi-consumer row executor uses Ring
// directly.
//
// The chunk sequence concatenates to exactly the same requests repeated
// Generator.Next calls would yield; chunking is invisible to simulators.
// A Source is single-consumer: Next/Recycle/Stop must be called from one
// goroutine.
type Source struct {
	ring *Ring
	next int  // seq the upcoming Next returns
	held bool // Next returned a chunk not yet Recycled
}

// DefaultChunk is the chunk size the experiment harness streams with:
// large enough to amortize per-chunk synchronization to noise, small
// enough that a chunk (512 KiB) stays cache- and memory-friendly.
const DefaultChunk = 1 << 16

// NewSource starts streaming the next total requests from g in chunks of
// chunkSize. The final chunk is short when chunkSize does not divide
// total. The producer goroutine exits after the last chunk is consumed,
// or when Stop is called.
func NewSource(g Generator, chunkSize, total int) (*Source, error) {
	ring, err := NewRing(g, chunkSize, []int{total}, 2, 1)
	if err != nil {
		return nil, err
	}
	return &Source{ring: ring}, nil
}

// Next returns the next chunk, or ok=false after the last chunk. The
// returned slice is owned by the caller until passed to Recycle.
func (s *Source) Next() (chunk []uint64, ok bool) {
	if s.held {
		// The previous chunk was never recycled; release it so the ring
		// can advance (matches the old Source, where dropping a buffer
		// never stalled the stream).
		s.ring.Release(s.next - 1)
		s.held = false
	}
	c, ok := s.ring.Get(s.next)
	if !ok {
		return nil, false
	}
	s.next++
	s.held = true
	return c.Data, true
}

// Recycle hands a consumed chunk's buffer back for reuse, letting the
// producer refill it. On the steady path the whole stream runs in two
// fixed buffers; an unrecycled chunk is reclaimed on the next call to
// Next instead.
func (s *Source) Recycle(buf []uint64) {
	if s.held {
		s.ring.Release(s.next - 1)
		s.held = false
	}
}

// Stop releases the producer goroutine without draining the stream. Safe
// to call whether or not the stream was fully consumed; Next returns
// ok=false afterwards.
func (s *Source) Stop() {
	s.ring.Stop()
}
