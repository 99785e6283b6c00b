package workload

import (
	"bytes"
	"testing"

	"addrxlat/internal/trace"
)

// TestFillChunksMatchTake pins the chunked fill cmd/tracegen streams
// through one reused buffer against the materialized stream: Fill over
// consecutive chunks must reproduce Take exactly, for chunk sizes that
// divide the total, that don't, and that exceed it.
func TestFillChunksMatchTake(t *testing.T) {
	for _, tc := range []struct{ chunk, total int }{
		{8, 64},
		{7, 64},
		{64, 64},
		{100, 64},
		{1, 5},
		{16, 0},
	} {
		ref, err := NewBimodal(1<<8, 1<<12, 0.99, 42)
		if err != nil {
			t.Fatal(err)
		}
		want := Take(ref, tc.total)

		gen, err := NewBimodal(1<<8, 1<<12, 0.99, 42)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]uint64, tc.chunk)
		var got []uint64
		for left := tc.total; left > 0; left -= len(buf) {
			chunk := buf[:min(left, len(buf))]
			Fill(gen, chunk)
			got = append(got, chunk...)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk=%d total=%d: got %d requests, want %d", tc.chunk, tc.total, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d total=%d: request %d = %d, want %d", tc.chunk, tc.total, i, got[i], want[i])
			}
		}
	}
}

// TestStreamReplayMatchesReplay pins the O(chunk) replay path against the
// materialized one, across the wrap-around boundary.
func TestStreamReplayMatchesReplay(t *testing.T) {
	pages := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var buf bytes.Buffer
	if err := trace.Write(&buf, pages); err != nil {
		t.Fatal(err)
	}

	mat, err := NewReplay(pages)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReplay(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Len() != len(pages) {
		t.Fatalf("Len = %d, want %d", sr.Len(), len(pages))
	}

	// Three laps, drawn with a mix of Next and NextBatch.
	n := 3 * len(pages)
	want := Take(mat, n)
	got := make([]uint64, 0, n)
	batch := make([]uint64, 5)
	for len(got) < n {
		if len(got)%2 == 0 && n-len(got) >= len(batch) {
			sr.NextBatch(batch)
			got = append(got, batch...)
		} else {
			got = append(got, sr.Next())
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %d, want %d", i, got[i], want[i])
		}
	}
	if sr.Laps() < 2 {
		t.Fatalf("expected ≥2 laps, got %d", sr.Laps())
	}
	if sr.Err() != nil {
		t.Fatalf("unexpected stream error: %v", sr.Err())
	}
}

// BenchmarkReplayStream measures the O(chunk) replay path: -benchmem
// shows allocations bounded by the decode chunk, independent of the
// recording length.
func BenchmarkReplayStream(b *testing.B) {
	pages := make([]uint64, 1<<20)
	v := uint64(0)
	for i := range pages {
		v = v*6364136223846793005 + 1442695040888963407
		pages[i] = v % (1 << 24)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, pages); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	batch := make([]uint64, 1<<14)
	b.SetBytes(int64(8 * len(pages)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := NewStreamReplay(bytes.NewReader(enc), 0)
		if err != nil {
			b.Fatal(err)
		}
		for drawn := 0; drawn < len(pages); drawn += len(batch) {
			sr.NextBatch(batch)
		}
	}
}

// BenchmarkReplayMaterialized is the same replay through the one-shot
// trace.Read + Replay, for the O(trace) allocation comparison.
func BenchmarkReplayMaterialized(b *testing.B) {
	pages := make([]uint64, 1<<20)
	v := uint64(0)
	for i := range pages {
		v = v*6364136223846793005 + 1442695040888963407
		pages[i] = v % (1 << 24)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, pages); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	batch := make([]uint64, 1<<14)
	b.SetBytes(int64(8 * len(pages)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp, err := NewReplayFrom(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		for drawn := 0; drawn < len(pages); drawn += len(batch) {
			rp.NextBatch(batch)
		}
	}
}
