package obs

import (
	"fmt"

	"addrxlat/internal/xtrace"
)

// RowTimeline folds one row's execution-timeline report (straggler and
// chunk-latency attribution derived from the xtrace span stream, see
// xtrace.Analyze) into the recorder — for the manifest's timeline block —
// and mirrors the headline numbers to the "addrxlat.xtrace_*" expvars
// StartHTTP serves: which row was attributed last, which simulator is its
// straggler, what bounds it, and the cumulative busy/blocked split in
// milliseconds. Safe on a nil recorder.
func (r *Recorder) RowTimeline(rep xtrace.RowReport) {
	expInt("xtrace_rows").Add(1)
	expStr("xtrace_last_row").Set(rep.Row)
	expStr("xtrace_straggler").Set(rep.Row + "|" + rep.Straggler)
	expStr("xtrace_bottleneck").Set(rep.Bottleneck)
	expInt("xtrace_row_wall_ms").Set(int64(rep.WallSeconds * 1e3))
	expInt("xtrace_producer_blocked_ms").Add(int64(rep.ProducerBlockedSeconds * 1e3))
	for _, w := range rep.Workers {
		expInt("xtrace_busy_ms").Add(int64(w.BusySeconds * 1e3))
		expInt("xtrace_blocked_generation_ms").Add(int64(w.BlockedGenerationSeconds * 1e3))
		expInt("xtrace_blocked_admission_ms").Add(int64(w.BlockedAdmissionSeconds * 1e3))
		expInt("xtrace_blocked_drain_ms").Add(int64(w.BlockedDrainSeconds * 1e3))
	}
	if r == nil {
		return
	}
	r.mu.Lock()
	r.timelines = append(r.timelines, rep)
	r.mu.Unlock()
}

// Timelines returns the collected row timeline reports in arrival order.
func (r *Recorder) Timelines() []xtrace.RowReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]xtrace.RowReport, len(r.timelines))
	copy(out, r.timelines)
	return out
}

// Timeline prints one row's straggler digest as a progress line, for
// sweeps watched with -progress while tracing is armed.
func (p *Progress) Timeline(rep xtrace.RowReport) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "%s:   timeline %s\n", p.label, rep.Summary())
}
