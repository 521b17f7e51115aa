package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Totals are the phase sums a Breakdown reports, re-derived here from raw
// spans by an independent path so the trace doubles as a correctness
// oracle for the breakdown math. All times are virtual nanoseconds.
type Totals struct {
	Total            int64
	App              int64
	Ckpt             int64
	Recovery         int64
	DetectLatency    int64
	DetectedFailures int
}

// Totals re-derives the phase sums from the recorded spans:
//
//   - Total: the latest CatFinish mark per rank, maximized over ranks —
//     mirroring the harness's per-rank finish map where a later replica's
//     mark overwrites an earlier one.
//   - Ckpt: rank 0's CatCkpt spans, booked by the harness's one rule:
//     summed per (job, replica), the replica with the largest sum counts
//     for its job, and jobs add up. Every replica of a rank runs the same
//     checkpoints, so a replicated job books them once; without
//     replication every span is replica 0, so every checkpoint counts,
//     including partial ones cut short by a kill.
//   - Recovery: the summed CatRecovery spans.
//   - DetectLatency/DetectedFailures: summed/counted CatDetect spans,
//     emitted at each detector's exactly-once confirmation site.
//   - App: derived as Total - Ckpt - Recovery.
func (r *Recorder) Totals() Totals {
	var t Totals
	if r == nil {
		return t
	}
	type group struct{ job, replica int32 }
	finish := make(map[int32]int64)
	ckpt := make(map[group]int64)
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Cat {
		case CatFinish:
			// Spans are chronological, so the last write per rank is also
			// that rank's latest mark.
			finish[s.Rank] = s.Start
		case CatCkpt:
			if s.Rank == 0 {
				ckpt[group{s.Job, s.Replica}] += s.Dur
			}
		case CatRecovery:
			t.Recovery += s.Dur
		case CatDetect:
			t.DetectLatency += s.Dur
			t.DetectedFailures++
		}
	}
	for _, at := range finish {
		if at > t.Total {
			t.Total = at
		}
	}
	best := make(map[int32]int64)
	for g, ns := range ckpt {
		best[g.job] = max(best[g.job], ns)
	}
	for _, ns := range best {
		t.Ckpt += ns
	}
	t.App = t.Total - t.Ckpt - t.Recovery
	return t
}

// Reconcile checks the trace-derived phase sums against the harness's
// Breakdown figures and returns a hard error naming every diverging
// phase. A nil recorder reconciles trivially.
func (r *Recorder) Reconcile(bd Totals) error {
	if r == nil {
		return nil
	}
	got := r.Totals()
	var diffs []string
	check := func(phase string, trace, breakdown int64) {
		if trace != breakdown {
			diffs = append(diffs, fmt.Sprintf("%s: trace %dns != breakdown %dns (delta %dns)",
				phase, trace, breakdown, trace-breakdown))
		}
	}
	check("total", got.Total, bd.Total)
	check("app", got.App, bd.App)
	check("ckpt", got.Ckpt, bd.Ckpt)
	check("recovery", got.Recovery, bd.Recovery)
	check("detect-latency", got.DetectLatency, bd.DetectLatency)
	if got.DetectedFailures != bd.DetectedFailures {
		diffs = append(diffs, fmt.Sprintf("detected-failures: trace %d != breakdown %d",
			got.DetectedFailures, bd.DetectedFailures))
	}
	if len(diffs) > 0 {
		return fmt.Errorf("trace: reconciliation failed over %d spans: %s",
			len(r.spans), strings.Join(diffs, "; "))
	}
	return nil
}

// WriteMetrics renders the aggregated per-phase metrics table — trace
// sums side by side with the Breakdown figures and the reconciliation
// verdict — followed by per-category span counts and times.
func (r *Recorder) WriteMetrics(w io.Writer, bd Totals) {
	got := r.Totals()
	sec := func(ns int64) string { return fmt.Sprintf("%.6f", float64(ns)/1e9) }

	tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\ttrace_s\tbreakdown_s")
	fmt.Fprintf(tw, "total\t%s\t%s\n", sec(got.Total), sec(bd.Total))
	fmt.Fprintf(tw, "app\t%s\t%s\n", sec(got.App), sec(bd.App))
	fmt.Fprintf(tw, "ckpt\t%s\t%s\n", sec(got.Ckpt), sec(bd.Ckpt))
	fmt.Fprintf(tw, "recovery\t%s\t%s\n", sec(got.Recovery), sec(bd.Recovery))
	fmt.Fprintf(tw, "detect_latency\t%s\t%s\n", sec(got.DetectLatency), sec(bd.DetectLatency))
	fmt.Fprintf(tw, "detected_failures\t%d\t%d\n", got.DetectedFailures, bd.DetectedFailures)
	tw.Flush()

	if err := r.Reconcile(bd); err != nil {
		fmt.Fprintf(w, "reconciliation: FAILED: %v\n", err)
	} else {
		fmt.Fprintln(w, "reconciliation: OK")
	}

	var count [numCats]int
	var dur [numCats]int64
	for i := range r.Spans() {
		s := &r.spans[i]
		count[s.Cat]++
		dur[s.Cat] += s.Dur
	}
	var cats []Cat
	for c := Cat(1); c < numCats; c++ {
		if count[c] > 0 {
			cats = append(cats, c)
		}
	}
	sort.Slice(cats, func(i, j int) bool { return count[cats[i]] > count[cats[j]] })
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "category\tspans\ttime_s")
	for _, c := range cats {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", c, count[c], sec(dur[c]))
	}
	tw.Flush()
}
