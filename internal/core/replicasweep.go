package core

import (
	"fmt"
	"io"
	"sort"
)

// ReplicaTradeoff is one point of the PartRePer-style combined-overhead
// curve: one replica cell of a campaign that swept the replication axis —
// its failure-free run and every failing run of the same cell — with the
// steady-state cost of replication plus checkpointing on one side and the
// recovery speed it buys on the other. The interesting regime is the
// combination: partial replication with replica-aware placement pays for
// its duplicated processes partly out of the checkpoints it no longer
// takes.
type ReplicaTradeoff struct {
	App      string
	Policy   string
	Detector string
	// Factor is the fraction of replicated ranks (0 = replication off).
	Factor float64
	// CkptS and CkptCount describe the failure-free (k=0) checkpoint
	// spend; CkptAvoided counts the checkpoints the placement policy
	// skipped relative to fixed placement.
	CkptS       float64
	CkptCount   int
	CkptAvoided int
	// TotalS is the failure-free total; OverheadPct is its overhead over
	// the failure-free run of the same cell at the sweep's lowest factor
	// (factor 0 — replication off — when the sweep includes it).
	TotalS      float64
	OverheadPct float64
	// RecoveryPerFailure averages the recovery time per recovery event
	// over every k>0 cell (seconds).
	RecoveryPerFailure float64
	Cells              int
}

// ComputeReplicaTradeoff derives the combined overhead-vs-ReplicaFactor
// curve from campaign results that swept the replication axis
// (CampaignRequest.ReplicaFactors): one row per failure-free twin, showing
// how total overhead grows and recovery time shrinks as the replicated
// fraction rises. A row's curve is the rows that run the same cell but for
// the replica factor; rows sort by app, placement, the curve's sweep
// order, then factor. Non-replica results are ignored.
func ComputeReplicaTradeoff(results []Result) []ReplicaTradeoff {
	type acc struct {
		row         ReplicaTradeoff
		curve       int // first-seen index of the row's curve
		recoverySum float64
		recoveries  int
		haveBase    bool
	}
	anyFactor := func(c *Config) {
		failureFree(c)
		c.Replica.DupDegree, c.Replica.ReplicaFactor = 0, 0
	}
	rows := map[string]*acc{}
	curves := map[string]int{}
	var order []*acc
	for _, r := range results {
		if r.Config.Design != ReplicaFTI {
			continue
		}
		twin := pairKey(r.Config, failureFree)
		a := rows[twin]
		if a == nil {
			ck := pairKey(r.Config, anyFactor)
			if _, ok := curves[ck]; !ok {
				curves[ck] = len(curves)
			}
			a = &acc{curve: curves[ck], row: ReplicaTradeoff{App: r.Config.App,
				Policy: r.Config.CkptPolicy.String(), Detector: r.Config.Detector.String(),
				Factor: ReplicaFactorOf(r.Config)}}
			rows[twin] = a
			order = append(order, a)
		}
		a.row.Cells++
		bd := r.Breakdown
		if r.Config.FaultCount() == 0 {
			a.row.CkptS = bd.Ckpt.Seconds()
			a.row.CkptCount = bd.CkptCount
			a.row.CkptAvoided = bd.CkptAvoided
			a.row.TotalS = bd.Total.Seconds()
			a.haveBase = true
		} else if bd.Recoveries > 0 {
			a.recoverySum += bd.Recovery.Seconds()
			a.recoveries += bd.Recoveries
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i].row, order[j].row
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if order[i].curve != order[j].curve {
			return order[i].curve < order[j].curve
		}
		return a.Factor < b.Factor
	})
	// Overhead is relative to the curve's lowest-factor row — its origin
	// (the unreplicated baseline when the sweep includes factor 0). A
	// hard-coded factor-0 lookup would silently report 0% everywhere on
	// sweeps like "0.5,1.0".
	baseFor := map[int]float64{}
	for _, a := range order { // sorted: a curve's first row with a base has its lowest factor
		if _, ok := baseFor[a.curve]; !ok && a.haveBase {
			baseFor[a.curve] = a.row.TotalS
		}
	}
	out := make([]ReplicaTradeoff, 0, len(order))
	for _, a := range order {
		if a.recoveries > 0 {
			a.row.RecoveryPerFailure = a.recoverySum / float64(a.recoveries)
		}
		if base, ok := baseFor[a.curve]; ok && base > 0 {
			a.row.OverheadPct = 100 * (a.row.TotalS - base) / base
		}
		out = append(out, a.row)
	}
	return out
}

// WriteReplicaTradeoff renders the combined overhead-vs-ReplicaFactor
// curve, with a detector column when the rows ran more than one.
func WriteReplicaTradeoff(w io.Writer, rows []ReplicaTradeoff) {
	if len(rows) == 0 {
		return
	}
	detectors := map[string]bool{}
	for _, r := range rows {
		detectors[r.Detector] = true
	}
	detectorSweep := len(detectors) > 1
	fmt.Fprintln(w, "== ReplicaFactor sweep: combined overhead vs replicated fraction (PartRePer trade-off) ==")
	fmt.Fprintf(w, "%-10s %8s %-24s", "app", "rfactor", "placement")
	if detectorSweep {
		fmt.Fprintf(w, " %-23s", "detector")
	}
	fmt.Fprintf(w, " %10s %8s %8s %15s %10s %12s\n",
		"ckpt(s)", "ckpts", "avoided", "recover/fail(s)", "total(s)", "overhead(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.2f %-24s", r.App, r.Factor, r.Policy)
		if detectorSweep {
			fmt.Fprintf(w, " %-23s", r.Detector)
		}
		fmt.Fprintf(w, " %10.3f %8d %8d %15.3f %10.3f %11.1f%%\n",
			r.CkptS, r.CkptCount, r.CkptAvoided, r.RecoveryPerFailure, r.TotalS, r.OverheadPct)
	}
	fmt.Fprintln(w)
}
