package core

import (
	"fmt"
	"io"
	"sort"
)

// ReplicaTradeoff is one point of the PartRePer-style combined-overhead
// curve: a (app, placement policy, ReplicaFactor) cell of a campaign that
// swept the replication axis, with the steady-state cost of replication
// plus checkpointing on one side and the recovery speed it buys on the
// other. The interesting regime is the combination: partial replication
// with replica-aware placement pays for its duplicated processes partly
// out of the checkpoints it no longer takes.
type ReplicaTradeoff struct {
	App    string
	Policy string
	// Factor is the fraction of replicated ranks (0 = replication off).
	Factor float64
	// CkptS and CkptCount describe the failure-free (k=0) checkpoint
	// spend; CkptAvoided counts the checkpoints the placement policy
	// skipped relative to fixed placement.
	CkptS       float64
	CkptCount   int
	CkptAvoided int
	// TotalS is the failure-free total; OverheadPct is its overhead over
	// the failure-free run at the sweep's lowest factor under the same
	// policy (factor 0 — replication off — when the sweep includes it).
	TotalS      float64
	OverheadPct float64
	// RecoveryPerFailure averages the recovery time per recovery event
	// over every k>0 cell (seconds).
	RecoveryPerFailure float64
	Cells              int
}

// ComputeReplicaTradeoff derives the combined overhead-vs-ReplicaFactor
// curve from campaign results that swept the replication axis
// (CampaignRequest.ReplicaFactors): for every app and placement policy,
// how total overhead grows and recovery time shrinks as the replicated
// fraction rises. Non-replica results are ignored.
func ComputeReplicaTradeoff(results []Result) []ReplicaTradeoff {
	type key struct {
		app    string
		policy string
		factor float64
	}
	type acc struct {
		row         ReplicaTradeoff
		recoverySum float64
		recoveries  int
		haveBase    bool
	}
	accs := map[key]*acc{}
	var order []key
	for _, r := range results {
		if r.Config.Design != ReplicaFTI {
			continue
		}
		k := key{r.Config.App, r.Config.CkptPolicy.String(), ReplicaFactorOf(r.Config)}
		a := accs[k]
		if a == nil {
			a = &acc{row: ReplicaTradeoff{App: k.app, Policy: k.policy, Factor: k.factor}}
			accs[k] = a
			order = append(order, k)
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
	sort.Slice(order, func(i, j int) bool {
		if order[i].app != order[j].app {
			return order[i].app < order[j].app
		}
		if order[i].policy != order[j].policy {
			return order[i].policy < order[j].policy
		}
		return order[i].factor < order[j].factor
	})
	// Overhead is relative to the same app+policy's lowest-factor cell —
	// the curve's origin (the unreplicated baseline when the sweep
	// includes factor 0). A hard-coded factor-0 lookup would silently
	// report 0% everywhere on sweeps like "0.5,1.0".
	baseFor := map[[2]string]float64{}
	for _, k := range order { // order is sorted: first factor per (app, policy) is lowest
		bk := [2]string{k.app, k.policy}
		if _, ok := baseFor[bk]; !ok && accs[k].haveBase {
			baseFor[bk] = accs[k].row.TotalS
		}
	}
	out := make([]ReplicaTradeoff, 0, len(order))
	for _, k := range order {
		a := accs[k]
		if a.recoveries > 0 {
			a.row.RecoveryPerFailure = a.recoverySum / float64(a.recoveries)
		}
		if base, ok := baseFor[[2]string{k.app, k.policy}]; ok && base > 0 {
			a.row.OverheadPct = 100 * (a.row.TotalS - base) / base
		}
		out = append(out, a.row)
	}
	return out
}

// WriteReplicaTradeoff renders the combined overhead-vs-ReplicaFactor
// curve.
func WriteReplicaTradeoff(w io.Writer, rows []ReplicaTradeoff) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "== ReplicaFactor sweep: combined overhead vs replicated fraction (PartRePer trade-off) ==")
	fmt.Fprintf(w, "%-10s %8s %-24s %10s %8s %8s %15s %10s %12s\n",
		"app", "rfactor", "placement", "ckpt(s)", "ckpts", "avoided", "recover/fail(s)", "total(s)", "overhead(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.2f %-24s %10.3f %8d %8d %15.3f %10.3f %11.1f%%\n",
			r.App, r.Factor, r.Policy, r.CkptS, r.CkptCount, r.CkptAvoided,
			r.RecoveryPerFailure, r.TotalS, r.OverheadPct)
	}
	fmt.Fprintln(w)
}
