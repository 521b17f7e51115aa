package core

import (
	"fmt"
	"io"
	"sort"

	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/replica"
)

// replicaConfigFor encodes a swept ReplicaFactor: 0 turns replication off
// entirely (an explicit dup-degree of 1 — the unprotected baseline of the
// PartRePer curve), anything else selects that fraction of replicated
// ranks at the default degree.
func replicaConfigFor(factor float64) replica.Config {
	if factor == 0 {
		return replica.Config{DupDegree: 1}
	}
	return replica.Config{ReplicaFactor: factor}
}

// ReplicaFactorOf reports the effective replication fraction of a
// configuration: 0 for the unreplicated designs and for a replica run
// forced to dup-degree 1, the configured factor (default 1, full
// replication) otherwise.
func ReplicaFactorOf(c Config) float64 {
	if c.Design != ReplicaFTI || c.Replica.DupDegree == 1 {
		return 0
	}
	if f := c.Replica.ReplicaFactor; f > 0 && f <= 1 {
		return f
	}
	return 1
}

// HotSpareOf reports whether a configuration runs with hot-spare respawn:
// true only for the replica design (the knob means nothing elsewhere) with
// Replica.HotSpare set.
func HotSpareOf(c Config) bool {
	return c.Design == ReplicaFTI && c.Replica.HotSpare
}

// WriteCampaign renders campaign results: one block per application, one
// row per (failure count, design) — and per detector, placement policy,
// or replica factor, when the campaign sweeps those axes — with the
// execution-time breakdown and the total overhead relative to that
// design's own failure-free (k=0) campaign cell under the same detector,
// policy, and factor.
func WriteCampaign(w io.Writer, results []Result) {
	fmt.Fprintln(w, "== Multi-failure campaign: recovery time and total overhead vs failure count ==")
	byApp := map[string][]Result{}
	var apps []string
	base := map[string]baseTotal{}
	detectorSweep, policySweep, factorSweep, spareSweep := false, false, false, false
	for _, r := range results {
		if _, ok := byApp[r.Config.App]; !ok {
			apps = append(apps, r.Config.App)
		}
		byApp[r.Config.App] = append(byApp[r.Config.App], r)
		if r.Config.FaultCount() == 0 {
			base[baselineKey(r.Config)] = baseTotal{t: r.Breakdown.Total.Seconds(), ok: true}
		}
		if r.Config.Detector.Kind != detect.Preset {
			detectorSweep = true
		}
		if r.Config.CkptPolicy != (ckpt.Config{}) {
			policySweep = true
		}
		if r.Config.Design == ReplicaFTI && ReplicaFactorOf(r.Config) != 1 {
			factorSweep = true
		}
		if HotSpareOf(r.Config) {
			spareSweep = true
		}
	}
	sort.Strings(apps)
	for _, app := range apps {
		rs := byApp[app]
		sort.SliceStable(rs, func(i, j int) bool {
			if a, b := rs[i].Config.FaultCount(), rs[j].Config.FaultCount(); a != b {
				return a < b
			}
			if a, b := rs[i].Config.Design, rs[j].Config.Design; a != b {
				return a < b
			}
			if a, b := ReplicaFactorOf(rs[i].Config), ReplicaFactorOf(rs[j].Config); a != b {
				return a < b
			}
			if a, b := rs[i].Config.CkptPolicy.String(), rs[j].Config.CkptPolicy.String(); a != b {
				return a < b
			}
			if a, b := HotSpareOf(rs[i].Config), HotSpareOf(rs[j].Config); a != b {
				return !a // hot-spare off sorts first (the baseline)
			}
			return rs[i].Config.Detector.String() < rs[j].Config.Detector.String()
		})
		fmt.Fprintf(w, "\n-- %s --\n", app)
		fmt.Fprintf(w, "%-8s %-12s", "faults", "design")
		if detectorSweep {
			fmt.Fprintf(w, " %-22s", "detector")
		}
		if policySweep {
			fmt.Fprintf(w, " %-24s", "placement")
		}
		if factorSweep {
			fmt.Fprintf(w, " %8s", "rfactor")
		}
		if spareSweep {
			fmt.Fprintf(w, " %9s %8s", "hot-spare", "respawns")
		}
		fmt.Fprintf(w, " %10s %12s", "recovered", "recovery(s)")
		if detectorSweep {
			fmt.Fprintf(w, " %10s", "detect(s)")
		}
		fmt.Fprintf(w, " %12s %12s %12s\n", "total(s)", "overhead(s)", "overhead(%)")
		for _, r := range rs {
			bd := r.Breakdown
			over, overPct := "", ""
			if b := base[baselineKey(r.Config)]; b.ok {
				d := bd.Total.Seconds() - b.t
				over = fmt.Sprintf("%12.3f", d)
				if b.t > 0 {
					overPct = fmt.Sprintf("%11.1f%%", 100*d/b.t)
				}
			}
			fmt.Fprintf(w, "%-8d %-12s", r.Config.FaultCount(), r.Config.Design)
			if detectorSweep {
				fmt.Fprintf(w, " %-22s", r.Config.Detector)
			}
			if policySweep {
				fmt.Fprintf(w, " %-24s", r.Config.CkptPolicy)
			}
			if factorSweep {
				fmt.Fprintf(w, " %8.2f", ReplicaFactorOf(r.Config))
			}
			if spareSweep {
				hs := "off"
				if HotSpareOf(r.Config) {
					hs = "on"
				}
				fmt.Fprintf(w, " %9s %8d", hs, bd.Respawns)
			}
			fmt.Fprintf(w, " %10d %12.3f", bd.Recoveries, bd.Recovery.Seconds())
			if detectorSweep {
				fmt.Fprintf(w, " %10.3f", bd.DetectLatency.Seconds())
			}
			fmt.Fprintf(w, " %12.3f %12s %12s\n", bd.Total.Seconds(), over, overPct)
		}
	}
	fmt.Fprintln(w)
}

// baseTotal is a present/absent failure-free total (seconds).
type baseTotal struct {
	t  float64
	ok bool
}

func baselineKey(c Config) string {
	return fmt.Sprintf("%s/%s/p%d/%s/%s/%s/rf%g/hs%t", c.App, c.Design, c.Procs, c.Input,
		c.Detector, c.CkptPolicy, ReplicaFactorOf(c), HotSpareOf(c))
}

// DetectionTradeoff is one point of the detection-vs-interference curve: a
// (design, detector) pair with its measured detection latency, recovery
// time, and the steady-state cost of running that detector at all —
// failure-free total time relative to the sweep's first detector
// configuration for the same design and app.
type DetectionTradeoff struct {
	Design   Design
	Detector string
	// DetectPerFailure and RecoveryPerFailure average over every failure
	// of every k>0 campaign cell (seconds).
	DetectPerFailure   float64
	RecoveryPerFailure float64
	// InterferencePct is the failure-free (k=0) total-time overhead of
	// this detector vs the sweep's baseline detector, averaged over apps.
	InterferencePct float64
	Cells           int
}

// ComputeDetectionTradeoff derives the per-design trade-off curve from
// campaign results that swept the detection axis: how buying a shorter
// detection latency (faster heartbeats) raises steady-state interference,
// and vice versa. The baseline for interference is the first detector
// configuration seen per (app, design) — the sweep's first entry.
func ComputeDetectionTradeoff(results []Result) []DetectionTradeoff {
	type key struct {
		design   Design
		detector string
	}
	type acc struct {
		detectSum, recoverySum float64
		failures               int
		interfSum              float64
		interfN                int
		cells                  int
	}
	// Failure-free baseline per (app, design, placement policy, replica
	// config): first detector seen. Keying the non-detector axes keeps a
	// combined sweep (e.g. -detector ring -ckpt-policy fixed,never) from
	// charging placement effects to the detector's interference column.
	type adKey struct {
		app    string
		design Design
		policy string
		dup    int
		factor float64
	}
	keyOf := func(c Config) adKey {
		return adKey{c.App, c.Design, c.CkptPolicy.String(), c.Replica.DupDegree, c.Replica.ReplicaFactor}
	}
	baseTotal := map[adKey]float64{}
	for _, r := range results {
		if r.Config.FaultCount() != 0 {
			continue
		}
		k := keyOf(r.Config)
		if _, ok := baseTotal[k]; !ok {
			baseTotal[k] = r.Breakdown.Total.Seconds()
		}
	}
	accs := map[key]*acc{}
	var order []key
	for _, r := range results {
		k := key{r.Config.Design, r.Config.Detector.String()}
		a := accs[k]
		if a == nil {
			a = &acc{}
			accs[k] = a
			order = append(order, k)
		}
		a.cells++
		if r.Config.FaultCount() == 0 {
			if b, ok := baseTotal[keyOf(r.Config)]; ok && b > 0 {
				a.interfSum += 100 * (r.Breakdown.Total.Seconds() - b) / b
				a.interfN++
			}
			continue
		}
		// Denominator: failures the detector confirmed — not recoveries,
		// which can absorb several deaths in one repair and would inflate
		// the per-failure latency.
		if n := r.Breakdown.DetectedFailures; n > 0 {
			a.detectSum += r.Breakdown.DetectLatency.Seconds()
			a.recoverySum += r.Breakdown.Recovery.Seconds()
			a.failures += n
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].design != order[j].design {
			return order[i].design < order[j].design
		}
		return false // keep sweep order within a design
	})
	out := make([]DetectionTradeoff, 0, len(order))
	for _, k := range order {
		a := accs[k]
		row := DetectionTradeoff{Design: k.design, Detector: k.detector, Cells: a.cells}
		if a.failures > 0 {
			row.DetectPerFailure = a.detectSum / float64(a.failures)
			row.RecoveryPerFailure = a.recoverySum / float64(a.failures)
		}
		if a.interfN > 0 {
			row.InterferencePct = a.interfSum / float64(a.interfN)
		}
		out = append(out, row)
	}
	return out
}

// WriteDetectionTradeoff renders the detection-vs-interference curve.
func WriteDetectionTradeoff(w io.Writer, rows []DetectionTradeoff) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "== Detection latency vs steady-state interference (per design) ==")
	fmt.Fprintf(w, "%-12s %-22s %15s %15s %16s\n",
		"design", "detector", "detect/fail(s)", "recover/fail(s)", "interference(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-22s %15.3f %15.3f %15.2f%%\n",
			r.Design, r.Detector, r.DetectPerFailure, r.RecoveryPerFailure, r.InterferencePct)
	}
	fmt.Fprintln(w)
}
