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

// pairKey is the one identity the campaign analyses pair results by: the
// CellKey of the result's cell after vary has set the axes the comparison
// varies, so two results compare exactly when they run the same cell but
// for those axes, and an axis a request gains splits the pairs with no
// analysis touched. A config that does not resolve (Cells never returns
// one) keys by its error.
func pairKey(cfg Config, vary func(*Config)) string {
	vary(&cfg)
	key, err := CellKey(cfg, 1)
	if err != nil {
		return "invalid: " + err.Error()
	}
	return key
}

// WriteCampaign renders campaign results: one block per application, one
// row per (failure count, design) — and per scale, input, detector,
// placement policy, replica factor or hot-spare variant, when the results
// hold more than one — with the execution-time breakdown and the total
// overhead relative to the row's failure-free twin: the same cell with no
// failures scheduled.
func WriteCampaign(w io.Writer, results []Result) {
	fmt.Fprintln(w, "== Multi-failure campaign: recovery time and total overhead vs failure count ==")
	byApp := map[string][]int{} // indices into results
	var apps []string
	twin := make([]string, len(results))
	base := map[string]float64{}
	procs, inputs := map[int]bool{}, map[InputSize]bool{}
	detectorSweep, policySweep, factorSweep, spareSweep := false, false, false, false
	for i, r := range results {
		if _, ok := byApp[r.Config.App]; !ok {
			apps = append(apps, r.Config.App)
		}
		byApp[r.Config.App] = append(byApp[r.Config.App], i)
		twin[i] = pairKey(r.Config, failureFree)
		if r.Config.FaultCount() == 0 {
			base[twin[i]] = r.Breakdown.Total.Seconds()
		}
		procs[r.Config.Procs], inputs[r.Config.Input] = true, true
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
	procsSweep, inputSweep := len(procs) > 1, len(inputs) > 1
	sort.Strings(apps)
	for _, app := range apps {
		rs := byApp[app]
		sort.SliceStable(rs, func(i, j int) bool {
			ci, cj := results[rs[i]].Config, results[rs[j]].Config
			if a, b := ci.FaultCount(), cj.FaultCount(); a != b {
				return a < b
			}
			if a, b := ci.Design, cj.Design; a != b {
				return a < b
			}
			if a, b := ReplicaFactorOf(ci), ReplicaFactorOf(cj); a != b {
				return a < b
			}
			if a, b := ci.CkptPolicy.String(), cj.CkptPolicy.String(); a != b {
				return a < b
			}
			if a, b := HotSpareOf(ci), HotSpareOf(cj); a != b {
				return !a // hot-spare off sorts first (the baseline)
			}
			return ci.Detector.String() < cj.Detector.String()
		})
		fmt.Fprintf(w, "\n-- %s --\n", app)
		fmt.Fprintf(w, "%-8s %-12s", "faults", "design")
		if procsSweep {
			fmt.Fprintf(w, " %6s", "procs")
		}
		if inputSweep {
			fmt.Fprintf(w, " %-6s", "input")
		}
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
		for _, i := range rs {
			r, bd := results[i], results[i].Breakdown
			over, overPct := "", ""
			if b, ok := base[twin[i]]; ok {
				d := bd.Total.Seconds() - b
				over = fmt.Sprintf("%12.3f", d)
				if b > 0 {
					overPct = fmt.Sprintf("%11.1f%%", 100*d/b)
				}
			}
			fmt.Fprintf(w, "%-8d %-12s", r.Config.FaultCount(), r.Config.Design)
			if procsSweep {
				fmt.Fprintf(w, " %6d", r.Config.Procs)
			}
			if inputSweep {
				fmt.Fprintf(w, " %-6s", r.Config.Input)
			}
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

// DetectionTradeoff is one point of the detection-vs-interference curve: a
// (design, detector) pair with its measured detection latency, recovery
// time, and the steady-state cost of running that detector at all —
// failure-free total time relative to the same cell under the sweep's
// first detector configuration.
type DetectionTradeoff struct {
	Design   Design
	Detector string
	// DetectPerFailure and RecoveryPerFailure average over every failure
	// of every k>0 campaign cell (seconds).
	DetectPerFailure   float64
	RecoveryPerFailure float64
	// InterferencePct is the failure-free (k=0) total-time overhead of
	// this detector vs the sweep's baseline detector, averaged over the
	// failure-free cells it ran.
	InterferencePct float64
	Cells           int
}

// ComputeDetectionTradeoff derives the per-design trade-off curve from
// campaign results that swept the detection axis: how buying a shorter
// detection latency (faster heartbeats) raises steady-state interference,
// and vice versa. A failure-free cell's interference baseline is the first
// failure-free result that runs the same cell but for its detector — the
// sweep's first entry — so no other axis of a combined sweep is charged
// to the detector.
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
	noDetector := func(c *Config) { c.Detector = detect.Config{} }
	base := map[string]float64{}
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
			bk := pairKey(r.Config, noDetector)
			b, ok := base[bk]
			if !ok {
				b = r.Breakdown.Total.Seconds()
				base[bk] = b
			}
			if b > 0 {
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
