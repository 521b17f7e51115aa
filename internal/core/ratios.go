package core

import (
	"fmt"
	"io"
	"sort"
)

// Ratios are the paper's §V-C headline comparisons, derived from
// with-failure runs (Figures 6/7 data), extended with the replication
// design's trade-off: recovery even cheaper than Reinit, bought with
// steady-state slowdown and doubled resources.
type Ratios struct {
	UlfmOverReinitAvg    float64 // paper: ~4x
	UlfmOverReinitMax    float64 // paper: up to 13x
	RestartOverReinitAvg float64 // paper: ~16x
	RestartOverReinitMax float64 // paper: up to 22x
	RestartOverUlfmAvg   float64 // paper: 2-3x
	CkptShareAvg         float64 // checkpoint share of total time; paper: ~13%

	// ReplicaFTI extension (no paper analog).
	ReinitOverReplicaAvg      float64 // rollback-free failover vs the fastest rollback design
	ReinitOverReplicaMax      float64
	ReplicaOverReinitTotalAvg float64 // replica total / reinit total on the failure runs;
	// below 1 means rollback-free failover beat the fastest rollback design
	// end-to-end despite replication's duplication overhead

	Samples int
}

// ComputeRatios derives the headline ratios from a result set containing
// the designs for matching (app, procs, input) cells.
func ComputeRatios(results []Result) Ratios {
	type cell struct {
		app, input string
		procs      int
	}
	rec := map[cell]map[Design]Breakdown{}
	var order []cell // first-seen order: deterministic float summation
	var ratios Ratios
	var ckptShareSum float64
	var ckptN int
	for _, r := range results {
		c := cell{r.Config.App, r.Config.Input.String(), r.Config.Procs}
		if rec[c] == nil {
			rec[c] = map[Design]Breakdown{}
			order = append(order, c)
		}
		rec[c][r.Config.Design] = r.Breakdown
		if r.Breakdown.Total > 0 && r.Breakdown.Ckpt > 0 {
			ckptShareSum += r.Breakdown.Ckpt.Seconds() / r.Breakdown.Total.Seconds()
			ckptN++
		}
	}
	var ur, rr, ru, rpr, rps []float64
	for _, c := range order {
		m := rec[c]
		re, haveRe := m[ReinitFTI]
		ul, haveUl := m[UlfmFTI]
		rs, haveRs := m[RestartFTI]
		rp, haveRp := m[ReplicaFTI]
		if haveRe && haveUl && re.Recovery > 0 {
			ur = append(ur, ul.Recovery.Seconds()/re.Recovery.Seconds())
		}
		if haveRe && haveRs && re.Recovery > 0 {
			rr = append(rr, rs.Recovery.Seconds()/re.Recovery.Seconds())
		}
		if haveUl && haveRs && ul.Recovery > 0 {
			ru = append(ru, rs.Recovery.Seconds()/ul.Recovery.Seconds())
		}
		if haveRe && haveRp && rp.Recovery > 0 {
			rpr = append(rpr, re.Recovery.Seconds()/rp.Recovery.Seconds())
		}
		if haveRe && haveRp && re.Total > 0 {
			rps = append(rps, rp.Total.Seconds()/re.Total.Seconds())
		}
	}
	ratios.UlfmOverReinitAvg, ratios.UlfmOverReinitMax = avgMax(ur)
	ratios.RestartOverReinitAvg, ratios.RestartOverReinitMax = avgMax(rr)
	ratios.RestartOverUlfmAvg, _ = avgMax(ru)
	ratios.ReinitOverReplicaAvg, ratios.ReinitOverReplicaMax = avgMax(rpr)
	ratios.ReplicaOverReinitTotalAvg, _ = avgMax(rps)
	if ckptN > 0 {
		ratios.CkptShareAvg = ckptShareSum / float64(ckptN)
	}
	ratios.Samples = len(ur)
	return ratios
}

// Crossover is the campaign-level headline: how the Replica/Reinit
// end-to-end comparison moves as failures accumulate. For each failure
// count k it averages, over the (app, procs, input) cells that ran both
// designs, the ratio of Replica's total time to Reinit's; CrossoverK is
// the smallest k where replication wins end-to-end (ratio < 1) — the point
// where paying replication's steady-state duplication is cheaper than
// paying Reinit's k rollbacks — or -1 if it never does.
type Crossover struct {
	Ks                        []int
	ReplicaOverReinitTotal    []float64 // per k, avg Replica total / Reinit total
	ReinitOverReplicaRecovery []float64 // per k, avg Reinit recovery / Replica recovery
	CrossoverK                int
	Samples                   int
}

// ComputeCrossover derives the crossover analysis from campaign results.
// Cells are additionally keyed by the swept axes (detector, placement
// policy, replica factor), so a multi-axis campaign compares designs
// within matching configurations instead of overwriting across the sweep.
func ComputeCrossover(results []Result) Crossover {
	type cell struct {
		app, input       string
		procs, k         int
		detector, policy string
		dup              int
		rfactor          float64
		hotSpare         bool
	}
	rec := map[cell]map[Design]Breakdown{}
	var order []cell // first-seen order: deterministic float summation
	for _, r := range results {
		// The replica knobs are keyed raw (not via ReplicaFactorOf, which
		// is design-dependent) so every design of one sweep point shares a
		// cell. Hot-spare, being replica-only, is keyed effective: a sweep
		// of both variants must not overwrite the replica breakdown, and
		// the on-variant cells are compared via HotSpareCrossovers.
		c := cell{r.Config.App, r.Config.Input.String(), r.Config.Procs, r.Config.FaultCount(),
			r.Config.Detector.String(), r.Config.CkptPolicy.String(),
			r.Config.Replica.DupDegree, r.Config.Replica.ReplicaFactor, HotSpareOf(r.Config)}
		if rec[c] == nil {
			rec[c] = map[Design]Breakdown{}
			order = append(order, c)
		}
		rec[c][r.Config.Design] = r.Breakdown
	}
	totals := map[int][]float64{}
	recovs := map[int][]float64{}
	samples := 0
	for _, c := range order {
		m := rec[c]
		re, haveRe := m[ReinitFTI]
		rp, haveRp := m[ReplicaFTI]
		if !haveRe || !haveRp {
			continue
		}
		samples++
		if re.Total > 0 {
			totals[c.k] = append(totals[c.k], rp.Total.Seconds()/re.Total.Seconds())
		}
		if rp.Recovery > 0 {
			recovs[c.k] = append(recovs[c.k], re.Recovery.Seconds()/rp.Recovery.Seconds())
		}
	}
	var ks []int
	for k := range totals {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	cr := Crossover{CrossoverK: -1, Samples: samples}
	for _, k := range ks {
		tAvg, _ := avgMax(totals[k])
		rAvg, _ := avgMax(recovs[k])
		cr.Ks = append(cr.Ks, k)
		cr.ReplicaOverReinitTotal = append(cr.ReplicaOverReinitTotal, tAvg)
		cr.ReinitOverReplicaRecovery = append(cr.ReinitOverReplicaRecovery, rAvg)
		if cr.CrossoverK < 0 && tAvg > 0 && tAvg < 1 {
			cr.CrossoverK = k
		}
	}
	return cr
}

// HotSpareCrossovers splits a campaign that swept the respawn axis
// (CampaignRequest.HotSpares) into one Replica-vs-Reinit crossover per
// hot-spare variant: the replica design's cells of that variant, compared
// against the shared unreplicated designs. The on-variant shows where
// background respawn moves the crossover — each spare that absorbs a
// repeat hit converts a checkpoint rollback into a failover, and, under
// replica-aware placement, restores the stretched checkpoint stride.
// swept is false when the results hold only one variant (plain campaigns);
// callers then fall back to the single ComputeCrossover.
func HotSpareCrossovers(results []Result) (off, on Crossover, swept bool) {
	haveOff, haveOn := false, false
	for _, r := range results {
		if r.Config.Design != ReplicaFTI {
			continue
		}
		if HotSpareOf(r.Config) {
			haveOn = true
		} else {
			haveOff = true
		}
	}
	if !haveOff || !haveOn {
		return Crossover{}, Crossover{}, false
	}
	variant := func(want bool) []Result {
		var out []Result
		for _, r := range results {
			if r.Config.Design != ReplicaFTI || HotSpareOf(r.Config) == want {
				// Neutralize the flag so the variant's replica cells land in
				// the same crossover cells as the shared unreplicated runs.
				r.Config.Replica.HotSpare = false
				out = append(out, r)
			}
		}
		return out
	}
	return ComputeCrossover(variant(false)), ComputeCrossover(variant(true)), true
}

// Write renders the crossover table.
func (c Crossover) Write(w io.Writer) {
	fmt.Fprintln(w, "== Replica vs Reinit crossover (campaign) ==")
	fmt.Fprintf(w, "%-8s %28s %28s\n", "faults", "Replica/Reinit total (avg)", "Reinit/Replica recovery (avg)")
	for i, k := range c.Ks {
		recov := fmt.Sprintf("%28s", "-") // no recoveries at this k (k=0 row)
		if c.ReinitOverReplicaRecovery[i] > 0 {
			recov = fmt.Sprintf("%27.1fx", c.ReinitOverReplicaRecovery[i])
		}
		fmt.Fprintf(w, "%-8d %27.3fx %s\n", k, c.ReplicaOverReinitTotal[i], recov)
	}
	switch {
	case c.CrossoverK < 0:
		fmt.Fprintln(w, "no crossover: checkpointing+Reinit stays ahead end-to-end on this matrix")
	case c.CrossoverK == 0:
		fmt.Fprintln(w, "replication is ahead end-to-end even without failures on this matrix")
	default:
		fmt.Fprintf(w, "crossover at k=%d: from %d failures on, replication wins end-to-end\n", c.CrossoverK, c.CrossoverK)
	}
	fmt.Fprintf(w, "(over %d design-comparable cells)\n\n", c.Samples)
}

func avgMax(v []float64) (avg, max float64) {
	if len(v) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
		if x > max {
			max = x
		}
	}
	return sum / float64(len(v)), max
}

// Write renders the ratios next to the paper's claims.
func (r Ratios) Write(w io.Writer) {
	fmt.Fprintln(w, "== Headline ratios (paper §V-C) ==")
	fmt.Fprintf(w, "%-34s %10s %12s\n", "metric", "measured", "paper")
	fmt.Fprintf(w, "%-34s %10.1fx %12s\n", "ULFM / Reinit recovery (avg)", r.UlfmOverReinitAvg, "~4x")
	fmt.Fprintf(w, "%-34s %10.1fx %12s\n", "ULFM / Reinit recovery (max)", r.UlfmOverReinitMax, "up to 13x")
	fmt.Fprintf(w, "%-34s %10.1fx %12s\n", "Restart / Reinit recovery (avg)", r.RestartOverReinitAvg, "~16x")
	fmt.Fprintf(w, "%-34s %10.1fx %12s\n", "Restart / Reinit recovery (max)", r.RestartOverReinitMax, "up to 22x")
	fmt.Fprintf(w, "%-34s %10.1fx %12s\n", "Restart / ULFM recovery (avg)", r.RestartOverUlfmAvg, "2-3x")
	fmt.Fprintf(w, "%-34s %9.1f%% %12s\n", "checkpoint share of runtime (avg)", 100*r.CkptShareAvg, "~13%")
	fmt.Fprintf(w, "%-34s %10.1fx %12s\n", "Reinit / Replica recovery (avg)", r.ReinitOverReplicaAvg, "(extension)")
	fmt.Fprintf(w, "%-34s %10.1fx %12s\n", "Reinit / Replica recovery (max)", r.ReinitOverReplicaMax, "(extension)")
	fmt.Fprintf(w, "%-34s %10.2fx %12s\n", "Replica / Reinit total w/ failure", r.ReplicaOverReinitTotalAvg, "(extension)")
	fmt.Fprintf(w, "(over %d design-comparable cells)\n\n", r.Samples)
}
