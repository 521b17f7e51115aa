// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V). Each benchmark runs the corresponding experiment matrix
// and reports the headline series as custom metrics; the full printed
// tables come from `go run ./cmd/matchsuite -all`.
//
// Defaults keep the matrices small enough for routine benchmarking (two
// representative applications, two scaling points). Set MATCH_BENCH_FULL=1
// to run the complete paper matrix (all six applications, all four scales,
// all three inputs), and MATCH_BENCH_PRINT=1 to print the paper-style
// tables while benchmarking.
package match_test

import (
	"io"
	"os"
	"testing"

	"match/internal/ckpt"
	"match/internal/core"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/replica"
	"match/internal/simnet"
	"match/internal/ulfm"
)

// benchFigureRequest is the figure's sweep, narrowed to the routine
// benchmarking matrix unless MATCH_BENCH_FULL is set.
func benchFigureRequest(b *testing.B, fig int) core.CampaignRequest {
	req, err := core.FigureRequest(fig)
	if err != nil {
		b.Fatal(err)
	}
	if os.Getenv("MATCH_BENCH_FULL") == "" {
		req.Apps = []string{"HPCCG", "miniVite"}
		if len(req.Scales) > 0 {
			req.Scales = []int{64, 128}
		}
	}
	return req
}

func benchOut() io.Writer {
	if os.Getenv("MATCH_BENCH_PRINT") != "" {
		return os.Stdout
	}
	return io.Discard
}

// summarize attaches per-design mean component metrics to the benchmark.
func summarize(b *testing.B, results []core.Result) {
	type agg struct {
		app, ckpt, rec float64
		n              int
	}
	per := map[core.Design]*agg{}
	for _, r := range results {
		a := per[r.Config.Design]
		if a == nil {
			a = &agg{}
			per[r.Config.Design] = a
		}
		a.app += r.Breakdown.App.Seconds()
		a.ckpt += r.Breakdown.Ckpt.Seconds()
		a.rec += r.Breakdown.Recovery.Seconds()
		a.n++
	}
	for d, a := range per {
		n := float64(a.n)
		b.ReportMetric(a.app/n, d.String()+"_app_s")
		b.ReportMetric(a.rec/n, d.String()+"_recovery_s")
		_ = a.ckpt
	}
}

func benchFigure(b *testing.B, fig int) {
	b.Helper()
	req := benchFigureRequest(b, fig)
	var last []core.Result
	for i := 0; i < b.N; i++ {
		results, err := core.CampaignRunner{}.Run(req, nil)
		if err != nil {
			b.Fatal(err)
		}
		core.WriteFigure(benchOut(), fig, results)
		last = results
	}
	summarize(b, last)
}

// BenchmarkTableI regenerates Table I (configuration resolution for every
// app x input x design cell).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.WriteTableI(benchOut())
		for _, e := range core.TableI() {
			if _, _, err := core.ResolveParams(core.Config{App: e.App, Input: e.Input}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: execution-time breakdown across
// scaling sizes without failures.
func BenchmarkFig5_BreakdownScaling_NoFailure(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFig6 regenerates Figure 6: breakdown across scaling sizes while
// recovering from an injected process failure.
func BenchmarkFig6_BreakdownScaling_Failure(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFig7 regenerates Figure 7: MPI recovery time vs. scale.
func BenchmarkFig7_RecoveryTime_Scaling(b *testing.B) { benchFigure(b, 7) }

// BenchmarkFig8 regenerates Figure 8: breakdown across input sizes without
// failures.
func BenchmarkFig8_BreakdownInputs_NoFailure(b *testing.B) { benchFigure(b, 8) }

// BenchmarkFig9 regenerates Figure 9: breakdown across input sizes with an
// injected failure.
func BenchmarkFig9_BreakdownInputs_Failure(b *testing.B) { benchFigure(b, 9) }

// BenchmarkFig10 regenerates Figure 10: recovery time vs. input size.
func BenchmarkFig10_RecoveryTime_Inputs(b *testing.B) { benchFigure(b, 10) }

// BenchmarkHeadlineRatios reproduces the §V-C ratio computation from the
// Figure 6 matrix (Reinit vs ULFM vs Restart recovery).
func BenchmarkHeadlineRatios(b *testing.B) {
	req := benchFigureRequest(b, 6)
	for i := 0; i < b.N; i++ {
		results, err := core.CampaignRunner{}.Run(req, nil)
		if err != nil {
			b.Fatal(err)
		}
		r := core.ComputeRatios(results)
		b.ReportMetric(r.UlfmOverReinitAvg, "ulfm_over_reinit")
		b.ReportMetric(r.RestartOverReinitAvg, "restart_over_reinit")
		b.ReportMetric(100*r.CkptShareAvg, "ckpt_share_pct")
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationCkptStride varies the checkpoint interval the paper
// fixes at 10, quantifying the protection/overhead trade-off (A2).
func BenchmarkAblationCkptStride(b *testing.B) {
	for _, stride := range []int{2, 5, 10, 25} {
		stride := stride
		b.Run(map[int]string{2: "stride2", 5: "stride5", 10: "stride10", 25: "stride25"}[stride], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd, err := core.Run(core.Config{
					App: "HPCCG", Design: core.ReinitFTI, Procs: 64,
					Input: core.Small, CkptStride: stride,
					InjectFault: true, FaultSeed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bd.Total.Seconds(), "total_s")
				b.ReportMetric(bd.Ckpt.Seconds(), "ckpt_s")
			}
		})
	}
}

// BenchmarkAblationCkptPolicy compares the checkpoint-placement policies
// on the replica design, where placement interacts with replication: the
// replica-aware policy trades checkpoint spend against fallback exposure.
func BenchmarkAblationCkptPolicy(b *testing.B) {
	for _, kind := range []ckpt.Kind{ckpt.Fixed, ckpt.MultiLevel, ckpt.ReplicaAware, ckpt.Adaptive} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd, err := core.Run(core.Config{
					App: "HPCCG", Design: core.ReplicaFTI, Procs: 64,
					Input: core.Small, CkptPolicy: ckpt.Config{Kind: kind},
					InjectFault: true, FaultSeed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bd.Total.Seconds(), "total_s")
				b.ReportMetric(bd.Ckpt.Seconds(), "ckpt_s")
				b.ReportMetric(float64(bd.CkptAvoided), "ckpt_avoided")
			}
		})
	}
}

// BenchmarkAblationHotSpare measures what background respawn buys the
// replica design on a repeat failure: the same double hit on one replica
// group absorbed by the spare's failover (on) vs the checkpoint fallback
// (off).
func BenchmarkAblationHotSpare(b *testing.B) {
	sched, err := fault.ParseSchedule("5@20:replica=1,5@45:replica=0")
	if err != nil {
		b.Fatal(err)
	}
	for _, hs := range []bool{false, true} {
		hs := hs
		b.Run(map[bool]string{false: "off", true: "on"}[hs], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd, err := core.Run(core.Config{
					App: "HPCCG", Design: core.ReplicaFTI, Procs: 64,
					Input: core.Small, Schedule: &sched, Replica: replica.Config{HotSpare: hs},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bd.Recovery.Seconds(), "recovery_s")
				b.ReportMetric(bd.Total.Seconds(), "total_s")
				b.ReportMetric(float64(bd.Respawns), "respawns")
			}
		})
	}
}

// BenchmarkAblationFTILevels compares the four checkpoint levels (A3).
func BenchmarkAblationFTILevels(b *testing.B) {
	for _, level := range []fti.Level{fti.L1, fti.L2, fti.L3, fti.L4} {
		level := level
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd, err := core.Run(core.Config{
					App: "CoMD", Design: core.ReinitFTI, Procs: 64,
					Input: core.Small, FTILevel: level,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bd.Ckpt.Seconds(), "ckpt_s")
			}
		})
	}
}

// BenchmarkAblationHeartbeat varies the ULFM failure detector period (A4):
// faster detection shortens recovery but raises steady-state interference.
func BenchmarkAblationHeartbeat(b *testing.B) {
	for _, period := range []simnet.Time{25 * simnet.Millisecond, 100 * simnet.Millisecond, 400 * simnet.Millisecond} {
		period := period
		b.Run(period.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd, err := core.Run(core.Config{
					App: "HPCCG", Design: core.UlfmFTI, Procs: 64,
					Input: core.Small, InjectFault: true, FaultSeed: 5,
					Ulfm: ulfm.Config{HeartbeatPeriod: period, DetectTimeout: 3 * period},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bd.Recovery.Seconds(), "recovery_s")
				b.ReportMetric(bd.App.Seconds(), "app_s")
			}
		})
	}
}

// BenchmarkAblationUlfmProgressFactor isolates ULFM's interposed-progress
// slowdown (A1): with the factor off, ULFM's steady-state application time
// approaches the baseline.
func BenchmarkAblationUlfmProgressFactor(b *testing.B) {
	for _, f := range []float64{-1, 0.25, 0.5} { // -1 disables (sentinel for 0)
		name := map[float64]string{-1: "off", 0.25: "x0.25", 0.5: "x0.50"}[f]
		cfgF := f
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := ulfm.Config{}
				if cfgF > 0 {
					u.DeliveryFactor = cfgF
				} else {
					u.DeliveryFactor = 1e-9
				}
				bd, err := core.Run(core.Config{
					App: "HPCCG", Design: core.UlfmFTI, Procs: 128,
					Input: core.Small, Ulfm: u,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bd.App.Seconds(), "app_s")
			}
		})
	}
}

// BenchmarkCampaignThroughput measures end-to-end simulator throughput on
// a representative multi-design, multi-axis campaign sweep: two
// applications, all four designs, k = 0..2 scheduled failures, and the
// hot-spare axis on the replica design (30 cells). It reports
// campaign_virt_s, the summed virtual time of every cell, which is
// deterministic and gated like any other figure; the cells/sec beside it
// is host speed for the eye only — matchbench drops it, and host-time
// claims are made and judged in bench/.
func BenchmarkCampaignThroughput(b *testing.B) {
	req := core.CampaignRequest{
		Apps:      []string{"HPCCG", "miniVite"},
		MaxFaults: 2,
		Seed:      7,
		HotSpares: []bool{false, true},
	}
	cells := len(req.Configs())
	var virt float64
	for i := 0; i < b.N; i++ {
		results, err := core.CampaignRunner{}.Run(req, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		virt = 0
		for _, r := range results {
			virt += r.Breakdown.Total.Seconds()
		}
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/sec")
	b.ReportMetric(virt, "campaign_virt_s")
}

// --- Substrate micro-benchmarks ---

// BenchmarkMPIAllreduce measures the simulated collective path (host cost
// of simulating one 64-rank allreduce).
func BenchmarkMPIAllreduce64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := simnet.NewCluster(simnet.Config{Nodes: 8})
		mpi.Launch(c, 64, 0, func(r *mpi.Rank) {
			w := r.Job().World()
			for k := 0; k < 10; k++ {
				if _, err := mpi.AllreduceF64Scalar(r, w, 1.0, mpi.OpSum); err != nil {
					b.Error(err)
					return
				}
			}
		})
		c.Run()
	}
}
