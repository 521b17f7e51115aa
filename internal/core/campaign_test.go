package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/obs"
	"match/internal/restart"
	"match/internal/simnet"
)

// A k=1 campaign cell must reproduce today's single-failure run
// byte-for-byte: same schedule draw, same breakdown. This is the
// compatibility contract that keeps every calibrated figure valid under
// the campaign generalization.
func TestCampaignK1MatchesLegacySingleFailure(t *testing.T) {
	for _, d := range Designs() {
		params := tinyParams("HPCCG")
		legacy := Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4,
			Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 7}
		viaK := legacy
		viaK.Faults = 1
		a, err := Run(legacy)
		if err != nil {
			t.Fatalf("%v legacy: %v", d, err)
		}
		b, err := Run(viaK)
		if err != nil {
			t.Fatalf("%v k=1: %v", d, err)
		}
		if a != b {
			t.Fatalf("%v: k=1 campaign diverges from legacy single failure:\n%+v\n%+v", d, a, b)
		}
	}
}

// Multi-failure campaigns must complete on every design with every scheduled
// failure recovered and a deterministic breakdown.
func TestMultiFailureEveryDesign(t *testing.T) {
	for _, app := range []string{"HPCCG", "CoMD"} {
		for _, d := range Designs() {
			for _, k := range []int{2, 3} {
				params := tinyParams(app)
				cfg := Config{App: app, Design: d, Procs: 8, Nodes: 4,
					Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: k, FaultSeed: 5}
				a, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%v k=%d: %v", app, d, k, err)
				}
				if !a.Completed {
					t.Fatalf("%s/%v k=%d did not complete", app, d, k)
				}
				if a.FaultsInjected != k {
					t.Fatalf("%s/%v k=%d: only %d faults fired", app, d, k, a.FaultsInjected)
				}
				// Recoveries can merge (a restart absorbs a failure that
				// lands inside its detect window) but never exceed the
				// failure count, and at least one must have happened.
				if a.Recoveries < 1 || a.Recoveries > k {
					t.Fatalf("%s/%v k=%d: %d recoveries", app, d, k, a.Recoveries)
				}
				b, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%v k=%d rerun: %v", app, d, k, err)
				}
				if a != b {
					t.Fatalf("%s/%v k=%d not deterministic:\n%+v\n%+v", app, d, k, a, b)
				}
			}
		}
	}
}

// The multi-failure answer must still be the failure-free answer.
func TestMultiFailureRecoversExactAnswer(t *testing.T) {
	params := tinyParams("miniFE")
	ref, err := Run(Config{App: "miniFE", Design: ReinitFTI, Procs: 8, Nodes: 4, Params: params, CkptPolicy: ckpt.Config{Stride: 3}})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, d := range Designs() {
		bd, err := Run(Config{App: "miniFE", Design: d, Procs: 8, Nodes: 4,
			Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 3, FaultSeed: 2})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if bd.Signature != ref.Signature {
			t.Fatalf("%v: recovered signature %v != failure-free %v", d, bd.Signature, ref.Signature)
		}
	}
}

// Campaign output must be independent of the worker count: the sweep
// pool must not change result ordering or values.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	req := CampaignRequest{
		Apps:      []string{"HPCCG"},
		Procs:     8,
		MaxFaults: 2,
		Seed:      3,
	}
	// 8-rank override for speed: campaign cells resolve Table I params at
	// Procs=8 via ResolveParams, which works for HPCCG.
	var out1, out8 strings.Builder
	r1, err := CampaignRunner{Workers: 1}.Run(req, &out1)
	if err != nil {
		t.Fatalf("-j 1: %v", err)
	}
	r8, err := CampaignRunner{Workers: 8}.Run(req, &out8)
	if err != nil {
		t.Fatalf("-j 8: %v", err)
	}
	if out1.String() != out8.String() {
		t.Fatalf("campaign table differs between -j 1 and -j 8:\n%s\n---\n%s", out1.String(), out8.String())
	}
	var csv1, csv8 strings.Builder
	WriteCSV(&csv1, r1)
	WriteCSV(&csv8, r8)
	if csv1.String() != csv8.String() {
		t.Fatalf("campaign CSV differs between -j 1 and -j 8:\n%s\n---\n%s", csv1.String(), csv8.String())
	}
	if len(r1) != 3*len(Designs()) { // k = 0,1,2 x designs
		t.Fatalf("campaign results = %d, want %d", len(r1), 3*len(Designs()))
	}
	cr := ComputeCrossover(r1)
	if len(cr.Ks) != 3 || cr.Ks[0] != 0 || cr.Ks[2] != 2 {
		t.Fatalf("crossover ks = %v", cr.Ks)
	}
	var sb strings.Builder
	cr.Write(&sb)
	if !strings.Contains(sb.String(), "crossover") {
		t.Fatalf("crossover report malformed:\n%s", sb.String())
	}
}

// TestCampaignAllAppsK3Small64 pins the campaign acceptance bar: a k=3
// campaign completes on every app x design pair at the paper-scale
// default configuration (64 procs, Small input), with every scheduled
// failure fired. Without -figures it runs the same matrix at 8 procs.
func TestCampaignAllAppsK3Small64(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign matrix skipped in -short mode")
	}
	var cfgs []Config
	for _, app := range allApps {
		for _, d := range Designs() {
			cfgs = append(cfgs, Config{App: app, Design: d, Procs: acceptanceProcs(),
				Input: Small, Faults: 3, FaultSeed: 1})
		}
	}
	results, err := CampaignRunner{}.Cells(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Breakdown.Completed {
			t.Errorf("%s: did not complete", r.Key())
		}
		if r.Breakdown.FaultsInjected != 3 {
			t.Errorf("%s: %d faults fired, want 3", r.Key(), r.Breakdown.FaultsInjected)
		}
		if r.Breakdown.Recoveries < 1 {
			t.Errorf("%s: no recovery recorded", r.Key())
		}
	}
}

// The error contract of the one sweep executor: a failing cell in the
// middle of a list returns exactly the cells before it plus its error,
// whatever the worker count, and still closes its cell_start in the event
// log with a cell_finish that carries the error.
func TestCellsErrorContract(t *testing.T) {
	ok := Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4, Params: tinyParams("HPCCG")}
	cfgs := []Config{ok, ok, {App: "no-such-app", Procs: 8}, ok, ok, ok}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			var events bytes.Buffer
			results, err := CampaignRunner{Workers: workers, Log: obs.NewLog(&events)}.Cells(cfgs, 1)
			if err == nil || !strings.Contains(err.Error(), "no-such-app") {
				t.Fatalf("err = %v, want the unknown app's", err)
			}
			if len(results) != 2 {
				t.Fatalf("%d results, want the 2 cells before the failing one", len(results))
			}
			for i, r := range results {
				if !r.Breakdown.Completed || r.Config.App != cfgs[i].App {
					t.Fatalf("prefix cell %d not a finished run of its config: %+v", i, r)
				}
			}
			failed := 0
			for _, line := range strings.Split(events.String(), "\n") {
				if strings.Contains(line, `"msg":"cell_finish"`) && strings.Contains(line, `"error":`) {
					failed++
					if !strings.Contains(line, `"cell":2`) || !strings.Contains(line, `"cached":false`) {
						t.Fatalf("failed cell's finish event malformed: %s", line)
					}
				}
			}
			if failed != 1 {
				t.Fatalf("%d cell_finish events carry an error, want 1:\n%s", failed, events.String())
			}
		})
	}
}

// A restart run whose launcher exhausts its relaunch budget reports that,
// like the replica design does, instead of a generic incomplete-run error.
// Rank 3 dies at iteration 2 of every incarnation: one kill more than the
// budget, each gated on the relaunches before it.
func TestRestartGaveUpIsReported(t *testing.T) {
	var sched fault.Schedule
	for k := 0; k <= restart.MaxRelaunches; k++ {
		sched.Events = append(sched.Events, fault.Event{TargetRank: 3, TargetIter: 2, AfterRecoveries: k})
	}
	_, err := Run(Config{App: "HPCCG", Design: RestartFTI, Procs: 8, Nodes: 4,
		Params: tinyParams("HPCCG"), Schedule: &sched})
	if want := fmt.Sprintf("restart: gave up after %d relaunches", restart.MaxRelaunches); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestCampaignDetectorSweepDimension pins the detection axis of the
// campaign matrix: every detector configuration multiplies the cells, the
// sweep completes, and the trade-off analysis yields one row per
// (design, detector) with the slower ring reporting the larger detection
// latency.
func TestCampaignDetectorSweepDimension(t *testing.T) {
	detectors := []detect.Config{
		detect.Resolve(detect.Config{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}, detect.Config{}),
		detect.Resolve(detect.Config{Kind: detect.Ring, HeartbeatPeriod: 150 * simnet.Millisecond}, detect.Config{}),
	}
	req := CampaignRequest{
		Apps:      []string{"HPCCG"},
		Procs:     8,
		MaxFaults: 1,
		Seed:      3,
		Detectors: detectors,
	}
	if got, want := len(req.Configs()), 2*2*len(Designs()); got != want {
		t.Fatalf("sweep size = %d, want %d (detectors x k x designs)", got, want)
	}
	var out strings.Builder
	results, err := CampaignRunner{}.Run(req, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "detector") {
		t.Fatalf("campaign table misses the detector column:\n%s", out.String())
	}
	rows := ComputeDetectionTradeoff(results)
	if len(rows) != 2*len(Designs()) {
		t.Fatalf("tradeoff rows = %d, want %d", len(rows), 2*len(Designs()))
	}
	perDesign := map[Design][]DetectionTradeoff{}
	for _, r := range rows {
		perDesign[r.Design] = append(perDesign[r.Design], r)
	}
	for d, rs := range perDesign {
		if len(rs) != 2 {
			t.Fatalf("%s: %d tradeoff rows, want 2", d, len(rs))
		}
		// Sweep order is preserved: rs[0] is the 50ms ring, rs[1] the 150ms
		// one; detection latency must grow with the period for every design.
		if rs[0].DetectPerFailure >= rs[1].DetectPerFailure {
			t.Fatalf("%s: detect/fail not monotonic in period: %+v", d, rs)
		}
	}
	var sb strings.Builder
	WriteDetectionTradeoff(&sb, rows)
	if !strings.Contains(sb.String(), "interference") {
		t.Fatalf("tradeoff table malformed:\n%s", sb.String())
	}
}

// TestInWindowFailureRegime pins the regime only in-band detection can
// express: two replica deaths in one group landing inside a single
// detection window. Under the instant launcher preset the first death is
// handled by a failover before the second arrives (two recoveries); under
// a ring detector the second death beats the first confirmation, so the
// group is already exhausted when the runtime finally learns of it and
// the run goes straight to the checkpoint fallback (one recovery).
func TestInWindowFailureRegime(t *testing.T) {
	params := tinyParams("HPCCG")
	sched := fault.Schedule{Events: []fault.Event{
		{TargetRank: 2, TargetIter: 2, TargetReplica: 1},
		{TargetRank: 2, TargetIter: 4, TargetReplica: 0},
	}}
	base := Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Schedule: &sched}

	launcher, err := Run(base)
	if err != nil {
		t.Fatalf("launcher preset: %v", err)
	}
	ring := base
	ring.Detector = detect.Config{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}
	inband, err := Run(ring)
	if err != nil {
		t.Fatalf("ring detector: %v", err)
	}
	if launcher.Recoveries != 2 {
		t.Fatalf("launcher recoveries = %d, want 2 (failover then fallback)", launcher.Recoveries)
	}
	if inband.Recoveries != 1 {
		t.Fatalf("in-band recoveries = %d, want 1 (second death inside the window exhausts the group before confirmation)", inband.Recoveries)
	}
	if launcher.Signature != inband.Signature {
		t.Fatalf("answers diverge: %v vs %v", launcher.Signature, inband.Signature)
	}
}

// An explicit schedule drives failures exactly where it says, including a
// second hit on the already-degraded replica group (forcing the
// checkpoint-only fallback) and an AfterRecoveries-gated event.
func TestExplicitScheduleDegradedGroupFallback(t *testing.T) {
	params := tinyParams("HPCCG")
	// Kill the shadow replica of rank 2 first (stable replica index 1),
	// then — after that failover — the primary (index 0): the group is
	// exhausted and the run must fall back to checkpoint-only relaunch.
	sched := fault.Schedule{Events: []fault.Event{
		{TargetRank: 2, TargetIter: 2, TargetReplica: 1},
		{TargetRank: 2, TargetIter: 6, TargetReplica: 0, AfterRecoveries: 1},
	}}
	cfg := Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Schedule: &sched}
	ref, err := Run(Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4, Params: params, CkptPolicy: ckpt.Config{Stride: 3}})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2 (failover + fallback relaunch)", a.Recoveries)
	}
	if a.Signature != ref.Signature {
		t.Fatalf("signature %v != failure-free %v", a.Signature, ref.Signature)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if a != b {
		t.Fatalf("explicit schedule not deterministic:\n%+v\n%+v", a, b)
	}
}
