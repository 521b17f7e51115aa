package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"match/internal/apps/appkit"
	"match/internal/ckpt"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/store"
)

// tinyParams returns a fast configuration for an app, suitable for the
// 8-rank integration matrix.
func tinyParams(app string) appkit.Params {
	switch app {
	case "AMG":
		return appkit.Params{NX: 4, NY: 4, NZ: 4, MaxIter: 8, WorkScale: 50}
	case "CoMD":
		return appkit.Params{NX: 6, NY: 6, NZ: 6, MaxIter: 8, WorkScale: 5}
	case "HPCCG":
		return appkit.Params{NX: 6, NY: 6, NZ: 6, MaxIter: 10, WorkScale: 20}
	case "LULESH":
		return appkit.Params{S: 4, MaxIter: 8, WorkScale: 10}
	case "miniFE":
		return appkit.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 10, WorkScale: 20}
	case "miniVite":
		return appkit.Params{NVerts: 512, MaxIter: 8, WorkScale: 10}
	}
	return appkit.Params{}
}

var allApps = []string{"AMG", "CoMD", "HPCCG", "LULESH", "miniFE", "miniVite"}

// The headline correctness property of the whole system: for every proxy
// application and every fault-tolerance design, a run that suffers an
// injected process failure recovers and produces a signature bitwise
// identical to the failure-free run.
func TestEveryAppEveryDesignRecoversExactly(t *testing.T) {
	for _, app := range allApps {
		app := app
		t.Run(app, func(t *testing.T) {
			params := tinyParams(app)
			base := Config{
				App:        app,
				Procs:      8,
				Nodes:      4,
				Params:     params,
				CkptPolicy: ckpt.Config{Stride: 3},
			}
			// Failure-free reference (REINIT has no steady-state impact).
			ref := base
			ref.Design = ReinitFTI
			refBd, err := Run(ref)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if refBd.Recoveries != 0 {
				t.Fatalf("reference run recovered %d times", refBd.Recoveries)
			}
			// At least three checkpoints, so a failure rolls back to a
			// mid-run one rather than to iteration 0.
			if refBd.CkptCount < 3 {
				t.Fatalf("reference run took %d checkpoints, want >= 3", refBd.CkptCount)
			}
			for _, d := range Designs() {
				d := d
				t.Run(d.String(), func(t *testing.T) {
					cfg := base
					cfg.Design = d
					cfg.Faults = 1
					cfg.FaultSeed = 7
					bd, err := Run(cfg)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if !bd.Completed {
						t.Fatal("run did not complete")
					}
					if bd.Recoveries != 1 {
						t.Fatalf("recoveries = %d, want 1", bd.Recoveries)
					}
					if status, err := Verdict(Result{Config: ref, Breakdown: refBd}, Result{Config: cfg, Breakdown: bd}); err != nil {
						t.Fatalf("%s: %v", status, err)
					}
					if bd.Recovery <= 0 {
						t.Fatal("no recovery time recorded")
					}
				})
			}
		})
	}
}

// A recovered cell passes only with its answer bitwise equal to the
// reference's and every fault it asked for fired; a mismatch is reported
// before a shortfall.
func TestVerdict(t *testing.T) {
	ref := Result{Config: Config{App: "HPCCG"}, Breakdown: Breakdown{Signature: 13824}}
	cell := func(sig float64, fired int) Result {
		return Result{Config: Config{App: "HPCCG", Design: ReplicaFTI, Faults: 1},
			Breakdown: Breakdown{Signature: sig, FaultsInjected: fired, Recoveries: fired}}
	}
	for _, tc := range []struct {
		name    string
		r       Result
		status  string
		wantErr string
	}{
		{"equal", cell(13824, 1), "OK (bitwise equal)", ""},
		{"mismatch", cell(13825, 1), "MISMATCH 13825 != 13824", "HPCCG/REPLICA-FTI: recovered answer differs"},
		{"not fired", cell(13824, 0), "UNTESTED (fired 0/1)", "HPCCG/REPLICA-FTI: 0 of 1 faults fired"},
		{"mismatch first", cell(13825, 0), "MISMATCH 13825 != 13824", "HPCCG/REPLICA-FTI: recovered answer differs"},
	} {
		status, err := Verdict(ref, tc.r)
		if status != tc.status {
			t.Errorf("%s: status %q, want %q", tc.name, status, tc.status)
		}
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.wantErr {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.wantErr)
		}
	}
	// The comparison is of bits, not values: -0 == 0, but a -0 answer is
	// not the reference's 0.
	zero := Result{Config: Config{App: "HPCCG"}}
	if status, err := Verdict(zero, cell(math.Copysign(0, -1), 1)); err == nil {
		t.Errorf("-0 against 0: %s", status)
	}
}

// Without failures, all designs must produce the identical answer (they
// share the same deterministic problem instance).
func TestDesignsAgreeWithoutFailure(t *testing.T) {
	for _, app := range allApps {
		params := tinyParams(app)
		var sigs []float64
		for _, d := range Designs() {
			bd, err := Run(Config{App: app, Design: d, Procs: 8, Nodes: 4, Params: params})
			if err != nil {
				t.Fatalf("%s/%s: %v", app, d, err)
			}
			sigs = append(sigs, bd.Signature)
		}
		for i, s := range sigs {
			if s != sigs[0] {
				t.Fatalf("%s: %s disagrees with %s: %v", app, Designs()[i], Designs()[0], sigs)
			}
		}
	}
}

// Recovery-cost ordering must reproduce the paper's central finding —
// Reinit < ULFM < Restart — and place replication's rollback-free failover
// below all three.
func TestRecoveryOrdering(t *testing.T) {
	params := tinyParams("HPCCG")
	recov := map[Design]float64{}
	for _, d := range Designs() {
		cfg := Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4,
			Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 3}
		bd, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		recov[d] = bd.Recovery.Seconds()
	}
	if !(recov[ReinitFTI] < recov[UlfmFTI] && recov[UlfmFTI] < recov[RestartFTI]) {
		t.Fatalf("recovery ordering violated: reinit=%.3f ulfm=%.3f restart=%.3f",
			recov[ReinitFTI], recov[UlfmFTI], recov[RestartFTI])
	}
	if !(recov[ReplicaFTI] < recov[ReinitFTI]) {
		t.Fatalf("replica failover %.3f not below reinit %.3f",
			recov[ReplicaFTI], recov[ReinitFTI])
	}
}

// ULFM must slow down the application even without failures (the paper's
// first conclusion); Reinit must not.
func TestUlfmSteadyStateOverhead(t *testing.T) {
	params := tinyParams("HPCCG")
	times := map[Design]float64{}
	for _, d := range Designs() {
		bd, err := Run(Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4, Params: params})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		times[d] = bd.App.Seconds()
	}
	if times[UlfmFTI] <= times[RestartFTI] {
		t.Errorf("ULFM app time %.4f not above baseline %.4f", times[UlfmFTI], times[RestartFTI])
	}
	// Reinit within 2% of the restart baseline.
	if diff := times[ReinitFTI] - times[RestartFTI]; diff > 0.02*times[RestartFTI] {
		t.Errorf("Reinit app time %.4f deviates from baseline %.4f", times[ReinitFTI], times[RestartFTI])
	}
}

func TestResolveParamsTableI(t *testing.T) {
	for _, e := range TableI() {
		cfg := Config{App: e.App, Input: e.Input}
		p, scale, err := ResolveParams(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.App, e.Input, err)
		}
		if p.MaxIter <= 0 || p.WorkScale <= 0 {
			t.Fatalf("%s/%s: bad params %+v", e.App, e.Input, p)
		}
		if scale < 1 {
			t.Fatalf("%s/%s: bytes scale %v < 1", e.App, e.Input, scale)
		}
		if p.Seed == 0 {
			t.Fatalf("%s/%s: unseeded", e.App, e.Input)
		}
	}
	if len(TableI()) != 18 { // 6 apps x 3 inputs
		t.Fatalf("Table I has %d rows, want 18", len(TableI()))
	}
}

func TestProcCounts(t *testing.T) {
	if got := ProcCounts("LULESH"); len(got) != 2 || got[0] != 64 || got[1] != 512 {
		t.Fatalf("LULESH proc counts %v (must be cubes only)", got)
	}
	if got := ProcCounts("AMG"); len(got) != 4 {
		t.Fatalf("AMG proc counts %v", got)
	}
}

func TestFigureRequest(t *testing.T) {
	figure := func(fig int, narrow func(*CampaignRequest)) []Config {
		req := mustFigureRequest(fig)
		narrow(&req)
		if err := req.Validate(); err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
		return req.Configs()
	}
	cfgs := figure(5, func(r *CampaignRequest) { r.Apps, r.Scales = []string{"HPCCG"}, []int{64, 128} })
	// 2 scales x 4 designs, no fault.
	if len(cfgs) != 8 {
		t.Fatalf("fig5 configs = %d, want 8", len(cfgs))
	}
	for _, c := range cfgs {
		if c.FaultCount() > 0 {
			t.Fatal("fig5 must not inject faults")
		}
	}
	cfgs = figure(9, func(r *CampaignRequest) { r.Apps = []string{"AMG"} })
	// 3 inputs x 4 designs with fault at the default scale.
	if len(cfgs) != 12 {
		t.Fatalf("fig9 configs = %d, want 12", len(cfgs))
	}
	for _, c := range cfgs {
		if c.FaultCount() != 1 || c.Procs != DefaultProcs {
			t.Fatalf("bad fig9 config %+v", c)
		}
	}
	// LULESH runs the cube process counts only, whatever the list offers.
	cfgs = figure(6, func(r *CampaignRequest) { r.Apps = []string{"LULESH"} })
	if len(cfgs) != 8 || cfgs[0].Procs != 64 || cfgs[7].Procs != 512 {
		t.Fatalf("fig6 LULESH configs = %+v, want 4 designs at 64 and at 512", cfgs)
	}
	if _, err := FigureRequest(3); err == nil {
		t.Fatal("figure 3 accepted")
	}

	// The k = 1 promise: a with-failure figure's cells are the k = 1 cells
	// of the MaxFaults: 1 campaign at the same scale and input.
	campaign := CampaignRequest{Apps: []string{"miniFE"}, MaxFaults: 1}.Configs()
	var want []string
	for _, c := range campaign {
		if c.FaultCount() == 1 {
			k, err := CellKey(c, 1)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, k)
		}
	}
	var got []string
	for _, c := range figure(6, func(r *CampaignRequest) { r.Apps, r.Scales = []string{"miniFE"}, []int{64} }) {
		k, err := CellKey(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, k)
	}
	if len(got) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("fig6 cell keys %v, campaign k=1 keys %v", got, want)
	}
}

// A multi-rep row averages reps that are cells of their own, each with its
// own fault seed, and the reports render rows.
func TestCellsAveragedAndReports(t *testing.T) {
	params := tinyParams("HPCCG")
	cfg := Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 11}
	rn := CampaignRunner{Store: store.NewMemory(0)}
	avg, err := rn.Cells([]Config{cfg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The reps, served from the entries the averaged row stored.
	results, err := rn.Cells([]Config{repConfig(cfg, 1), repConfig(cfg, 2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Config.FaultSeed == results[1].Config.FaultSeed {
		t.Fatal("reps reused the fault seed")
	}
	if cs := rn.Store.Stats(); cs.Puts != 2 || cs.Hits != 2 {
		t.Fatalf("the reps were not the averaged row's two entries: %+v", cs)
	}
	if avg[0].Breakdown.Total <= 0 {
		t.Fatal("empty average")
	}
	var sb strings.Builder
	WriteFigure(&sb, 7, results)
	if !strings.Contains(sb.String(), "HPCCG") || !strings.Contains(sb.String(), "recovery") {
		t.Fatalf("figure output malformed:\n%s", sb.String())
	}
	sb.Reset()
	WriteCSV(&sb, results)
	if lines := strings.Count(sb.String(), "\n"); lines != 3 {
		t.Fatalf("csv lines = %d, want 3", lines)
	}
	sb.Reset()
	WriteTableI(&sb)
	for _, app := range allApps {
		if !strings.Contains(sb.String(), app) {
			t.Fatalf("table I missing %s", app)
		}
	}
}

func TestComputeRatios(t *testing.T) {
	params := tinyParams("HPCCG")
	var results []Result
	for _, d := range Designs() {
		cfg := Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4,
			Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 3}
		bd, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		results = append(results, Result{Config: cfg, Breakdown: bd})
	}
	r := ComputeRatios(results)
	if r.Samples != 1 {
		t.Fatalf("samples = %d", r.Samples)
	}
	if r.UlfmOverReinitAvg <= 1 {
		t.Errorf("ULFM/Reinit = %.2f, want > 1", r.UlfmOverReinitAvg)
	}
	if r.RestartOverReinitAvg <= r.UlfmOverReinitAvg {
		t.Errorf("Restart/Reinit %.2f not above ULFM/Reinit %.2f",
			r.RestartOverReinitAvg, r.UlfmOverReinitAvg)
	}
	if r.ReinitOverReplicaAvg <= 1 {
		t.Errorf("Reinit/Replica = %.2f, want > 1 (failover must beat global restart)",
			r.ReinitOverReplicaAvg)
	}
	if r.ReplicaOverReinitTotalAvg <= 0 {
		t.Errorf("Replica/Reinit total = %.2f, want > 0", r.ReplicaOverReinitTotalAvg)
	}
	var sb strings.Builder
	r.Write(&sb)
	if !strings.Contains(sb.String(), "ULFM / Reinit") {
		t.Fatal("ratio report malformed")
	}
}

// A rank books its checkpoints by one rule: per job, its instances are
// summed per replica index, the replica with the largest checkpoint time
// counts (on a tie, the one that stopped later), and jobs add up. Other
// ranks' instances never count, every instance counts in the raw sum.
func TestBookedIsOneRule(t *testing.T) {
	j1, j2 := new(mpi.Job), new(mpi.Job)
	stats := func(ckpt, count int) fti.Stats { return fti.Stats{CkptTime: simnet.Time(ckpt), CkptCount: count} }
	rec := newRecorder()
	for _, s := range []ftiStop{
		{j1, 0, 0, stats(40, 4)},
		{j1, 0, 1, stats(25, 2)},
		{j1, 1, 0, stats(99, 9)}, // rank 1
		{j1, 0, 1, stats(15, 1)}, // replica 1 reaches 40 later: it wins the tie
		{j2, 0, 0, stats(10, 1)},
		{j2, 0, 0, stats(7, 1)}, // re-entered in the same job: summed
	} {
		rec.stopped(s)
	}
	if got, want := rec.booked(0), stats(40+17, 3+2); got != want {
		t.Fatalf("booked(0) = %+v, want %+v", got, want)
	}
	if got, want := rec.raw, stats(196, 18); got != want {
		t.Fatalf("raw = %+v, want %+v", got, want)
	}
}
