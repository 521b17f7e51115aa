package match_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"match"
	"match/internal/apps"
	"match/internal/apps/appkit"
	"match/internal/simnet"
)

func TestFacadeRun(t *testing.T) {
	bd, err := match.Run(match.Config{
		App:    "miniVite",
		Design: match.ReinitFTI,
		Procs:  16,
		Nodes:  8,
		Params: match.Params{NVerts: 512, MaxIter: 6, WorkScale: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bd.Completed || bd.Total <= 0 {
		t.Fatalf("bad breakdown: %+v", bd)
	}
}

func TestFacadeApps(t *testing.T) {
	apps := match.Apps()
	if len(apps) < 6 {
		t.Fatalf("apps = %v", apps)
	}
	for _, want := range []string{"AMG", "CoMD", "HPCCG", "LULESH", "miniFE", "miniVite"} {
		found := false
		for _, a := range apps {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing %s in %v", want, apps)
		}
	}
}

func TestFacadeRegisterRejectsDuplicates(t *testing.T) {
	if err := match.RegisterApp("HPCCG", nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestFacadeTableI(t *testing.T) {
	var sb strings.Builder
	match.WriteTableI(&sb)
	if !strings.Contains(sb.String(), "-problem 2 -n 20 20 20") {
		t.Fatalf("Table I missing the paper's AMG input:\n%s", sb.String())
	}
}

func TestFacadeTracer(t *testing.T) {
	tc := match.NewTracer()
	tc.Alloc("v", 64, 16, 1)
	tc.LoopBegin(2)
	tc.NextIter(0)
	tc.Load(64, 1, 3)
	tc.NextIter(1)
	tc.Load(64, 2, 3)
	tc.LoopEnd()
	res := match.AnalyzeTrace(tc)
	if len(res.Checkpoint) != 1 || res.Checkpoint[0].Name != "v" {
		t.Fatalf("analysis = %+v", res)
	}
}

func TestFacadeCkptPolicy(t *testing.T) {
	k, err := match.ParseCkptPolicyKind("replica-aware")
	if err != nil || k != match.ReplicaAwarePlacement {
		t.Fatalf("ParseCkptPolicyKind = %v, %v", k, err)
	}
	bd, err := match.Run(match.Config{
		App:        "miniVite",
		Design:     match.ReplicaFTI,
		Procs:      16,
		Nodes:      8,
		Params:     match.Params{NVerts: 512, MaxIter: 25, WorkScale: 10},
		CkptPolicy: match.CkptPolicyConfig{Kind: match.ReplicaAwarePlacement, Stride: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bd.CkptAvoided == 0 {
		t.Fatalf("replica-aware placement avoided nothing: %+v", bd)
	}
	if _, err := match.Run(match.Config{
		App: "HPCCG", Procs: 8, Nodes: 4,
		Params:     match.Params{NX: 4, NY: 4, NZ: 4, MaxIter: 4, WorkScale: 1},
		CkptPolicy: match.CkptPolicyConfig{Kind: match.FixedPlacement, Stride: -1},
	}); err == nil {
		t.Fatal("facade accepted a negative placement stride")
	}
}

// The campaign-as-a-service surface: a CampaignRequest run by a
// CampaignRunner over a ResultStore.
func TestFacadeCampaignService(t *testing.T) {
	req := match.CampaignRequest{
		Apps:    []string{"HPCCG"},
		Designs: []match.Design{match.ReinitFTI, match.ReplicaFTI},
		Procs:   8, MaxFaults: 1, Seed: 7,
	}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	id, err := req.Hash()
	if err != nil || len(id) != 64 {
		t.Fatalf("Hash = %q, %v", id, err)
	}
	// A paper figure is a request too: Fig. 9 for one app is 3 inputs x 4
	// designs, one failure each.
	fig9, err := match.FigureRequest(9)
	if err != nil {
		t.Fatal(err)
	}
	fig9.Apps = []string{"AMG"}
	if err := fig9.Validate(); err != nil || len(fig9.Configs()) != 12 {
		t.Fatalf("Fig. 9 for AMG: %d cells, %v", len(fig9.Configs()), err)
	}

	st := match.NewMemoryResultStore(0)
	rn := match.CampaignRunner{Workers: 2, Store: st}
	cold, err := rn.Run(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := rn.Run(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cs match.CacheStats = st.Stats()
	if cs.Misses != int64(len(cold)) || cs.Hits != int64(len(warm)) {
		t.Fatalf("cache stats after cold+warm: %+v", cs)
	}
	if cs.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", cs.HitRate())
	}

	cell := match.Config{App: "HPCCG", Procs: 8, Design: match.ReinitFTI}
	key, err := match.CellKey(cell, 1)
	if err != nil || len(key) != 64 {
		t.Fatalf("CellKey = %q, %v", key, err)
	}
	// Any list of cells runs on the same pool and store. This one is the
	// campaign's failure-free Reinit cell: a hit for the runner that ran the
	// campaign, a simulation for a runner of its own — same breakdown.
	hit, err := rn.Cells([]match.Config{cell}, 1)
	if err != nil || st.Stats().Hits != cs.Hits+1 {
		t.Fatalf("Cells over the campaign's store: %v, stats %+v", err, st.Stats())
	}
	fresh, err := match.CampaignRunner{}.Cells([]match.Config{cell}, 1)
	if err != nil || fresh[0].Breakdown != hit[0].Breakdown {
		t.Fatalf("Cells without a store: %v\n%+v\n%+v", err, fresh, hit)
	}

	if sz, err := match.ParseInputSize("medium"); err != nil || sz != match.Medium {
		t.Fatalf("ParseInputSize = %v, %v", sz, err)
	}

	// Results render and analyse outside the runner too (as a matchserve
	// client does with fetched results).
	var sb strings.Builder
	match.WriteCampaign(&sb, warm)
	if !strings.Contains(sb.String(), "HPCCG") {
		t.Fatalf("campaign table missing the app:\n%s", sb.String())
	}
	if x := match.ComputeCrossover(warm); len(x.Ks) != 2 {
		t.Fatalf("crossover failure counts = %v, want k = 0, 1", x.Ks)
	}
}

// The observability group: one explicit failure, seen by the registry and
// the event log through the same probe.
func TestFacadeObservers(t *testing.T) {
	sched, err := match.ParseFaultSchedule("3@4")
	if err != nil {
		t.Fatal(err)
	}
	reg := match.NewMetricsRegistry()
	var events strings.Builder
	if _, err := match.Run(match.Config{
		App:      "miniVite",
		Design:   match.ReplicaFTI,
		Procs:    8,
		Nodes:    4,
		Params:   match.Params{NVerts: 512, MaxIter: 8, WorkScale: 10},
		Schedule: &sched,
		Replica:  match.ReplicaConfig{DupDegree: 2},
		Metrics:  reg,
		Log:      match.NewEventLog(&events),
	}); err != nil {
		t.Fatal(err)
	}
	if reg.Get(match.CounterInjections) != 1 || reg.Get(match.CounterFailovers) != 1 {
		t.Fatalf("injections = %d, failovers = %d, want 1 and 1",
			reg.Get(match.CounterInjections), reg.Get(match.CounterFailovers))
	}
	if n := strings.Count(events.String(), `"msg":"failover"`); n != 1 {
		t.Fatalf("event log has %d failover lines, want 1:\n%s", n, events.String())
	}
}

func TestFacadeTraceRecorder(t *testing.T) {
	detail, err := match.ParseTraceDetail("messages,sim")
	if err != nil {
		t.Fatal(err)
	}
	rec := match.NewTraceRecorder()
	rec.SetDetail(detail)
	bd, err := match.Run(match.Config{
		App:        "miniVite",
		Design:     match.UlfmFTI,
		Procs:      8,
		Nodes:      4,
		Params:     match.Params{NVerts: 512, MaxIter: 8, WorkScale: 10},
		CkptPolicy: match.CkptPolicyConfig{Stride: 3},
		Trace:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("traced facade run recorded no spans")
	}
	if err := rec.Reconcile(match.TraceTotalsOf(bd)); err != nil {
		t.Fatalf("facade trace failed reconciliation: %v", err)
	}
	var sb strings.Builder
	if err := rec.WriteChrome(&sb); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !strings.Contains(sb.String(), `"displayTimeUnit"`) {
		t.Fatal("Chrome export missing displayTimeUnit")
	}
}

// boomApp is a user-registered application with a bug: from its second
// iteration it panics in scheduler context — where a protocol bug in a
// runtime or a detector would, too.
type boomApp struct{}

func (boomApp) Name() string                               { return "boom" }
func (boomApp) Init(*appkit.Context) error                 { return nil }
func (boomApp) Signature(*appkit.Context) (float64, error) { return 0, nil }
func (boomApp) Step(ctx *appkit.Context, iter int) error {
	if iter == 1 {
		ctx.R.Job().Cluster().Scheduler().After(0, func() { panic("boom") })
	}
	ctx.R.Compute(simnet.Millisecond) // yield, so the event fires
	return nil
}

// crashApp is a user-registered application with a bug in its rank body:
// in its second iteration rank 3 indexes past an empty slice.
type crashApp struct{ empty []int }

func (crashApp) Name() string                               { return "crash" }
func (crashApp) Init(*appkit.Context) error                 { return nil }
func (crashApp) Signature(*appkit.Context) (float64, error) { return 0, nil }
func (a crashApp) Step(ctx *appkit.Context, iter int) error {
	ctx.R.Compute(simnet.Millisecond)
	if iter == 1 && ctx.Rank() == 3 {
		a.empty[iter+4]++
	}
	return nil
}

// A cell that panics is a failed cell of the sweep — the prefix plus its
// error, a cell_finish carrying it — not a dead process, and not a cell
// that ends short of ranks: a panic in scheduler context and one in a rank
// body, under every design, fail the cell alike and leave no goroutine
// behind. The apps are removed again, so no other test or example of the
// package sees them.
func TestCellPanicIsAFailedCell(t *testing.T) {
	for _, a := range []match.App{boomApp{}, crashApp{}} {
		a := a
		if err := match.RegisterApp(a.Name(), func() match.App { return a }); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { apps.Unregister(a.Name()) })
	}
	healthy := match.Config{App: "HPCCG", Design: match.ReinitFTI, Procs: 8, Nodes: 4,
		Params: match.Params{NX: 6, NY: 6, NZ: 6, MaxIter: 10, WorkScale: 20}}
	for _, tc := range []struct {
		name, app string
		designs   []match.Design
		err       string
	}{
		{"scheduler", "boom", []match.Design{match.ReinitFTI}, "cell panicked: boom"},
		{"rank body", "crash", []match.Design{match.RestartFTI, match.ReinitFTI, match.UlfmFTI, match.ReplicaFTI},
			"cell panicked: runtime error: index out of range [5] with length 0"},
	} {
		for _, d := range tc.designs {
			t.Run(tc.name+"/"+d.String(), func(t *testing.T) {
				base := runtime.NumGoroutine()
				bad := match.Config{App: tc.app, Design: d, Procs: 4, Nodes: 2,
					Params: match.Params{MaxIter: 4, WorkScale: 1}}
				var events bytes.Buffer
				results, err := match.CampaignRunner{Workers: 2, Log: match.NewEventLog(&events)}.Cells(
					[]match.Config{healthy, bad, healthy}, 1)
				if err == nil || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				if len(results) != 1 || !results[0].Breakdown.Completed {
					t.Fatalf("%d results, want the one cell before the panicking one", len(results))
				}
				failed := 0
				for _, line := range strings.Split(events.String(), "\n") {
					if strings.Contains(line, `"msg":"cell_finish"`) && strings.Contains(line, `"error":"`+tc.err+`"`) {
						failed++
						if !strings.Contains(line, `"cell":1`) {
							t.Fatalf("the panic is logged against the wrong cell: %s", line)
						}
					}
				}
				if failed != 1 {
					t.Fatalf("%d cell_finish events carry the panic, want 1:\n%s", failed, events.String())
				}
				// A pool worker may have delivered its last result and not yet returned.
				n := runtime.NumGoroutine()
				for wait := time.Now().Add(2 * time.Second); n > base && time.Now().Before(wait); n = runtime.NumGoroutine() {
					time.Sleep(time.Millisecond)
				}
				if n > base {
					t.Fatalf("%d goroutines after the sweep, %d before it: ranks leaked", n, base)
				}
			})
		}
	}
}
