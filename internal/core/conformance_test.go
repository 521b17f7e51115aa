package core

import (
	"testing"

	"match/internal/apps"
	"match/internal/fault"
	"match/internal/store"
)

// conformanceStore holds the conformance matrix's cells, so the
// determinism test below can take its first run of a cell from the sweep
// that already simulated it.
var conformanceStore = store.NewMemory(0)

func conformanceCell(app string, d Design) Config {
	return Config{
		App: app, Design: d, Procs: 8, Nodes: 4,
		Input: Small, Faults: 1, FaultSeed: 9,
	}
}

// TestDesignConformanceMatrix is the contract future designs must keep:
// every registered application under every Designs() entry, on the Small
// Table I input with an injected process failure, must produce a valid
// breakdown — completed, positive total, checkpoints written, the
// failure recovered, and (spot-checked on one design per app below and on
// every cell by the replica determinism test) byte-identical reruns.
// A design added to Designs() without passing this sweep cannot silently
// break an app.
func TestDesignConformanceMatrix(t *testing.T) {
	var cfgs []Config
	for _, app := range apps.Names() {
		for _, d := range Designs() {
			cfgs = append(cfgs, conformanceCell(app, d))
		}
	}
	// A failing cell cuts the results short; the cells from it onwards
	// fail below with the sweep's error.
	results, err := CampaignRunner{Store: conformanceStore}.Cells(cfgs, 1)
	for i, app := range apps.Names() {
		t.Run(app, func(t *testing.T) {
			for j, d := range Designs() {
				cell := i*len(Designs()) + j
				t.Run(d.String(), func(t *testing.T) {
					if cell >= len(results) {
						t.Fatalf("run: %v", err)
					}
					bd := results[cell].Breakdown
					if !bd.Completed {
						t.Fatal("run did not complete")
					}
					if bd.Total <= 0 {
						t.Fatalf("total = %v", bd.Total)
					}
					if bd.Ckpt <= 0 || bd.CkptCount <= 0 {
						t.Fatalf("no checkpoints recorded: ckpt=%v count=%d", bd.Ckpt, bd.CkptCount)
					}
					if bd.Recoveries < 1 || bd.Recovery <= 0 {
						t.Fatalf("failure not recovered: recoveries=%d recovery=%v", bd.Recoveries, bd.Recovery)
					}
					if bd.Messages <= 0 || bd.NetBytes <= 0 {
						t.Fatalf("no traffic recorded: %d msgs, %d bytes", bd.Messages, bd.NetBytes)
					}
				})
			}
		})
	}
}

// TestDesignConformanceDeterministic reruns one cell per app (rotating
// through the designs) and requires byte-identical breakdowns — the
// property every figure, ratio, and regression comparison rests on. The
// first run is the pooled (and, after the matrix above, cached) cell; the
// second is always a fresh Run.
func TestDesignConformanceDeterministic(t *testing.T) {
	designs := Designs()
	var cfgs []Config
	for i, app := range apps.Names() {
		cfgs = append(cfgs, conformanceCell(app, designs[i%len(designs)]))
	}
	first, err := CampaignRunner{Store: conformanceStore}.Cells(cfgs, 1)
	if err != nil {
		t.Fatalf("first runs: %v", err)
	}
	for i, cfg := range cfgs {
		a := first[i].Breakdown
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s second run: %v", cfg.App, cfg.Design, err)
		}
		if a != b {
			t.Fatalf("%s/%s not deterministic:\n%+v\n%+v", cfg.App, cfg.Design, a, b)
		}
	}
}

// TestCampaignConformanceMatrix extends the conformance contract to
// multi-failure campaigns: every design must survive a k=2 schedule whose
// second event arms only after the first recovery — a failure landing in
// the catch-up window — and produce a valid, deterministic breakdown.
func TestCampaignConformanceMatrix(t *testing.T) {
	sched := fault.Schedule{Events: []fault.Event{
		{TargetRank: 3, TargetIter: 4},
		{TargetRank: 5, TargetIter: 7, AfterRecoveries: 1},
	}}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			cfg := Config{
				App: "HPCCG", Design: d, Procs: 8, Nodes: 4,
				Input: Small, Schedule: &sched,
			}
			a, err := Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !a.Completed || a.Total <= 0 {
				t.Fatalf("invalid breakdown: %+v", a)
			}
			if a.FaultsInjected != 2 {
				t.Fatalf("faults fired = %d, want 2", a.FaultsInjected)
			}
			if a.Recoveries < 1 || a.Recovery <= 0 {
				t.Fatalf("failures not recovered: recoveries=%d recovery=%v", a.Recoveries, a.Recovery)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatalf("rerun: %v", err)
			}
			if a != b {
				t.Fatalf("not deterministic:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestReplicaAllAppsSmall64 pins the acceptance bar of the ReplicaFTI
// extension: the paper-scale default configuration (64 procs, Small input)
// must run under replication for all six proxy applications, and rerun to
// a byte-identical breakdown. Without -figures it runs the same cells at 8
// procs.
func TestReplicaAllAppsSmall64(t *testing.T) {
	if testing.Short() {
		t.Skip("replica sweep skipped in -short mode")
	}
	// Every cell twice, both simulated (no store): slots 2i and 2i+1.
	var cfgs []Config
	for _, app := range apps.Names() {
		cfg := Config{App: app, Design: ReplicaFTI, Procs: acceptanceProcs(), Input: Small,
			Faults: 1, FaultSeed: 1}
		cfgs = append(cfgs, cfg, cfg)
	}
	results, err := CampaignRunner{}.Cells(cfgs, 1)
	for i, app := range apps.Names() {
		t.Run(app, func(t *testing.T) {
			if 2*i+1 >= len(results) {
				t.Fatalf("run: %v", err)
			}
			a, b := results[2*i].Breakdown, results[2*i+1].Breakdown
			if !a.Completed || a.Recoveries < 1 {
				t.Fatalf("bad breakdown: %+v", a)
			}
			if a != b {
				t.Fatalf("not byte-identical:\n%+v\n%+v", a, b)
			}
		})
	}
}
