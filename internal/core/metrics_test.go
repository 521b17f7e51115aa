package core

import (
	"strings"
	"testing"

	"match/internal/ckpt"
	"match/internal/obs"
	"match/internal/store"
	"match/internal/trace"
)

// The metrics registry must be a pure observer: a metered run and an
// unmetered run of the same configuration produce byte-identical
// breakdowns on every design under a multi-failure schedule. A full-detail
// trace recorder runs beside it, so the one probe feeds both consumers and
// Run reconciles each of them against the breakdown.
func TestMetricsOffByteIdentity(t *testing.T) {
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			params := tinyParams("HPCCG")
			cfg := Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4,
				Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 2, FaultSeed: 9}
			plain, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v unmetered: %v", d, err)
			}
			metered := cfg
			metered.Metrics = obs.New()
			metered.Trace = trace.New()
			metered.Trace.SetDetail(trace.DetailAll)
			got, err := Run(metered)
			if err != nil {
				t.Fatalf("%v metered: %v", d, err)
			}
			if got != plain {
				t.Errorf("%v: metering perturbed the run:\nunmetered %+v\nmetered   %+v", d, plain, got)
			}
			m := metered.Metrics
			for _, c := range []struct {
				name string
				c    obs.Counter
			}{
				{"events-fired", obs.CEventsFired},
				{"messages", obs.CMessages},
				{"msg-bytes", obs.CMsgBytes},
				{"collectives", obs.CCollectives},
				{"checkpoints", obs.CCheckpoints},
				{"injections", obs.CInjections},
				{"detections", obs.CDetections},
				{"recoveries", obs.CRecoveries},
			} {
				if m.Get(c.c) == 0 {
					t.Errorf("%v: counter %s is zero after a 2-failure run", d, c.name)
				}
			}
			if g := m.Gauge(obs.GHeapHighWater); g == 0 {
				t.Errorf("%v: heap high-water gauge never rose", d)
			}
			if d == ReplicaFTI && m.Get(obs.CFailovers) == 0 {
				t.Errorf("replica: no failovers counted in a 2-failure run")
			}
		})
	}
}

// One registry serves one Run: a second Run against a registry that
// already holds a previous run's counts must trip the reconciliation
// self-check (the write-time totals can no longer match the fresh
// breakdown). Cells relies on this by giving every simulated rep a fresh
// registry and merging afterwards.
func TestMetricsReconcileCatchesReuse(t *testing.T) {
	params := tinyParams("HPCCG")
	cfg := Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 9,
		Metrics: obs.New()}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("clean metered run: %v", err)
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("reconciliation accepted a dirty (reused) registry")
	}
	if !strings.Contains(err.Error(), "divergence") {
		t.Errorf("reuse error does not name the divergence: %v", err)
	}
}

// Cells meters multi-rep cells (unlike tracing, which it rejects): each
// simulated rep reconciles against its own fresh registry and the caller's
// registry receives the merged totals — the sum of the per-rep breakdown
// counts.
func TestMetricsAveragedMerge(t *testing.T) {
	params := tinyParams("HPCCG")
	cfg := Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 9,
		Metrics: obs.New()}
	rn := CampaignRunner{Store: store.NewMemory(0)}
	if _, err := rn.Cells([]Config{cfg}, 3); err != nil {
		t.Fatalf("metered Cells: %v", err)
	}
	// The three reps, served from the entries the metered cell stored.
	var reps []Config
	for r := 1; r <= 3; r++ {
		c := repConfig(cfg, r)
		c.Metrics = nil
		reps = append(reps, c)
	}
	results, err := rn.Cells(reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d reps, want 3", len(results))
	}
	if cs := rn.Store.Stats(); cs.Puts != 3 || cs.Hits != 3 {
		t.Fatalf("the metered cell did not simulate three distinct reps: %+v", cs)
	}
	var msgs, recov int64
	for _, r := range results {
		msgs += r.Breakdown.Messages
		recov += int64(r.Breakdown.Recoveries)
	}
	if got := cfg.Metrics.Get(obs.CMessages); got != msgs {
		t.Errorf("merged messages = %d, want sum over reps %d", got, msgs)
	}
	if got := cfg.Metrics.Get(obs.CRecoveries); got != recov {
		t.Errorf("merged recoveries = %d, want sum over reps %d", got, recov)
	}
}
