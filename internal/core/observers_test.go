package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"match/internal/ckpt"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/obs"
	"match/internal/replica"
	"match/internal/simnet"
	"match/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// allFigures widens TestPaperFiguresGolden from the conformance cells to
// every figure, ablation, campaign and CLI row.
var allFigures = flag.Bool("figures", false, "run every row of TestPaperFiguresGolden, not only the conformance cells")

// golden compares got against testdata/name, rewriting the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// All three observers are pinned from real runs: one seeded two-failure
// cell per design plus the replica hot-spare and node-failure paths, with
// the registry, a full-detail recorder and the event log attached at once.
// The goldens were generated before the emission sites moved behind the
// one probe, so they prove every site still reports the same event with
// the same fields in the same order.
func TestObserversGolden(t *testing.T) {
	schedule := func(spec string) *fault.Schedule {
		s, err := fault.ParseSchedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		return &s
	}
	cells := []struct {
		name string
		cfg  Config
		// events are the log lines the cell exists to pin.
		events []string
	}{
		{"restart", Config{Design: RestartFTI, Faults: 2, FaultSeed: 9},
			[]string{"inject", "detect"}},
		{"reinit", Config{Design: ReinitFTI, Faults: 2, FaultSeed: 9},
			[]string{"inject", "detect"}},
		{"ulfm", Config{Design: UlfmFTI, Faults: 2, FaultSeed: 9},
			[]string{"inject", "detect"}},
		{"replica", Config{Design: ReplicaFTI, Faults: 2, FaultSeed: 9, Replica: replica.Config{HotSpare: true}},
			[]string{"inject", "detect", "failover"}},
		// Both replicas of rank 5 die in turn: the first hit fails over and
		// respawns a spare, the spare absorbs the second; replica-aware
		// placement skips checkpoints while the group is at full degree.
		{"replica-absorb", Config{Design: ReplicaFTI,
			CkptPolicy: ckpt.Config{Kind: ckpt.ReplicaAware},
			Schedule:   schedule("5@2:replica=0,5@7:replica=1"),
			Replica: replica.Config{HotSpare: true, FailoverDetect: simnet.Microsecond,
				ElectionDelay: simnet.Microsecond, SpawnDelay: simnet.Microsecond}},
			[]string{"failover", "respawn", "absorb"}},
		// The same double hit inside the respawn window exhausts the group.
		{"replica-fallback", Config{Design: ReplicaFTI, Replica: replica.Config{HotSpare: true},
			Schedule: schedule("5@2:replica=0,5@4:replica=1")},
			[]string{"failover", "fallback"}},
		{"restart-node", Config{Design: RestartFTI, Faults: 2, FaultSeed: 9, FaultKind: fault.NodeFailure,
			FTILevel: fti.L4},
			[]string{"inject", "node_fail", "detect"}},
		{"replica-node", Config{Design: ReplicaFTI, Faults: 2, FaultSeed: 9, FaultKind: fault.NodeFailure,
			FTILevel: fti.L4, Replica: replica.Config{HotSpare: true}},
			[]string{"inject", "node_fail", "detect"}},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := c.cfg
			cfg.App, cfg.Procs, cfg.Nodes = "HPCCG", 8, 4
			cfg.Params, cfg.CkptPolicy.Stride = tinyParams("HPCCG"), 3
			cfg.Metrics = obs.New()
			cfg.Trace = trace.New()
			cfg.Trace.SetDetail(trace.DetailAll)
			var events bytes.Buffer
			cfg.Log = obs.NewLogWithHandler(slog.NewJSONHandler(&events, &slog.HandlerOptions{
				ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
					if a.Key == slog.TimeKey && len(groups) == 0 {
						return slog.Attr{}
					}
					return a
				},
			}))
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			for _, ev := range c.events {
				if !strings.Contains(events.String(), fmt.Sprintf("%q:%q", "msg", ev)) {
					t.Errorf("no %q event in the log:\n%s", ev, events.String())
				}
			}
			var om, chrome bytes.Buffer
			if err := cfg.Metrics.WriteOpenMetrics(&om); err != nil {
				t.Fatal(err)
			}
			if err := cfg.Trace.WriteChrome(&chrome); err != nil {
				t.Fatal(err)
			}
			golden(t, "observers/"+c.name+".om", om.Bytes())
			golden(t, "observers/"+c.name+".chrome.sha256",
				[]byte(fmt.Sprintf("%x  %d spans\n", sha256.Sum256(chrome.Bytes()), cfg.Trace.Len())))
			golden(t, "observers/"+c.name+".events.jsonl", events.Bytes())
		})
	}
}
