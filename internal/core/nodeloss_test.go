package core

import (
	"fmt"
	"strings"
	"testing"

	"match/internal/fault"
	"match/internal/fti"
)

// Every design recovers from losing rank 3's node at iteration 12 with the
// failure-free answer, at every FTI level (`match -app HPCCG -procs 8
// -level L -fault-schedule '3@12:kind=node'`). The replacement process must
// not start on the dead node, and no L2 partner copy is written to it.
//
// The relaunch-node rows lose a second node after the first recovery, on 4
// nodes (two ranks a node): the first loss takes node 1 and relaunches
// ranks 2 and 3 onto node 2, and the second takes node 2, killing those
// relaunched processes beside the original ranks 4 and 5. A relaunched
// process the node loss kills must be failed like an original one, or the
// survivors wait for it until the virtual deadline.
func TestNodeLossMatrix(t *testing.T) {
	for _, d := range Designs() {
		var ref Result // d's failure-free run, made once
		for _, c := range []struct {
			suffix, schedule string
			nodes            int
		}{
			{"", "3@12:kind=node", 0},
			{"/relaunch-node", "3@12:kind=node,5@18:kind=node:after=1", 4},
		} {
			sched, err := fault.ParseSchedule(c.schedule)
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range []fti.Level{fti.L1, fti.L2, fti.L3, fti.L4} {
				name := fmt.Sprintf("%s/L%d%s", d.ShortName(), level, c.suffix)
				t.Run(name, func(t *testing.T) {
					if ref.Config.App == "" {
						cfg := Config{App: "HPCCG", Design: d, Procs: 8}
						bd, err := Run(cfg)
						if err != nil {
							t.Fatalf("failure-free run: %v", err)
						}
						ref = Result{Config: cfg, Breakdown: bd}
					}
					cfg := Config{App: "HPCCG", Design: d, Procs: 8, Nodes: c.nodes, FTILevel: level, Schedule: &sched}
					bd, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if status, err := Verdict(ref, Result{Config: cfg, Breakdown: bd}); err != nil {
						t.Fatalf("%s: %v", status, err)
					}
					if want := len(sched.Events); bd.FaultsInjected != want || bd.Recoveries == 0 {
						t.Fatalf("%d faults fired, %d recoveries; want %d and at least 1", bd.FaultsInjected, bd.Recoveries, want)
					}
				})
			}
		}
	}
}

// TestSecondNodeLossMatrix is the relaunch-node rows at full width, run
// under -figures (CI's figures step): 6 apps x 4 designs x L1-L4 at 8
// procs on 4 nodes. Node 1 is lost at iteration 12; after that recovery,
// node 2, which holds the relaunched ranks 2 and 3 beside ranks 4 and 5,
// is lost through rank 5 at iteration 18 or 25, rank 4 or rank 2 at 18.
// An app whose loop ends before iteration 25 skips that row (352 cells).
// Every cell must give its design's failure-free answer with both faults
// fired. Under replica, rank 2's replica 0 dies in the first loss and
// fails over to its twin without a relaunch, so "2@18" names a process
// that no longer exists: those 24 cells must give the answer and are then
// skipped as untested (ROADMAP item 17, a schedule means the same thing
// under every design).
func TestSecondNodeLossMatrix(t *testing.T) {
	if !*allFigures {
		t.Skip("the full relaunch-node matrix runs with -figures; TestNodeLossMatrix runs its HPCCG slice")
	}
	for _, app := range allApps {
		params, _, err := ResolveParams(Config{App: app, Procs: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Designs() {
			ref := Config{App: app, Design: d, Procs: 8, Nodes: 4}
			bd, err := Run(ref)
			if err != nil {
				t.Fatalf("%s/%s failure-free run: %v", app, d.ShortName(), err)
			}
			refResult := Result{Config: ref, Breakdown: bd}
			for _, second := range []string{"5@18", "5@25", "4@18", "2@18"} {
				sched, err := fault.ParseSchedule("3@12:kind=node," + second + ":kind=node:after=1")
				if err != nil {
					t.Fatal(err)
				}
				if sched.Events[1].TargetIter >= params.MaxIter {
					continue // the loop ends first
				}
				targetGone := d == ReplicaFTI && second == "2@18"
				for _, level := range []fti.Level{fti.L1, fti.L2, fti.L3, fti.L4} {
					cfg := ref
					cfg.FTILevel, cfg.Schedule = level, &sched
					t.Run(fmt.Sprintf("%s/%s/L%d/%s", app, d.ShortName(), level, second), func(t *testing.T) {
						t.Parallel()
						bd, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						status, err := Verdict(refResult, Result{Config: cfg, Breakdown: bd})
						if err != nil && targetGone && strings.HasPrefix(status, "UNTESTED") {
							t.Skipf("%s: rank 2's replica 0 died in the first loss", status)
						}
						if err != nil {
							t.Fatalf("%s: %v", status, err)
						}
					})
				}
			}
		}
	}
}
