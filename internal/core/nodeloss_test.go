package core

import (
	"fmt"
	"testing"

	"match/internal/fault"
	"match/internal/fti"
)

// Every design recovers from losing rank 3's node at iteration 12 with the
// failure-free answer, at every FTI level (`match -app HPCCG -procs 8
// -level L -fault-schedule '3@12:kind=node'`). The replacement process must
// not start on the dead node, and no L2 partner copy is written to it.
func TestNodeLossMatrix(t *testing.T) {
	sched, err := fault.ParseSchedule("3@12:kind=node")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Designs() {
		var ref Result // d's failure-free run, made once
		for _, level := range []fti.Level{fti.L1, fti.L2, fti.L3, fti.L4} {
			name := fmt.Sprintf("%s/L%d", d.ShortName(), level)
			t.Run(name, func(t *testing.T) {
				if ref.Config.App == "" {
					cfg := Config{App: "HPCCG", Design: d, Procs: 8}
					bd, err := Run(cfg)
					if err != nil {
						t.Fatalf("failure-free run: %v", err)
					}
					ref = Result{Config: cfg, Breakdown: bd}
				}
				cfg := Config{App: "HPCCG", Design: d, Procs: 8, FTILevel: level, Schedule: &sched}
				bd, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if status, err := Verdict(ref, Result{Config: cfg, Breakdown: bd}); err != nil {
					t.Fatalf("%s: %v", status, err)
				}
				if bd.FaultsInjected != 1 || bd.Recoveries == 0 {
					t.Fatalf("%d faults fired, %d recoveries; want 1 and at least 1", bd.FaultsInjected, bd.Recoveries)
				}
			})
		}
	}
}
