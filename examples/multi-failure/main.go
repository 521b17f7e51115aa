// Multi-failure: what the paper's single-failure protocol (Figure 4)
// cannot measure. A campaign schedules k failures per run, drawn
// deterministically from one seed — the same (rank, iteration) sequence
// for every design — and sweeps k to find where replication's
// rollback-free failover pulls away from checkpoint/restart: each extra
// failure costs the rollback designs another restore-and-replay, while
// ReplicaFTI absorbs it with a leader election.
//
// The example runs a k = 0..3 campaign for one app on the sweep worker
// pool, prints the per-design growth curves, then demonstrates an explicit
// schedule: a second failure that lands on the already-degraded replica
// group *after* the first recovery, forcing the checkpoint-only fallback.
package main

import (
	"fmt"
	"log"
	"os"

	"match"
)

func main() {
	// 1. Random campaign: recovery time and total overhead vs failure
	// count, every design, one seed. The zero CampaignRunner runs one
	// worker per core.
	results, err := match.CampaignRunner{}.Run(match.CampaignRequest{
		Apps:      []string{"HPCCG"},
		MaxFaults: 3,
		Seed:      7,
	}, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The headline: from how many failures on does replication win
	// end-to-end, duplication overhead included?
	match.ComputeCrossover(results).Write(os.Stdout)

	// 3. Explicit schedule via the DSL: kill rank 3's shadow replica at
	// iteration 20, then its primary at iteration 35 — but only after the
	// first recovery, so the second hit lands on a group that has not
	// regained redundancy. No copy of rank 3 survives; the run must fall
	// back to restoring the last checkpoint.
	sched, err := match.ParseFaultSchedule("3@20:replica=1,3@35:after=1")
	if err != nil {
		log.Fatal(err)
	}
	cfg := match.Config{
		App:      "HPCCG",
		Design:   match.ReplicaFTI,
		Procs:    64,
		Input:    match.Small,
		Schedule: &sched,
	}
	bd, err := match.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Second hit on a degraded replica group (checkpoint-only fallback) ==")
	fmt.Printf("schedule            %s\n", sched)
	fmt.Printf("faults fired        %d\n", bd.FaultsInjected)
	fmt.Printf("recoveries          %d  (failover, then fallback relaunch)\n", bd.Recoveries)
	fmt.Printf("recovery time       %.3f s  (the relaunch dominates: rollback is back)\n", bd.Recovery.Seconds())
	fmt.Printf("total               %.3f s\n", bd.Total.Seconds())
}
