// Example replication runs the same failing HPCCG configuration under the
// replication-based ReplicaFTI design and under REINIT-FTI (the fastest
// rollback design), showing the trade replication makes: near-zero
// recovery — the survivor replica keeps computing, nothing is rolled back
// — bought with duplicated processes and messages. It then lowers
// ReplicaFactor so the injected failure hits an unreplicated rank and the
// design falls back to checkpoint-only recovery, PartRePer-style.
package main

import (
	"fmt"
	"log"

	"match"
)

func main() {
	base := match.Config{
		App:       "HPCCG",
		Procs:     16,
		Nodes:     8,
		Input:     match.Small,
		Faults:    1,
		FaultSeed: 3,
	}

	fmt.Println("== failure recovery: replication vs global restart ==")
	for _, d := range []match.Design{match.ReplicaFTI, match.ReinitFTI} {
		cfg := base
		cfg.Design = d
		bd, err := match.Run(cfg)
		if err != nil {
			log.Fatalf("%v: %v", d, err)
		}
		fmt.Printf("%-12s total %7.3fs  app %7.3fs  recovery %6.3fs (%d recoveries)  %d msgs\n",
			d, bd.Total.Seconds(), bd.App.Seconds(), bd.Recovery.Seconds(),
			bd.Recoveries, bd.Messages)
	}

	// Partial replication: protect only 1 in 4 ranks. Depending on where the
	// failure lands, recovery is either a cheap failover (replicated rank)
	// or the checkpoint-only fallback relaunch (unreplicated rank).
	fmt.Println("\n== partial replication (ReplicaFactor 0.25), sweeping fault seeds ==")
	for seed := int64(1); seed <= 4; seed++ {
		cfg := base
		cfg.Design = match.ReplicaFTI
		cfg.FaultSeed = seed
		cfg.Replica = match.ReplicaConfig{ReplicaFactor: 0.25}
		bd, err := match.Run(cfg)
		if err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}
		mode := "failover (no rollback)"
		if bd.Recovery.Seconds() > 1 {
			mode = "checkpoint fallback (relaunch)"
		}
		fmt.Printf("seed %d: recovery %6.3fs  -> %s\n", seed, bd.Recovery.Seconds(), mode)
	}
}
