// Metrics: count a run instead of just timing it. The breakdown is the
// paper's figure — seconds per phase; the metrics registry is the
// engineering view underneath — how many messages, bytes, checkpoints
// per FTI level, injections, detections, recoveries, and failovers the
// simulator actually performed, exported in OpenMetrics text any
// Prometheus stack can ingest.
//
// The registry is a pure observer with a built-in lie detector: every
// layer reports an event as one span, the registry counts those spans at
// write time, and Run reconciles the totals exactly against the breakdown
// the designs account at teardown — so a metered run that returns at all
// is a run where the two accountings agreed to the last event. The example
// meters a multi-failure replica run, prints the headline counters,
// streams the structured event log, and ends with the full exposition —
// the same text `cmd/matchsuite -pprof-http` serves live on /metrics
// during a sweep (with /status next to it for a JSON summary).
package main

import (
	"fmt"
	"log"
	"os"

	"match"
)

func main() {
	// 1. One registry per run (CampaignRunner.Cells meters reps itself:
	// each simulated rep reconciles a fresh registry, the caller's gets
	// the merged totals).
	// The event log is independent — attach either, both, or neither.
	reg := match.NewMetricsRegistry()
	elog := match.NewEventLog(os.Stderr)

	sched, err := match.ParseFaultSchedule("3@20:replica=0,3@45:replica=1")
	if err != nil {
		log.Fatal(err)
	}
	cfg := match.Config{
		App:      "HPCCG",
		Design:   match.ReplicaFTI,
		Procs:    64,
		Input:    match.Small,
		Schedule: &sched,
		Replica:  match.ReplicaConfig{HotSpare: true},
		Metrics:  reg,
		Log:      elog, // inject/detect/failover/spawn events as JSON lines
	}
	bd, err := match.Run(cfg)
	if err != nil {
		log.Fatal(err) // includes registry/breakdown reconciliation failures
	}

	fmt.Println("== Metered hot-spare replica run, two failures on rank 3's group ==")
	fmt.Printf("total               %.2fs  (app %.2fs, ckpt %.2fs, recovery %.2fs)\n",
		bd.Total.Seconds(), bd.App.Seconds(), bd.Ckpt.Seconds(), bd.Recovery.Seconds())

	// 2. Headline counters, straight off the registry. Every Get is a
	// plain array read — the registry costs one branch per event when
	// attached and nothing when nil.
	fmt.Printf("messages            %d (%d bytes on the wire)\n",
		reg.Get(match.CounterMessages), reg.Get(match.CounterMsgBytes))
	fmt.Printf("checkpoints         %d", reg.Get(match.CounterCheckpoints))
	for lvl := 1; lvl <= 4; lvl++ {
		if n, _ := reg.CkptAt(lvl); n > 0 {
			fmt.Printf("  L%d=%d", lvl, n)
		}
	}
	fmt.Println()
	fmt.Printf("failures            %d injected, %d detected\n",
		reg.Get(match.CounterInjections), reg.Get(match.CounterDetections))
	fmt.Printf("replica response    %d failover(s), %d absorb(s), %d respawn(s)\n",
		reg.Get(match.CounterFailovers), reg.Get(match.CounterAbsorbs), reg.Get(match.CounterRespawns))

	// 3. The full OpenMetrics exposition — counters with _total, byte
	// histograms with cumulative buckets, per-FTI-level checkpoint
	// counts, terminated by # EOF. Pipe it anywhere Prometheus text is
	// understood; matchsuite serves the sweep-level aggregate of exactly
	// this on /metrics while a campaign runs:
	//
	//	go run ./cmd/matchsuite -campaign -max-faults 3 -pprof-http :6060 &
	//	curl -s localhost:6060/metrics
	//	curl -s localhost:6060/status
	fmt.Println()
	if err := reg.WriteOpenMetrics(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
