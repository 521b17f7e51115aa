// Command match runs a single MATCH benchmark configuration and prints the
// execution-time breakdown.
//
// Usage:
//
//	match -app HPCCG -design reinit -procs 64 -input small -fault
//	match -design replica -replica-factor 0.5 -fault
//	match -design ulfm -faults 3                      # multi-failure campaign
//	match -fault-schedule "3@40,3@55:after=1"         # explicit schedule
//	match -design replica -fault -detector ring -hb-period 50ms   # in-band detection
//	match -ckpt-policy multi-level -ckpt-l2-every 3 -ckpt-l4-every 10
//	match -design replica -fault -ckpt-policy replica-aware       # stretch while protected
//	match -design replica -hot-spare -fault-schedule "3@20:replica=0,3@45:replica=1"
//	match -fault -metrics -log stderr                 # OpenMetrics dump + JSON event log
//	match -list-designs
package main

import (
	"flag"
	"fmt"
	"os"

	"match/cmd/internal/axisflags"
	"match/internal/core"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/obs"
	"match/internal/replica"
	"match/internal/simnet"
	"match/internal/trace"
)

func main() {
	app := flag.String("app", "HPCCG", "application: AMG, CoMD, HPCCG, LULESH, miniFE, miniVite")
	design := flag.String("design", "reinit", "fault-tolerance design (see -list-designs); case-insensitive")
	listDesigns := flag.Bool("list-designs", false, "print the available fault-tolerance designs and exit")
	procs := flag.Int("procs", 64, "number of logical MPI processes (64, 128, 256, 512)")
	nodes := flag.Int("nodes", 32, "number of compute nodes")
	input := flag.String("input", "small", "input problem size: small, medium, large (case-insensitive; s, m, l)")
	faultOn := flag.Bool("fault", false, "inject one random process failure (Figure 4)")
	faults := flag.Int("faults", 0, "inject this many scheduled failures (campaign mode; implies -fault)")
	faultSchedule := flag.String("fault-schedule", "",
		`explicit failure schedule, e.g. "3@40,3@55:after=1" (rank@iter[:after=N][:replica=R][:kind=node])`)
	seed := flag.Int64("seed", 1, "fault-injection seed")
	level := flag.Int("level", 1, "FTI checkpoint level (1-4)")
	stride := flag.Int("stride", 10, "checkpoint every N iterations")
	reps := flag.Int("reps", 1, "repetitions to average (the paper used 5)")
	dupDegree := flag.Int("dup-degree", 0, "replica design: replicas per protected rank (default 2)")
	replicaFactor := flag.Float64("replica-factor", 0, "replica design: fraction of ranks replicated (default 1; <1 = partial replication)")
	hotSpare := flag.Bool("hot-spare", false, "replica design: respawn a fresh shadow in the background after a failover, restoring the group to full degree")
	spawnDelay := flag.Duration("spawn-delay", 0, "hot-spare: dynamic-process-spawn cost before the state transfer (0 = default 250ms)")
	spawnBW := flag.Float64("spawn-bw", 0, "hot-spare: state-clone serialization bandwidth in bytes/s (0 = default 8e9)")
	axes := axisflags.Register(flag.CommandLine, true)
	modelIngress := flag.Bool("model-ingress", false, "serialize receiver NICs too (richer network model; shifts calibrated timings)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (open in Perfetto; implies -reps 1)")
	traceMetrics := flag.Bool("trace-metrics", false, "print the trace's per-phase metrics table reconciled against the breakdown (implies -reps 1)")
	traceDetail := flag.String("trace-detail", "", `extra trace detail: comma-separated from "messages", "heartbeats", "sim", or "all" (high-volume; default off)`)
	metricsOn := flag.Bool("metrics", false, "print the run's metrics registry as OpenMetrics text after the breakdown (self-checked against it)")
	logDest := flag.String("log", "", `write structured JSON lifecycle events (inject, detect, failover, ...) to this destination: "stderr" or a file path`)
	flag.Parse()

	if *listDesigns {
		fmt.Println("available fault-tolerance designs:")
		for _, d := range core.Designs() {
			fmt.Printf("  %-10s (%s)\n", d.ShortName(), d)
		}
		return
	}
	// Core resolves a zero stride to the default, so it cannot reject
	// -stride 0; the ranges core does check (-level, the replica knobs) are
	// left to it, on the assembled Config below.
	if *stride < 1 {
		fmt.Fprintf(os.Stderr, "-stride %d invalid (want >= 1; use -ckpt-policy never to disable checkpointing)\n", *stride)
		os.Exit(2)
	}
	if *faults < 0 {
		fmt.Fprintf(os.Stderr, "-faults %d invalid (want >= 0)\n", *faults)
		os.Exit(2)
	}
	if *faults > 0 && *faultSchedule != "" {
		fmt.Fprintln(os.Stderr, "-faults and -fault-schedule are mutually exclusive (the schedule already fixes the failure count)")
		os.Exit(2)
	}
	// The spawn knobs are validated at flag-parse time (matching the
	// -stride fix): an explicit bad value must error, not silently fall
	// back to the calibrated default inside the replica runtime.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["spawn-delay"] && *spawnDelay <= 0 {
		fmt.Fprintf(os.Stderr, "-spawn-delay %v invalid (want > 0; omit the flag for the calibrated 250ms default)\n", *spawnDelay)
		os.Exit(2)
	}
	if set["spawn-bw"] && *spawnBW <= 0 {
		fmt.Fprintf(os.Stderr, "-spawn-bw %g invalid (want > 0 bytes/s; omit the flag for the 8e9 default)\n", *spawnBW)
		os.Exit(2)
	}
	if (set["spawn-delay"] || set["spawn-bw"]) && !*hotSpare {
		fmt.Fprintln(os.Stderr, "-spawn-delay/-spawn-bw only apply with -hot-spare")
		os.Exit(2)
	}
	// The two shared axes parse and validate at flag-parse time (a clean
	// usage error instead of a mid-run failure); this command runs one
	// configuration, so a list of any other length is an error here.
	detectors, err := axes.Detectors()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	policies, err := axes.Policies(*stride)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(detectors) > 1 || len(policies) != 1 {
		fmt.Fprintln(os.Stderr, "-hb-period/-ckpt-policy take a single value here; sweep a list with matchsuite -campaign")
		os.Exit(2)
	}

	if *faultOn {
		*faults = max(*faults, 1) // -fault is one failure
	}
	cfg := core.Config{
		App:        *app,
		Procs:      *procs,
		Nodes:      *nodes,
		Faults:     *faults,
		FaultSeed:  *seed,
		FTILevel:   fti.Level(*level),
		CkptPolicy: policies[0],
		Replica: replica.Config{
			DupDegree:      *dupDegree,
			ReplicaFactor:  *replicaFactor,
			SpawnDelay:     simnet.Time(spawnDelay.Nanoseconds()),
			SpawnBandwidth: *spawnBW,
			HotSpare:       *hotSpare,
		},
		ModelIngress: *modelIngress,
	}
	// An explicit detector arrives resolved; under -detector preset the
	// field stays zero and core resolves it per design.
	if len(detectors) == 1 {
		cfg.Detector = detectors[0]
	}
	if *faultSchedule != "" {
		sched, err := fault.ParseSchedule(*faultSchedule)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Schedule = &sched
	}
	tracing := *traceOut != "" || *traceMetrics || *traceDetail != ""
	if tracing {
		if *reps > 1 {
			fmt.Fprintf(os.Stderr, "-trace/-trace-metrics trace exactly one run; drop -reps %d (a recorder cannot interleave repetitions)\n", *reps)
			os.Exit(2)
		}
		detail, err := trace.ParseDetail(*traceDetail)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Trace = trace.New()
		cfg.Trace.SetDetail(detail)
	}
	d, err := core.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Design = d
	if *hotSpare && d != core.ReplicaFTI {
		fmt.Fprintf(os.Stderr, "-hot-spare only applies to -design replica (got %s)\n", d.ShortName())
		os.Exit(2)
	}
	if cfg.Input, err = core.ParseInputSize(*input); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// What Run would reject (a bad level, replica knob, detector or
	// schedule) is a usage error, reported before any output.
	if _, err := core.CellKey(cfg, *reps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *metricsOn {
		cfg.Metrics = obs.New()
	}
	elog, logFile, err := obs.OpenLog(*logDest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "log:", err)
		os.Exit(1)
	}
	defer logFile.Close()
	cfg.Log = elog

	// One cell, through the one sweep path. A failed cell — an incomplete
	// run, a tripped virtual deadline, a panic — is one line and status 1.
	results, err := core.CampaignRunner{Workers: 1}.Cells([]core.Config{cfg}, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}
	bd := results[0].Breakdown
	fmt.Printf("%s / %s / %d procs on %d nodes / %s input / faults=%d (avg of %d)\n",
		cfg.App, cfg.Design, cfg.Procs, cfg.Nodes, cfg.Input, cfg.FaultCount(), *reps)
	fmt.Printf("  application     %10.3f s\n", bd.App.Seconds())
	// Label with the placement the run actually used, splitting the count
	// by level when the policy escalated any checkpoint past the base.
	levels := ""
	for l := 1; l <= 4; l++ {
		if n := bd.CkptCountAt[l]; n > 0 && n != bd.CkptCount {
			levels += fmt.Sprintf(" L%d=%d", l, n)
		}
	}
	if levels != "" {
		levels = ";" + levels
	}
	fmt.Printf("  write ckpts     %10.3f s  (%d checkpoints%s; placement %s, %d avoided)\n",
		bd.Ckpt.Seconds(), bd.CkptCount, levels, cfg.CkptPolicy, bd.CkptAvoided)
	fmt.Printf("  recovery        %10.3f s  (%d recoveries, %d faults fired)\n",
		bd.Recovery.Seconds(), bd.Recoveries, bd.FaultsInjected)
	// Label with the strategy the run actually used (a default run's
	// "preset" resolves to the design's calibrated detector).
	resolved, _ := core.ResolvedDetector(cfg) // Run already validated it
	fmt.Printf("  detection       %10.3f s  (detector %s)\n",
		bd.DetectLatency.Seconds(), resolved)
	if *hotSpare {
		fmt.Printf("  hot spare       %10.3f s  (%d respawns, background)\n",
			bd.SpawnTime.Seconds(), bd.Respawns)
	}
	fmt.Printf("  total           %10.3f s\n", bd.Total.Seconds())
	fmt.Printf("  signature       %g\n", bd.Signature)
	fmt.Printf("  traffic         %d messages, %d bytes\n", bd.Messages, bd.NetBytes)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		if err := cfg.Trace.WriteChrome(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("  trace           %d spans -> %s (open at https://ui.perfetto.dev)\n",
			cfg.Trace.Len(), *traceOut)
	}
	if *traceMetrics {
		fmt.Println()
		cfg.Trace.WriteMetrics(os.Stdout, core.TraceTotalsOf(bd), d == core.ReplicaFTI)
	}
	if *metricsOn {
		fmt.Println()
		if err := cfg.Metrics.WriteOpenMetrics(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
	}
}
