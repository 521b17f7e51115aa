package match_test

// Walkthroughs of the facade, one per topic. Each is a godoc example whose
// output go test compares with its Output block, so a change that moves a
// printed number shows up as a failing example. Run one with
// go test -run '^ExampleRun$' -v .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"match"
	"match/internal/apps"
	"match/internal/apps/appkit"
	"match/internal/depanal"
	"match/internal/fti"
)

// Run one benchmark configuration, HPCCG under REINIT-FTI, and print its
// execution-time breakdown.
func ExampleRun() {
	bd, err := match.Run(match.Config{
		App:    "HPCCG",
		Design: match.ReinitFTI,
		Procs:  8,
		Input:  match.Small,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("HPCCG / REINIT-FTI / 8 procs / small input")
	fmt.Printf("  application  %8.3f s\n", bd.App.Seconds())
	fmt.Printf("  checkpoints  %8.3f s (%d written)\n", bd.Ckpt.Seconds(), bd.CkptCount)
	fmt.Printf("  total        %8.3f s\n", bd.Total.Seconds())
	fmt.Printf("  answer       %g\n", bd.Signature)
	fmt.Println("\nAvailable applications:", match.Apps())
	// Output:
	// HPCCG / REINIT-FTI / 8 procs / small input
	//   application     5.981 s
	//   checkpoints     0.610 s (6 written)
	//   total           6.591 s
	//   answer       13824
	//
	// Available applications: [AMG CoMD HPCCG LULESH miniFE miniVite]
}

// Inject the same process failure (Figure 4 of the paper) into AMG under
// the three rollback designs and compare how long each takes to bring MPI
// back, the experiment behind Figure 7. Every recovered answer is checked
// against a failure-free run.
func ExampleRun_failureRecovery() {
	run := func(d match.Design, faults int) (match.Breakdown, error) {
		return match.Run(match.Config{
			App:       "AMG",
			Design:    d,
			Procs:     8,
			Input:     match.Small,
			Faults:    faults,
			FaultSeed: 7, // same rank, same iteration for every design
		})
	}
	ref, err := run(match.ReinitFTI, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("failure-free reference answer: %g\n\n", ref.Signature)
	fmt.Printf("%-12s %12s %12s %12s %8s\n", "design", "recovery(s)", "app(s)", "total(s)", "answer")
	for _, d := range []match.Design{match.RestartFTI, match.ReinitFTI, match.UlfmFTI} {
		bd, err := run(d, 1)
		if err != nil {
			fmt.Println(d, err)
			return
		}
		verdict := "OK"
		if math.Float64bits(bd.Signature) != math.Float64bits(ref.Signature) {
			verdict = "CORRUPTED"
		}
		fmt.Printf("%-12s %12.3f %12.3f %12.3f %8s\n",
			d, bd.Recovery.Seconds(), bd.App.Seconds(), bd.Total.Seconds(), verdict)
	}
	fmt.Println("\nExpected ordering (the paper's central finding): Reinit < ULFM < Restart.")
	// Output:
	// failure-free reference answer: 337046.08159755124
	//
	// design        recovery(s)       app(s)     total(s)   answer
	// RESTART-FTI         6.032      182.062      188.494       OK
	// REINIT-FTI          0.354      182.062      182.817       OK
	// ULFM-FTI            1.774      182.357      184.532       OK
	//
	// Expected ordering (the paper's central finding): Reinit < ULFM < Restart.
}

// Compare FTI's four checkpointing levels (L1 local RAMFS, L2 partner
// copy, L3 Reed-Solomon group encoding, L4 parallel file system) on
// miniFE: the ablation the paper defers to the FTI paper (§V-B: "we use
// its L1 mode ... the comparison between the four FTI checkpointing modes
// has been thoroughly studied").
func ExampleRun_checkpointLevels() {
	fmt.Printf("%-6s %14s %14s %10s\n", "level", "ckpt time(s)", "total(s)", "overhead")
	var base float64
	for _, level := range []fti.Level{fti.L1, fti.L2, fti.L3, fti.L4} {
		bd, err := match.Run(match.Config{
			App:      "miniFE",
			Design:   match.ReinitFTI,
			Procs:    8,
			Input:    match.Small,
			FTILevel: level,
		})
		if err != nil {
			fmt.Println(level, err)
			return
		}
		if level == fti.L1 {
			base = bd.Total.Seconds()
		}
		fmt.Printf("%-6s %14.6f %14.3f %9.1f%%\n",
			level, bd.Ckpt.Seconds(), bd.Total.Seconds(),
			100*(bd.Total.Seconds()-base)/base)
	}
	fmt.Println("\nHigher levels buy stronger failure coverage (partner/node-group/PFS)")
	fmt.Println("at increasing checkpoint cost; the paper's experiments use L1.")
	// Output:
	// level    ckpt time(s)       total(s)   overhead
	// L1           0.400067         29.842       0.0%
	// L2           0.400126         29.842       0.0%
	// L3           0.400224         29.842       0.0%
	// L4           0.430046         29.872       0.1%
	//
	// Higher levels buy stronger failure coverage (partner/node-group/PFS)
	// at increasing checkpoint cost; the paper's experiments use L1.
}

// Run the same failing HPCCG configuration under the replication-based
// ReplicaFTI design and under REINIT-FTI, the fastest rollback design.
// Replication makes a trade: near-zero recovery (the surviving replica
// keeps computing, nothing is rolled back) bought with duplicated
// processes and messages. Lowering ReplicaFactor then lets the failure hit
// an unreplicated rank, and the design falls back to checkpoint-only
// recovery, PartRePer-style.
func ExampleReplicaConfig() {
	base := match.Config{
		App:       "HPCCG",
		Procs:     8,
		Nodes:     4,
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
			fmt.Println(d, err)
			return
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
			fmt.Println("seed", seed, err)
			return
		}
		mode := "failover (no rollback)"
		if bd.Recovery.Seconds() > 1 {
			mode = "checkpoint fallback (relaunch)"
		}
		fmt.Printf("seed %d: recovery %6.3fs  -> %s\n", seed, bd.Recovery.Seconds(), mode)
	}
	// Output:
	// == failure recovery: replication vs global restart ==
	// REPLICA-FTI  total   6.616s  app   5.986s  recovery  0.020s (1 recoveries)  9964 msgs
	// REINIT-FTI   total   7.247s  app   6.183s  recovery  0.352s (1 recoveries)  2803 msgs
	//
	// == partial replication (ReplicaFactor 0.25), sweeping fault seeds ==
	// seed 1: recovery  0.020s  -> failover (no rollback)
	// seed 2: recovery  6.040s  -> checkpoint fallback (relaunch)
	// seed 3: recovery  6.040s  -> checkpoint fallback (relaunch)
	// seed 4: recovery  6.040s  -> checkpoint fallback (relaunch)
}

// heat is a distributed 2D Jacobi heat solver, decomposed with the same
// toolkit the built-in apps use, one layer thick in z. The ghosted field t
// is itself the checkpoint object: FTI holds the pointer given to Protect,
// so each step copies the new values into t rather than swapping t and tn.
type heat struct {
	d      *appkit.Decomp3D
	t, tn  *appkit.Field3D
	change float64
}

func (h *heat) Name() string { return "Heat2D" }

func (h *heat) Init(ctx *appkit.Context) error {
	n := ctx.Params.NX
	h.d = appkit.NewDecomp3D(ctx.Rank(), ctx.Size(), n, n, 1)
	h.t = appkit.NewField3D(h.d)
	h.tn = appkit.NewField3D(h.d)
	// Hot spot in the global center.
	cx, cy := n/2, n/2
	if cx >= h.d.OX && cx < h.d.OX+h.d.LX && cy >= h.d.OY && cy < h.d.OY+h.d.LY {
		h.t.Set(cx-h.d.OX+1, cy-h.d.OY+1, 1, 100)
	}
	ctx.FTI.Protect(1, h.t)
	ctx.FTI.Protect(2, fti.F64{P: &h.change})
	return nil
}

func (h *heat) Step(ctx *appkit.Context, iter int) error {
	if err := h.t.Exchange(ctx); err != nil {
		return err
	}
	local := 0.0
	for y := 1; y <= h.d.LY; y++ {
		for x := 1; x <= h.d.LX; x++ {
			v := 0.25 * (h.t.At(x-1, y, 1) + h.t.At(x+1, y, 1) + h.t.At(x, y-1, 1) + h.t.At(x, y+1, 1))
			// Keep the hot spot pinned (Dirichlet source).
			if h.t.At(x, y, 1) == 100 {
				v = 100
			}
			h.tn.Set(x, y, 1, v)
			d := v - h.t.At(x, y, 1)
			local += d * d
		}
	}
	ctx.Charge(float64(h.d.LX*h.d.LY) * 6)
	copy(h.t.V, h.tn.V)
	var err error
	h.change, err = appkit.SumAll(ctx, local)
	return err
}

func (h *heat) Signature(ctx *appkit.Context) (float64, error) {
	local := 0.0
	for _, v := range h.t.Interior() {
		local += v
	}
	total, err := appkit.SumAll(ctx, local)
	if err != nil {
		return 0, err
	}
	return total + h.change, nil
}

// Extend MATCH with a new application, as §V-E of the paper invites ("we
// encourage programmers to add new HPC applications ... to MATCH"). Once
// registered, the heat solver above runs under any of the four designs,
// fault injection and all. The failure rolls back to a mid-run checkpoint,
// so the example checks what recovery must guarantee: the failure-free
// answer, bit for bit.
func ExampleRegisterApp() {
	if err := match.RegisterApp("Heat2D", func() match.App { return &heat{} }); err != nil {
		fmt.Println(err)
		return
	}
	defer apps.Unregister("Heat2D")

	run := func(d match.Design, faults int) (match.Breakdown, error) {
		return match.Run(match.Config{
			App:        "Heat2D",
			Design:     d,
			Procs:      16,
			Nodes:      8,
			Faults:     faults,
			FaultSeed:  3,
			CkptPolicy: match.CkptPolicyConfig{Stride: 5},
			Params:     match.Params{NX: 64, MaxIter: 30, WorkScale: 50},
		})
	}
	ref, err := run(match.RestartFTI, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("failure-free answer %.6f\n", ref.Signature)
	for _, d := range []match.Design{match.RestartFTI, match.ReinitFTI, match.UlfmFTI, match.ReplicaFTI} {
		bd, err := run(d, 1)
		if err != nil {
			fmt.Println(d, err)
			return
		}
		verdict := "bitwise equal"
		if math.Float64bits(bd.Signature) != math.Float64bits(ref.Signature) {
			verdict = fmt.Sprintf("DIFFERS (%x, want %x)", math.Float64bits(bd.Signature), math.Float64bits(ref.Signature))
		}
		fmt.Printf("%-12s survived a process failure: recovery %.3fs, total %.3fs, answer %s\n",
			d, bd.Recovery.Seconds(), bd.Total.Seconds(), verdict)
	}
	// Output:
	// failure-free answer 1858.359403
	// RESTART-FTI  survived a process failure: recovery 6.064s, total 6.771s, answer bitwise equal
	// REINIT-FTI   survived a process failure: recovery 0.371s, total 1.079s, answer bitwise equal
	// ULFM-FTI     survived a process failure: recovery 1.927s, total 2.731s, answer bitwise equal
	// REPLICA-FTI  survived a process failure: recovery 0.020s, total 0.625s, answer bitwise equal
}

// Use the paper's Algorithm 1 to discover which data objects a kernel
// must checkpoint. A small instrumented stencil kernel emits a dynamic
// trace (the role LLVM-Tracer plays in the paper); the analyzer then
// applies the three principles of §III-A.
func ExampleAnalyzeTrace() {
	tc := match.NewTracer()

	// An instrumented kernel: u is iterated on, f is a read-only source,
	// scratch is loop-local, and step counts iterations.
	const n = 6
	const (
		aU    = 0x1000
		aF    = 0x2000
		aStep = 0x3000
		aTmp  = 0x4000
	)
	u := make([]float64, n)
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(i)
		u[i] = 1
	}
	bits := func(v float64) uint64 { return uint64(int64(v * 4096)) }

	tc.Alloc("u", aU, n*8, 11)
	tc.Alloc("f", aF, n*8, 12)
	tc.Alloc("step", aStep, 8, 13)
	tc.LoopBegin(20)
	for step := 0; step < 5; step++ {
		tc.NextIter(step)
		tc.Alloc("scratch", aTmp, n*8, 21)
		scratch := make([]float64, n)
		for i := 1; i < n-1; i++ {
			tc.Load(aU+uint64(i*8), bits(u[i]), 22)
			tc.Load(aF+uint64(i*8), bits(f[i]), 23)
			scratch[i] = 0.5*(u[i-1]+u[i+1]) + 0.1*f[i]
			tc.Store(aTmp+uint64(i*8), bits(scratch[i]), 24)
		}
		for i := 1; i < n-1; i++ {
			u[i] = scratch[i]
			tc.Store(aU+uint64(i*8), bits(u[i]), 26)
		}
		tc.Load(aStep, uint64(step), 27)
		tc.Store(aStep, uint64(step+1), 27)
	}
	tc.LoopEnd()

	res := match.AnalyzeTrace(tc)
	depanal.WriteReport(os.Stdout, res)
	fmt.Println("\nExpected: checkpoint {u, step}; f is rebuildable (constant values,")
	fmt.Println("principle 3) and scratch is loop-local (principle 1).")
	// Output:
	// == Data objects to checkpoint (Algorithm 1) ==
	//   u                addr=4096     size=48       line=11    (4 in-loop locations)
	//   step             addr=12288    size=8        line=13    (1 in-loop locations)
	// excluded: 4 constant-valued locations (principle 3), 4 loop-local locations (principle 1)
	//
	// Expected: checkpoint {u, step}; f is rebuildable (constant values,
	// principle 3) and scratch is loop-local (principle 1).
}

// Watch a run instead of just measuring it. The breakdown says how much
// time went to checkpoints and recovery; the trace shows when: every
// rank's compute/checkpoint/recovery spans on its own timeline, with the
// fault injector, detector and runtime bookkeeping on tracks of their own,
// exported as Chrome trace-event JSON that Perfetto renders directly.
//
// The run is the replica design's full failure repertoire: hot-spare
// respawn under two failures aimed at the same rank's group. The first
// kill takes the primary (failover instant, degraded span, background
// spawn span refilling the group); the second takes a shadow and is
// absorbed without rollback. Run reconciles the trace against the
// breakdown and fails hard if the two accountings drift.
func ExampleNewTraceRecorder() {
	// One recorder per run. The default detail keeps phase spans (compute,
	// checkpoint, recovery, failover), which is what a timeline needs;
	// ParseTraceDetail("all") would add per-message and heartbeat events.
	rec := match.NewTraceRecorder()

	sched, err := match.ParseFaultSchedule("3@20:replica=0,3@45:replica=1")
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := match.Config{
		App:      "HPCCG",
		Design:   match.ReplicaFTI,
		Procs:    8,
		Input:    match.Small,
		Schedule: &sched,
		Replica:  match.ReplicaConfig{HotSpare: true},
		Trace:    rec,
	}
	bd, err := match.Run(cfg)
	if err != nil {
		fmt.Println(err) // includes trace/breakdown reconciliation failures
		return
	}

	fmt.Println("== Hot-spare replica run, two failures on rank 3's group ==")
	fmt.Printf("schedule            %s\n", sched)
	fmt.Printf("total               %.2fs  (app %.2fs, ckpt %.2fs, recovery %.2fs)\n",
		bd.Total.Seconds(), bd.App.Seconds(), bd.Ckpt.Seconds(), bd.Recovery.Seconds())
	fmt.Printf("spans recorded      %d\n", rec.Len())

	// The per-phase table: the trace's own sums next to the breakdown's,
	// reconciled column by column.
	fmt.Println()
	rec.WriteMetrics(os.Stdout, match.TraceTotalsOf(bd), cfg.Design == match.ReplicaFTI)

	// Perfetto export: write it to a file and drop that on
	// https://ui.perfetto.dev to see one track per rank (shadows as
	// "rank N (replica M)") plus the fault injector, detector and recovery
	// tracks.
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		fmt.Println(err)
		return
	}
	var chrome struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\nChrome trace: %d events (%d spans plus track names)\n", len(chrome.TraceEvents), rec.Len())
	// Output:
	// == Hot-spare replica run, two failures on rank 3's group ==
	// schedule            3@20,3@45:replica=1
	// total               6.64s  (app 5.97s, ckpt 0.63s, recovery 0.04s)
	// spans recorded      1039
	//
	// phase              trace_s   breakdown_s
	// total              6.635358  6.635358
	// app                5.965799  5.965799
	// ckpt               0.629559  0.629559
	// recovery           0.040000  0.040000
	// detect_latency     0.000000  0.000000
	// detected_failures  1         1
	// reconciliation: OK
	//
	// category    spans  time_s
	// compute     920    92.003149
	// checkpoint  92     9.646506
	// finish      15     0.000000
	// recovery    2      0.040000
	// degraded    2      0.502823
	// spawn       2      0.502823
	// inject      2      0.000000
	// detect      1      0.000000
	// failover    1      0.000000
	// absorb      1      0.000000
	// policy-arm  1      0.000000
	//
	// Chrome trace: 1083 events (1039 spans plus track names)
}

// Count a run instead of just timing it. The breakdown is the paper's
// figure, seconds per phase; the metrics registry is the engineering view
// underneath: how many messages, bytes, checkpoints per FTI level,
// injections, detections, recoveries and failovers the simulator
// performed, exported in OpenMetrics text any Prometheus stack can ingest.
//
// Every layer reports an event as one span; the registry counts those
// spans at write time, and Run reconciles the totals exactly against the
// breakdown the designs account at teardown. A metered run that returns at
// all is one where the two accountings agreed to the last event.
func ExampleNewMetricsRegistry() {
	// One registry per run (CampaignRunner.Cells meters reps itself: each
	// simulated rep reconciles a fresh registry and the caller's gets the
	// merged totals). The event log is independent: attach either, both or
	// neither.
	reg := match.NewMetricsRegistry()
	var events bytes.Buffer

	sched, err := match.ParseFaultSchedule("3@20:replica=0,3@45:replica=1")
	if err != nil {
		fmt.Println(err)
		return
	}
	bd, err := match.Run(match.Config{
		App:      "HPCCG",
		Design:   match.ReplicaFTI,
		Procs:    8,
		Input:    match.Small,
		Schedule: &sched,
		Replica:  match.ReplicaConfig{HotSpare: true},
		Metrics:  reg,
		Log:      match.NewEventLog(&events),
	})
	if err != nil {
		fmt.Println(err) // includes registry/breakdown reconciliation failures
		return
	}

	fmt.Println("== Metered hot-spare replica run, two failures on rank 3's group ==")
	fmt.Printf("total               %.2fs  (app %.2fs, ckpt %.2fs, recovery %.2fs)\n",
		bd.Total.Seconds(), bd.App.Seconds(), bd.Ckpt.Seconds(), bd.Recovery.Seconds())
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

	// The event log is JSON lines from log/slog. Each line also carries the
	// host's wall-clock "time"; what follows "msg" is virtual and
	// deterministic.
	fmt.Println("\n== Event log ==")
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		_, event, _ := strings.Cut(line, `"level":"INFO",`)
		fmt.Println("{" + event)
	}

	// The OpenMetrics exposition has counters with _total, byte histograms
	// with cumulative buckets and per-level checkpoint counts, ended by
	// # EOF. matchsuite serves the sweep-level aggregate of exactly this on
	// /metrics while a campaign runs (matchsuite -campaign -pprof-http
	// :6060). Here, the per-level checkpoint family.
	var exposition bytes.Buffer
	if err := reg.WriteOpenMetrics(&exposition); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("\n== OpenMetrics exposition (excerpt) ==")
	for _, line := range strings.Split(exposition.String(), "\n") {
		if strings.HasPrefix(line, "match_fti_level_") || line == "# EOF" {
			fmt.Println(line)
		}
	}
	// Output:
	// == Metered hot-spare replica run, two failures on rank 3's group ==
	// total               6.64s  (app 5.97s, ckpt 0.63s, recovery 0.04s)
	// messages            10224 (3724288 bytes on the wire)
	// checkpoints         92  L1=92
	// failures            2 injected, 1 detected
	// replica response    1 failover(s), 1 absorb(s), 2 respawn(s)
	//
	// == Event log ==
	// {"msg":"inject","vt_s":2.198765333,"rank":3,"replica":0,"kind":"process","absorbed":false}
	// {"msg":"detect","vt_s":2.198765333,"gid":3,"latency_s":0}
	// {"msg":"failover","vt_s":2.218765333,"rank":3,"replica":0,"gid":3}
	// {"msg":"respawn","vt_s":2.470176887,"rank":3,"replica":0,"node":12}
	// {"msg":"absorb","vt_s":5.015475888,"rank":3,"replica":1,"gid":11}
	// {"msg":"inject","vt_s":5.015475888,"rank":3,"replica":1,"kind":"process","absorbed":true}
	// {"msg":"respawn","vt_s":5.286887442,"rank":3,"replica":1,"node":12}
	//
	// == OpenMetrics exposition (excerpt) ==
	// match_fti_level_checkpoints_total{level="1"} 92
	// match_fti_level_checkpoints_total{level="2"} 0
	// match_fti_level_checkpoints_total{level="3"} 0
	// match_fti_level_checkpoints_total{level="4"} 0
	// match_fti_level_checkpoint_bytes_total{level="1"} 3824992
	// match_fti_level_checkpoint_bytes_total{level="2"} 0
	// match_fti_level_checkpoint_bytes_total{level="3"} 0
	// match_fti_level_checkpoint_bytes_total{level="4"} 0
	// # EOF
}

// What the paper's single-failure protocol (Figure 4) cannot measure. A
// campaign schedules k failures per run, drawn deterministically from one
// seed (the same rank and iteration sequence for every design), and sweeps
// k to find where replication's rollback-free failover pulls away from
// checkpoint/restart: each extra failure costs the rollback designs
// another restore-and-replay, while ReplicaFTI absorbs it with a leader
// election. An explicit schedule then lands a second failure on the
// already-degraded replica group after the first recovery, forcing the
// checkpoint-only fallback.
func ExampleComputeCrossover() {
	// Recovery time and total overhead vs failure count, every design, one
	// seed. The zero CampaignRunner runs one worker per core.
	results, err := match.CampaignRunner{}.Run(match.CampaignRequest{
		Apps:      []string{"HPCCG"},
		Procs:     8,
		MaxFaults: 3,
		Seed:      7,
	}, os.Stdout)
	if err != nil {
		fmt.Println(err)
		return
	}

	// From how many failures on does replication win end-to-end,
	// duplication overhead included?
	match.ComputeCrossover(results).Write(os.Stdout)

	// Kill rank 3's shadow replica at iteration 20, then its primary at
	// iteration 35, but only after the first recovery, so the second hit
	// lands on a group that has not regained redundancy. No copy of rank 3
	// survives; the run must fall back to restoring the last checkpoint.
	sched, err := match.ParseFaultSchedule("3@20:replica=1,3@35:after=1")
	if err != nil {
		fmt.Println(err)
		return
	}
	bd, err := match.Run(match.Config{
		App:      "HPCCG",
		Design:   match.ReplicaFTI,
		Procs:    8,
		Input:    match.Small,
		Schedule: &sched,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("== Second hit on a degraded replica group (checkpoint-only fallback) ==")
	fmt.Printf("schedule            %s\n", sched)
	fmt.Printf("faults fired        %d\n", bd.FaultsInjected)
	fmt.Printf("recoveries          %d  (failover, then fallback relaunch)\n", bd.Recoveries)
	fmt.Printf("recovery time       %.3f s  (the relaunch dominates: rollback is back)\n", bd.Recovery.Seconds())
	fmt.Printf("total               %.3f s\n", bd.Total.Seconds())
	// Output:
	// == Multi-failure campaign: recovery time and total overhead vs failure count ==
	//
	// -- HPCCG --
	// faults   design        recovered  recovery(s)     total(s)  overhead(s)  overhead(%)
	// 0        RESTART-FTI           0        0.000        6.591        0.000         0.0%
	// 0        REINIT-FTI            0        0.000        6.591        0.000         0.0%
	// 0        ULFM-FTI              0        0.000        6.601        0.000         0.0%
	// 0        REPLICA-FTI           0        0.000        6.595        0.000         0.0%
	// 1        RESTART-FTI           1        6.032       13.724        7.133       108.2%
	// 1        REINIT-FTI            1        0.353        8.045        1.454        22.1%
	// 1        ULFM-FTI              1        1.774        9.578        2.976        45.1%
	// 1        REPLICA-FTI           1        0.020        6.615        0.020         0.3%
	// 2        RESTART-FTI           2       12.064       20.758       14.167       215.0%
	// 2        REINIT-FTI            2        0.704        9.397        2.806        42.6%
	// 2        ULFM-FTI              2        3.548       12.378        5.777        87.5%
	// 2        REPLICA-FTI           2        0.040        6.636        0.041         0.6%
	// 3        RESTART-FTI           3       18.096       27.692       21.101       320.2%
	// 3        REINIT-FTI            3        1.054       10.650        4.059        61.6%
	// 3        ULFM-FTI              3        5.323       15.080        8.478       128.4%
	// 3        REPLICA-FTI           3        0.060        6.656        0.060         0.9%
	//
	// == Replica vs Reinit crossover (campaign) ==
	// faults     Replica/Reinit total (avg) Reinit/Replica recovery (avg)
	// 0                              1.001x                            -
	// 1                              0.822x                        17.6x
	// 2                              0.706x                        17.6x
	// 3                              0.625x                        17.6x
	// crossover at k=1: from 1 failures on, replication wins end-to-end
	// (over 4 design-comparable cells)
	//
	// == Second hit on a degraded replica group (checkpoint-only fallback) ==
	// schedule            3@20:replica=1,3@35:after=1
	// faults fired        2
	// recoveries          2  (failover, then fallback relaunch)
	// recovery time       6.084 s  (the relaunch dominates: rollback is back)
	// total               13.283 s
}

// The campaign-as-a-service surface from the library side. A campaign is
// a CampaignRequest, pure data whose canonical encoding is its identity,
// executed by a CampaignRunner over a content-addressed ResultStore. The
// same request JSON can be POSTed to a matchserve instance and produces
// identical results. In-process, the cache shows what it buys: the warm
// rerun simulates nothing, and an overlapping sweep simulates only the
// cells it adds.
func ExampleCampaignRunner() {
	req := match.CampaignRequest{
		Apps:      []string{"HPCCG"},
		Designs:   []match.Design{match.ReinitFTI, match.ReplicaFTI},
		Procs:     8,
		MaxFaults: 1,
		Seed:      7,
	}
	cells, err := req.CellCount()
	if err != nil {
		fmt.Println(err)
		return
	}
	id, err := req.Hash()
	if err != nil {
		fmt.Println(err)
		return
	}
	// The hash is the campaign's identity: a matchserve instance uses it as
	// the campaign ID, so resubmitting an equivalent request (defaults
	// spelled out or left zero) is idempotent.
	fmt.Printf("campaign %.12s…: %d cells\n\n", id, cells)

	// A memory store lives as long as the process; matchsuite -cache DIR
	// keeps cells across processes.
	st := match.NewMemoryResultStore(0)
	runner := match.CampaignRunner{Workers: 2, Store: st}
	report := func(label string) {
		cs := st.Stats()
		fmt.Printf("%-18s hits=%-3d misses=%-3d simulated=%-3d hit-rate=%.0f%%\n",
			label+":", cs.Hits, cs.Misses, cs.Puts, 100*cs.HitRate())
	}

	if _, err := runner.Run(req, nil); err != nil {
		fmt.Println(err)
		return
	}
	report("cold run")

	// The identical campaign again: every cell is a cache hit, nothing is
	// simulated, and the output (had we written it) is byte-identical to
	// the cold run's.
	if _, err := runner.Run(req, nil); err != nil {
		fmt.Println(err)
		return
	}
	report("warm rerun")

	// The same axes plus one more design simulate only the cells it adds.
	wider := req
	wider.Designs = append(wider.Designs, match.UlfmFTI)
	results, err := runner.Run(wider, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	report("overlapping sweep")

	fmt.Println()
	match.WriteCampaign(os.Stdout, results)
	// Output:
	// campaign cb42b4d6fc94…: 4 cells
	//
	// cold run:          hits=0   misses=4   simulated=4   hit-rate=0%
	// warm rerun:        hits=4   misses=4   simulated=4   hit-rate=50%
	// overlapping sweep: hits=8   misses=6   simulated=6   hit-rate=57%
	//
	// == Multi-failure campaign: recovery time and total overhead vs failure count ==
	//
	// -- HPCCG --
	// faults   design        recovered  recovery(s)     total(s)  overhead(s)  overhead(%)
	// 0        REINIT-FTI            0        0.000        6.591        0.000         0.0%
	// 0        ULFM-FTI              0        0.000        6.601        0.000         0.0%
	// 0        REPLICA-FTI           0        0.000        6.595        0.000         0.0%
	// 1        REINIT-FTI            1        0.353        8.045        1.454        22.1%
	// 1        ULFM-FTI              1        1.774        9.578        2.976        45.1%
	// 1        REPLICA-FTI           1        0.020        6.615        0.020         0.3%
}
