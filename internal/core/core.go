// Package core is MATCH's measurement harness — the paper's primary
// contribution. It composes a proxy application with one of the four
// fault-tolerance designs (RESTART-FTI, REINIT-FTI, ULFM-FTI from the
// paper, plus the replication-based REPLICA-FTI extension the paper's
// §V-E invites), runs it on the simulated cluster at a Table I
// configuration with or without an injected process failure, and reports
// the execution-time breakdown the paper's figures plot: Application /
// Write Checkpoints / Recovery.
package core

import (
	"fmt"
	"strings"

	"match/internal/apps/appkit"
	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/obs"
	"match/internal/reinit"
	"match/internal/replica"
	"match/internal/restart"
	"match/internal/simnet"
	"match/internal/storage"
	"match/internal/trace"
	"match/internal/ulfm"
)

// Design selects the fault-tolerance composition.
type Design int

// The three designs the paper evaluates plus the replication-based fourth.
const (
	RestartFTI Design = iota
	ReinitFTI
	UlfmFTI
	ReplicaFTI
)

func (d Design) String() string {
	switch d {
	case RestartFTI:
		return "RESTART-FTI"
	case ReinitFTI:
		return "REINIT-FTI"
	case UlfmFTI:
		return "ULFM-FTI"
	case ReplicaFTI:
		return "REPLICA-FTI"
	}
	return fmt.Sprintf("design(%d)", int(d))
}

// Designs lists all four in plotting order: the paper's three followed by
// the replication extension.
func Designs() []Design { return []Design{RestartFTI, ReinitFTI, UlfmFTI, ReplicaFTI} }

// designNames are the designs' canonical CLI spellings, indexed by Design.
var designNames = [...]string{RestartFTI: "restart", ReinitFTI: "reinit", UlfmFTI: "ulfm", ReplicaFTI: "replica"}

// ShortName returns the design's canonical CLI spelling ("replica"); an
// out-of-range value is its String.
func (d Design) ShortName() string {
	if d >= 0 && int(d) < len(designNames) {
		return designNames[d]
	}
	return d.String()
}

// DesignNames returns the canonical CLI spellings in plotting order.
func DesignNames() []string {
	names := make([]string, 0, len(Designs()))
	for _, d := range Designs() {
		names = append(names, d.ShortName())
	}
	return names
}

// ParseDesign resolves a design name case-insensitively, accepting both
// the short form ("replica") and the full form ("REPLICA-FTI"). Unknown
// names get an error that lists every valid spelling.
func ParseDesign(name string) (Design, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	want = strings.TrimSuffix(want, "-fti")
	for _, d := range Designs() {
		if want == d.ShortName() {
			return d, nil
		}
	}
	return 0, fmt.Errorf("core: unknown design %q (valid: %s)", name, strings.Join(DesignNames(), ", "))
}

// InputSize is the paper's Small/Medium/Large problem selector.
type InputSize int

// Problem sizes of Table I.
const (
	Small InputSize = iota
	Medium
	Large
)

// inputNames are the problem sizes' names, indexed by InputSize.
var inputNames = [...]string{Small: "Small", Medium: "Medium", Large: "Large"}

func (s InputSize) String() string {
	if s >= 0 && int(s) < len(inputNames) {
		return inputNames[s]
	}
	return fmt.Sprintf("input(%d)", int(s))
}

// InputSizes lists all three.
func InputSizes() []InputSize { return []InputSize{Small, Medium, Large} }

// Config describes one benchmark run.
type Config struct {
	App    string
	Design Design
	Procs  int // 64, 128, 256, 512 in the paper
	Nodes  int // 32 in the paper
	Input  InputSize

	// InjectFault is a legacy spelling of Faults: 1 (same CellKey). Set
	// Faults: the field stays only because the frozen bench/ probes set it.
	InjectFault bool
	FaultSeed   int64
	FaultKind   fault.Kind
	// Faults is the campaign size: the number of failures injected per
	// run, drawn deterministically from FaultSeed. Event 0 of a k-failure
	// schedule is always the legacy single-failure draw, so k=1 reproduces
	// the calibrated results byte-for-byte.
	Faults int
	// Schedule, when non-nil, overrides the random draw entirely with an
	// explicit failure schedule (see fault.ParseSchedule for the DSL).
	Schedule *fault.Schedule

	FTILevel fti.Level // default L1, as the paper benchmarks

	// CkptPolicy selects and tunes the checkpoint-placement strategy
	// shared by all four designs (internal/ckpt); its Stride is the run's
	// one checkpoint stride. The zero value is the classic fixed-stride
	// placement every 10 iterations (the paper's stride) at FTILevel —
	// reproducing the calibrated numbers byte-for-byte. The multi-level,
	// replica-aware, and adaptive policies make placement a sweepable
	// axis: how much checkpoint overhead replication actually buys off is
	// the PartRePer trade-off the campaign harness plots.
	CkptPolicy ckpt.Config

	// Detector selects and tunes the failure-detection strategy shared by
	// all four designs (internal/detect). The zero value keeps each
	// design's calibrated preset: ULFM's ring heartbeat, Reinit's daemon
	// tree, and the instant SIGCHLD-style launcher for Restart/Replica —
	// reproducing the calibrated Figure 6/9 numbers byte-for-byte. An
	// explicit kind (detect.Ring, detect.Tree, detect.Launcher) runs every
	// design under the same detection model, making detection latency and
	// heartbeat interference a sweepable axis.
	Detector detect.Config

	// ModelIngress additionally serializes traffic on receiver NICs (see
	// simnet.Config.ModelIngress). Default off for every design, keeping
	// the seed's egress-only calibration; turning it on charges realistic
	// queueing delay for duplicated inbound streams (most visible under
	// ReplicaFTI, which used to force it on) at the cost of shifting all
	// calibrated timings slightly.
	ModelIngress bool

	// The designs' settable knobs; zero values select the calibrated
	// defaults, and the rest of each design's cost model is fixed (README,
	// "How a Config is resolved"). Ulfm.DeliveryFactor is the
	// progress-engine slowdown; Replica.HotSpare is the replica design's
	// background-respawn switch. Restart and Reinit have none.
	Ulfm    ulfm.Config
	Replica replica.Config

	// Params overrides the Table I parameter resolution entirely when
	// MaxIter is non-zero (used by custom applications).
	Params appkit.Params

	// Trace, when non-nil, records a per-rank event timeline of the run:
	// compute/checkpoint spans on every rank's track plus injector,
	// detector, and recovery activity (export with trace.WriteChrome, or
	// summarize with trace.WriteMetrics). The recorder only observes — it
	// never schedules or charges time — so a traced run is byte-identical
	// to an untraced one; Run additionally self-checks the recorded spans
	// against the returned Breakdown and fails hard on divergence. One
	// recorder serves exactly one Run: it is not safe to share across the
	// concurrent runs of a sweep (Cells rejects Trace with reps > 1).
	// Observers are runtime wiring, not configuration: all three are
	// excluded from serialization and canonical hashing (CellKey).
	Trace *trace.Recorder `json:"-"`

	// Metrics, when non-nil, accumulates the run's operational counters
	// (messages, checkpoints per level, detections, failovers, respawns,
	// scheduler events — see internal/obs) into the registry. Like Trace it
	// is a pure observer: a metered run is byte-identical to an unmetered
	// one, and Run self-checks the registry against the returned Breakdown,
	// failing hard on divergence (registry and trace consume the same
	// emitted spans, so they cannot disagree with each other). Unlike
	// Trace, a registry may serve a multi-rep cell of Cells: each simulated
	// rep gets a fresh registry that is merged in afterwards.
	Metrics *obs.Registry `json:"-"`

	// Log, when non-nil, receives structured lifecycle events (inject,
	// detect, failover, respawn, fallback, node-fail) as JSON lines with
	// virtual timestamps. Observer-only, like Trace and Metrics.
	Log *obs.Log `json:"-"`
}

// FaultCount is the number of failures this configuration injects: the
// explicit schedule's length when one is set, else Faults, else one when
// the legacy InjectFault switch is on.
func (c Config) FaultCount() int {
	switch {
	case c.Schedule != nil:
		return len(c.Schedule.Events)
	case c.Faults > 0:
		return c.Faults
	case c.InjectFault:
		return 1
	}
	return 0
}

// failureFree turns a cell into its failure-free twin: every spelling of a
// failure FaultCount reads is cleared.
func failureFree(c *Config) { c.Faults, c.InjectFault, c.Schedule = 0, false, nil }

// Breakdown is the measured result of one run: the stacked components of
// the paper's Figures 5/6/8/9 plus bookkeeping.
type Breakdown struct {
	Total    simnet.Time // wall time of the whole run (max over ranks; the end clock if not Completed)
	App      simnet.Time // Total - Ckpt - Recovery (at least 0 if not Completed)
	Ckpt     simnet.Time // time inside FTI_Checkpoint (rank 0)
	Recovery simnet.Time // MPI recovery time (framework-reported)
	// DetectLatency measures the detection share of Recovery: the sum over
	// confirmed failures of how long the active detector took from its
	// first observation of the death to confirmation. It is contained
	// within Recovery, not additional to it — do not add the two when
	// summing components. Exactly zero under the Launcher strategy (the
	// SIGCHLD chain is instant; any launcher reaction delay is recovery
	// logistics, not detection).
	DetectLatency simnet.Time
	// DetectedFailures counts the failures the detection subsystem
	// confirmed (teardown kills excluded) — the denominator for
	// per-failure detection latency. It can exceed Recoveries when one
	// repair absorbs several deaths, and FaultsInjected when a node
	// failure kills several processes.
	DetectedFailures int

	Signature  float64 // collective answer fingerprint (rank 0)
	Recoveries int
	// FaultsInjected counts the schedule events that actually fired. An
	// AfterRecoveries-gated event whose window never opens (e.g. under
	// rollback-free failover, which never revisits an iteration) can leave
	// this below the scheduled count.
	FaultsInjected int
	Completed      bool
	CkptCount      int
	CkptBytes      int64
	// CkptCountAt / CkptBytesAt split CkptCount/CkptBytes by the FTI level
	// each checkpoint was written at (index by fti.Level; slot 0 unused).
	// Under fixed placement only the configured level's slot is populated;
	// the multi-level policy spreads checkpoints across several.
	CkptCountAt [5]int
	CkptBytesAt [5]int64
	// CkptAvoided counts the placement points where the base fixed-stride
	// policy would have checkpointed but the active placement policy
	// skipped — the checkpoints replication (or a longer adaptive
	// interval) saved. Zero under fixed placement.
	CkptAvoided int
	Messages    int64
	NetBytes    int64
	// Respawns counts the hot spares that went live during the run (zero
	// unless Config.Replica.HotSpare); SpawnTime sums their spawn latency
	// (dynamic spawn plus state transfer). Spawning happens in the
	// background, so SpawnTime is a resource metric, not a component of
	// Total.
	Respawns  int
	SpawnTime simnet.Time
	// LeakedEvents counts scheduler events still pending when the run's
	// event loop went quiescent — timers and deliveries that were scheduled
	// but never fired. A clean run drains to zero; a non-zero count means
	// some component kept re-arming past job completion (or the deadline
	// net tripped) and its virtual-time costs are missing from Total. The
	// trace recorder logs the earliest leaked timestamp alongside.
	LeakedEvents int
}

// recorder accumulates per-rank results across job incarnations.
type recorder struct {
	sigs   map[int]float64
	finish map[int]simnet.Time
	// liveFTI holds each rank's most recent FTI instance; the hot-spare
	// runtime sizes its state transfers from the instance's live protected
	// footprint (all replicas of a rank register identical objects, so any
	// instance answers for the rank).
	liveFTI map[int]*fti.FTI
	errs    []error
	// stops holds every FTI instance in the order it stopped; booked turns
	// a rank's into the figures the Breakdown reports.
	stops []ftiStop
	// raw sums the stats of every instance of every rank, replicas not
	// deduplicated: what the metrics registry counts at write time, summed
	// here at teardown by an independent path.
	raw fti.Stats
}

// ftiStop is one FTI instance of a rank: its job incarnation, the replica
// index it started as (0 unless the world is replicated) and its stats
// when it stopped.
type ftiStop struct {
	job     *mpi.Job
	rank    int
	replica int
	st      fti.Stats
}

func newRecorder() *recorder {
	return &recorder{
		sigs:    make(map[int]float64),
		finish:  make(map[int]simnet.Time),
		liveFTI: make(map[int]*fti.FTI),
	}
}

// stopped records an FTI instance that stopped, normally or by teardown.
func (rec *recorder) stopped(s ftiStop) {
	rec.stops = append(rec.stops, s)
	addStats(&rec.raw, s.st)
}

// booked is the one rule for the FTI stats a rank books. Every replica of
// a rank runs the same checkpoints, so a job books them once: per job
// incarnation, the rank's instances are summed per replica index and the
// replica with the largest checkpoint time counts (on a tie, the one that
// stopped later). Jobs add up. A rank that is not replicated is its own
// only replica, so its re-entered instances (Reinit, ULFM) add up too.
// trace.Recorder.Totals applies the same rule to the checkpoint spans.
func (rec *recorder) booked(rank int) fti.Stats {
	type group struct {
		job     *mpi.Job
		replica int
	}
	sums := make(map[group]*fti.Stats)
	best := make(map[*mpi.Job]*fti.Stats)
	for _, s := range rec.stops {
		if s.rank != rank {
			continue
		}
		g := group{s.job, s.replica}
		sum := sums[g]
		if sum == nil {
			sum = new(fti.Stats)
			sums[g] = sum
		}
		addStats(sum, s.st)
		// Sums only grow, so the latest group to reach the maximum is the
		// one that stopped later among the tied.
		if b := best[s.job]; b == nil || sum.CkptTime >= b.CkptTime {
			best[s.job] = sum
		}
	}
	var total fti.Stats
	for _, sum := range best {
		addStats(&total, *sum)
	}
	return total
}

// addStats adds one instance's stats to sum.
func addStats(sum *fti.Stats, st fti.Stats) {
	sum.CkptTime += st.CkptTime
	sum.CkptCount += st.CkptCount
	sum.CkptBytes += st.CkptBytes
	for l := range st.CkptCountAt {
		sum.CkptCountAt[l] += st.CkptCountAt[l]
		sum.CkptBytesAt[l] += st.CkptBytesAt[l]
	}
	sum.RecoverTime += st.RecoverTime
	sum.RecoverOps += st.RecoverOps
}

// runDeadline is every run's virtual deadline: the net that turns a
// deadlock or livelock into an error.
const runDeadline = 200000 * simnet.Second

// Run executes one configuration to completion and returns its breakdown.
// It is safe to call concurrently (the sweep harness runs configurations on
// a worker pool): each run owns its cluster, storage, and injector.
//
// The configured design only arms the cluster (arm* below); Run drives it
// (drive) and accounts the result in one epilogue shared by all designs. A
// simulation that trips the scheduler's deadline net returns "core: virtual
// deadline ... exceeded" together with the partial breakdown, and names
// the first error a rank reported, as an incomplete run does.
func Run(cfg Config) (Breakdown, error) {
	// Everything the simulation consumes comes from the resolved cell — the
	// value CellKey hashes; cfg contributes only its observers from here on.
	rc, err := resolve(cfg)
	if err != nil {
		return Breakdown{}, err
	}

	// Ingress-NIC serialization is one knob for all designs (default off,
	// matching the seed's egress-only calibration). ReplicaFTI historically
	// forced it on; see the README's detection/calibration notes.
	// The cluster is the per-run machine model, so the Table I byte scale —
	// one number per run — lives on it: the message path, the storage tiers,
	// FTI and the hot-spare transfer all read it from there.
	cluster := simnet.NewCluster(simnet.Config{Nodes: rc.Nodes, ModelIngress: rc.Ingress, BytesScale: rc.scale})
	cluster.Scheduler().SetDeadline(runDeadline)
	// The one observer seam: every layer reports an event as one span to
	// this probe, and the three Config observers consume it.
	probe := obs.NewProbe(cfg.Metrics, cfg.Trace, cfg.Log)
	cluster.SetProbe(probe)
	cfg.Metrics.EnsureRanks(rc.Procs)
	st := storage.New(cluster, storage.Config{})

	var sched fault.Schedule
	k, maxIter := rc.Faults, rc.params.MaxIter
	switch {
	case rc.schedule != nil:
		sched = *rc.schedule
	case k > 0 && rc.Design == ReplicaFTI:
		// Same (rank, iteration) draws as the other designs for the same
		// seed, plus which replica of each target rank dies.
		lay := replica.NewLayout(rc.Procs, rc.Nodes, *rc.Replica)
		sched = fault.NewReplicatedSchedule(rc.Seed, k, rc.Procs, maxIter, rc.Kind, lay.DegreeOf)
	case k > 0:
		sched = fault.NewSchedule(rc.Seed, k, rc.Procs, maxIter, rc.Kind)
	}
	inj := fault.NewScheduleInjector(sched)

	// The placement planner is shared by every rank across incarnations,
	// like the injector: each runtime feeds it the recovery count it
	// re-arms policies on (and, for the replica design, the live group
	// degree the replica-aware policy consults).
	planner, err := ckpt.NewPlanner(rc.Policy, maxIter, k)
	if err != nil {
		return Breakdown{}, err
	}
	planner.Attach(probe, cluster.Now)

	// The execution id only needs to be stable across the incarnations of
	// this one run (each run owns its cluster and storage), so it is derived
	// from the configuration rather than a process-wide counter — which
	// keeps Run free of global state and safe to call concurrently.
	execID := fmt.Sprintf("%s-%s-p%d-%s-k%d-s%d", rc.App, rc.Design, rc.Procs, rc.Input, k, rc.Seed)
	rec := newRecorder()

	// runApp is the shared resilient main: FTI + the Figure-1 loop. The
	// recorder gets the instance's stats when it stops running (normally or
	// by teardown), under the replica index it started as: a hot-spare
	// failover can re-index a survivor mid-run.
	runApp := func(r *mpi.Rank, world *mpi.Comm) error {
		rank, replica := r.Rank(world), 0
		if world.Replicated() {
			replica = world.ReplicaIndexOf(r.Process().GID())
		}
		f, ferr := fti.Init(fti.Config{Level: rc.FTILevel, ExecID: execID}, r, world, st)
		if ferr != nil {
			return ferr
		}
		rec.liveFTI[rank] = f
		defer func() { rec.stopped(ftiStop{r.Job(), rank, replica, f.Stats}) }()
		ctx := &appkit.Context{R: r, World: world, FTI: f, Inject: inj, Params: rc.params,
			Ckpt: planner.Policy()}
		sig, aerr := appkit.RunMainLoop(ctx, rc.factory())
		if aerr != nil {
			return aerr
		}
		rec.sigs[rank] = sig
		rec.finish[rank] = r.Now()
		// Mirror the finish-map write exactly: Totals takes the last
		// CatFinish write per rank, so emission order must match map
		// assignment order (it does — the simulation is single-threaded).
		if probe.On(trace.CatFinish) {
			var rep int32
			if world.Replicated() {
				rep = int32(world.ReplicaIndexOf(r.Process().GID()))
			}
			probe.Emit(trace.Span{Cat: trace.CatFinish, Rank: int32(rank),
				Replica: rep, Job: probe.JobOf(r.Job()), Start: int64(r.Now())})
		}
		return nil
	}

	// Arm the design: it builds its runtime on the cluster, hands it runApp,
	// and returns its live recovery log plus a finish to call once the
	// cluster has drained. Nothing has executed yet.
	var recoveries *[]mpi.Recovery
	var finish func() outcome
	switch rc.Design {
	case RestartFTI:
		recoveries, finish = armRestart(rc, cluster, rec, runApp)
	case ReinitFTI:
		recoveries, finish = armReinit(rc, cluster, rec, runApp)
	case UlfmFTI:
		recoveries, finish = armUlfm(rc, cluster, rec, runApp)
	case ReplicaFTI:
		recoveries, finish = armReplica(rc, cluster, rec, runApp, inj, planner)
	}
	// AfterRecoveries-gated events arm once the design has logged that many
	// recoveries (relaunches, global restarts, repairs, failovers); the
	// placement planner re-arms its policy on the same count.
	inj.Recoveries = func() int { return len(*recoveries) }
	planner.Epoch = inj.Recoveries

	deadlineErr := drive(cluster)

	// One epilogue for all four designs. Each completed recovery is one
	// CatRecovery span to the observers; the goldens pin its fields.
	out := finish()
	rec.errs = append(rec.errs, out.errs...)
	var bd Breakdown
	for _, rcv := range *recoveries {
		bd.Recovery += rcv.Duration()
		bd.Recoveries++
		if probe.On(trace.CatRecovery) {
			probe.Emit(trace.Span{Cat: trace.CatRecovery, Rank: int32(rcv.Rank), Replica: int32(rcv.Replica),
				Level: int32(rcv.Kind), Start: int64(rcv.FailedAt), Dur: int64(rcv.Duration()), Aux: int64(rcv.Failed)})
		}
	}
	bd.DetectLatency, bd.DetectedFailures = detect.Totals(out.detectors...)
	for _, j := range out.jobs {
		bd.Messages += j.Stats.Messages
		bd.NetBytes += j.Stats.Bytes
	}
	bd.Respawns, bd.SpawnTime = out.respawns, out.spawnTime
	if out.gaveUp {
		return bd, fmt.Errorf("%s: gave up after %d relaunches", rc.Design.ShortName(), out.relaunches)
	}

	// A drained scheduler is the quiescence invariant; pending events after
	// Run mean some component's virtual-time costs never landed. Count them
	// (cheap queue scan, traced or not) so reports can surface the leak.
	if n, at := cluster.Scheduler().Leaked(); n > 0 {
		bd.LeakedEvents = n
		if probe.On(trace.CatLeak) {
			probe.Emit(trace.Span{Cat: trace.CatLeak, Rank: -1, Start: int64(at), Aux: int64(n)})
		}
	}

	for _, t := range rec.finish {
		if t > bd.Total {
			bd.Total = t
		}
	}
	ck := rec.booked(0)
	bd.Ckpt = ck.CkptTime
	bd.App = bd.Total - bd.Ckpt - bd.Recovery
	bd.Completed = len(rec.sigs) == rc.Procs
	if !bd.Completed {
		// The run lasted until its clock stopped, and a checkpoint still
		// open then can span a recovery: the application gets what is left.
		bd.Total = cluster.Now()
		bd.App = max(bd.Total-bd.Ckpt-bd.Recovery, 0)
	}
	bd.FaultsInjected = inj.FiredCount()
	bd.Signature = rec.sigs[0]
	bd.CkptCount, bd.CkptBytes = ck.CkptCount, ck.CkptBytes
	bd.CkptCountAt, bd.CkptBytesAt = ck.CkptCountAt, ck.CkptBytesAt
	bd.CkptAvoided = planner.Avoided()
	if deadlineErr != nil || !bd.Completed {
		what := fmt.Sprintf("only %d/%d ranks completed", len(rec.sigs), rc.Procs)
		if deadlineErr != nil {
			what = deadlineErr.Error()
		}
		why := "no rank reported an error"
		if len(rec.errs) > 0 {
			why = "first error: " + rec.errs[0].Error()
		}
		return bd, fmt.Errorf("core: %s, %s (%d incarnations launched, %d recoveries logged, %d/%d faults fired)",
			what, why, len(out.jobs), len(*recoveries), bd.FaultsInjected, len(sched.Events))
	}
	for r, s := range rec.sigs {
		if s != rec.sigs[0] {
			return bd, fmt.Errorf("core: rank %d signature %v != rank 0 signature %v", r, s, rec.sigs[0])
		}
	}
	// Self-check: the trace's own phase accounting must reproduce the
	// breakdown exactly. A divergence means an instrumentation point
	// drifted from the measurement it mirrors — fail the run rather than
	// report a timeline that disagrees with the numbers.
	if tr := cfg.Trace; tr.Enabled() {
		if rerr := tr.Reconcile(TraceTotalsOf(bd)); rerr != nil {
			return bd, fmt.Errorf("core: %w", rerr)
		}
	}
	// The same discipline for the metrics registry: its write-time counts
	// must agree exactly with the teardown-time accounting the Breakdown
	// (and the recorder's raw FTI sums) arrived at independently. Registry
	// and trace are fed by the same Emit, so they need no check against each
	// other.
	if m := cfg.Metrics; m.Enabled() {
		if rerr := m.Reconcile(obs.Expect{
			Messages:     bd.Messages,
			MsgBytes:     bd.NetBytes,
			Injections:   int64(bd.FaultsInjected),
			Detections:   int64(bd.DetectedFailures),
			Recoveries:   int64(bd.Recoveries),
			Respawns:     int64(bd.Respawns),
			PolicyAvoids: int64(bd.CkptAvoided),
			LeakedEvents: int64(bd.LeakedEvents),
			Checkpoints:  int64(rec.raw.CkptCount),
			CkptBytes:    rec.raw.CkptBytes,
			CkptCountAt:  rec.raw.CkptCountAt,
			CkptBytesAt:  rec.raw.CkptBytesAt,
			Restores:     int64(rec.raw.RecoverOps),
		}); rerr != nil {
			return bd, fmt.Errorf("core: %w", rerr)
		}
	}
	return bd, nil
}

// TraceTotalsOf converts a Breakdown's phase components into the trace
// package's totals form — the reference side of trace.Reconcile and
// trace.WriteMetrics.
func TraceTotalsOf(bd Breakdown) trace.Totals {
	return trace.Totals{
		Total:            int64(bd.Total),
		App:              int64(bd.App),
		Ckpt:             int64(bd.Ckpt),
		Recovery:         int64(bd.Recovery),
		DetectLatency:    int64(bd.DetectLatency),
		DetectedFailures: bd.DetectedFailures,
	}
}

// drive runs the armed cluster until its event queue drains: the one place
// a simulation is driven, hence the one call site for the deadline (and for
// cancellation, when it lands). The scheduler's deadline net panics with a
// typed value; exactly that type becomes the cell's error. However the run
// ends, the ranks it left parked are let go (Close), so a dead cell keeps
// no coroutine and no stack.
func drive(cluster *simnet.Cluster) (err error) {
	defer func() {
		v := recover()
		cluster.Close()
		switch v := v.(type) {
		case nil:
		case simnet.DeadlineExceeded:
			err = fmt.Errorf("virtual deadline %v exceeded (event at %v); likely deadlock or livelock", v.Deadline, v.At)
		default:
			panic(v)
		}
	}()
	cluster.Run()
	return nil
}

// appMain is runApp's shape: the resilient main every design hands its ranks.
type appMain func(r *mpi.Rank, world *mpi.Comm) error

// outcome is what a design's runtime knows once its run is over. A design
// is an arm function: it returns the runtime's recovery log — which grows as
// the simulation runs — and a finish that halts whatever outlives the ranks
// and reports this; driving and accounting are Run's.
type outcome struct {
	detectors  []detect.Detector // one per job incarnation
	jobs       []*mpi.Job        // every incarnation launched
	errs       []error           // resilient-main errors the runtime collected itself
	gaveUp     bool              // the launcher exhausted its relaunch budget...
	relaunches int               // ...after this many
	respawns   int               // hot spares that went live
	spawnTime  simnet.Time       // their summed spawn latency
}

// note records a rank's resilient-main error; teardown-induced errors are
// expected on doomed incarnations, so they are diagnosed, not fatal.
func (rec *recorder) note(err error) {
	if err != nil {
		rec.errs = append(rec.errs, err)
	}
}

func armRestart(rc resolvedCell, cluster *simnet.Cluster, rec *recorder, runApp appMain) (*[]mpi.Recovery, func() outcome) {
	sup := restart.Supervise(cluster, rc.Detector, rc.Procs, func(r *mpi.Rank) {
		rec.note(runApp(r, r.Job().World()))
	})
	return &sup.Recoveries, func() outcome {
		return outcome{detectors: sup.Detectors, jobs: sup.Jobs,
			gaveUp: sup.GaveUp, relaunches: sup.Relaunches()}
	}
}

func armReinit(rc resolvedCell, cluster *simnet.Cluster, rec *recorder, runApp appMain) (*[]mpi.Recovery, func() outcome) {
	var rt *reinit.Runtime
	job := mpi.Launch(cluster, rc.Procs, 0, func(r *mpi.Rank) { rec.note(rt.Run(r)) })
	rt = reinit.NewRuntime(job, rc.Detector, func(r *mpi.Rank, _ reinit.State) error {
		return runApp(r, rt.World())
	})
	return &rt.Recoveries, func() outcome {
		rt.Stop()
		return outcome{detectors: []detect.Detector{rt.Detector()}, jobs: []*mpi.Job{job}, errs: rt.Errs}
	}
}

func armUlfm(rc resolvedCell, cluster *simnet.Cluster, rec *recorder, runApp appMain) (*[]mpi.Recovery, func() outcome) {
	var rt *ulfm.Runtime
	job := mpi.Launch(cluster, rc.Procs, 0, func(r *mpi.Rank) { rec.note(rt.RunResilient(r)) })
	rt = ulfm.NewRuntime(job, *rc.Ulfm, rc.Detector, func(r *mpi.Rank, world *mpi.Comm, _ bool) error {
		return runApp(r, world)
	})
	return &rt.Recoveries, func() outcome {
		rt.Stop()
		return outcome{detectors: []detect.Detector{rt.Detector()}, jobs: []*mpi.Job{job}, errs: rt.Errs}
	}
}

func armReplica(rc resolvedCell, cluster *simnet.Cluster, rec *recorder, runApp appMain,
	inj *fault.Injector, planner *ckpt.Planner) (*[]mpi.Recovery, func() outcome) {
	rcfg := *rc.Replica
	// Hot-spare state transfers are sized by the rank's live protected
	// footprint (the data a survivor actually clones onto the spare).
	rcfg.StateBytes = func(rank int) int64 {
		if f := rec.liveFTI[rank]; f != nil {
			return f.ProtectedBytes()
		}
		return 0
	}
	sup := replica.Supervise(cluster, rcfg, rc.Detector, rc.Procs, func(r *mpi.Rank, world *mpi.Comm) {
		rec.note(runApp(r, world))
	})
	// A fired kill is absorbed — the executing victim survives as its
	// lockstep spare — when the rank has a live hot spare; a kill inside
	// the respawn window falls through to the normal death and exhausts
	// the group.
	inj.Redirect = func(r *mpi.Rank, comm *mpi.Comm, _ fault.Event) bool {
		return sup.AbsorbFailure(r, comm)
	}
	// Through the live degree feed the replica-aware policy sees a group
	// degrade the moment a failover prunes it — and recover once a spare
	// goes live.
	planner.Degree = sup.MinLiveDegree
	return &sup.Recoveries, func() outcome {
		return outcome{detectors: sup.Detectors, jobs: sup.Jobs,
			gaveUp: sup.GaveUp, relaunches: sup.Relaunches(),
			respawns: sup.Respawns(), spawnTime: sup.SpawnTime()}
	}
}
