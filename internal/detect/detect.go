// Package detect is MATCH's unified in-band failure-detection subsystem.
//
// The paper's cost decomposition — detection + recovery + steady-state
// interference — needs detection to be a first-class, swept parameter, yet
// each fault-tolerance design historically carried its own ad-hoc model:
// ULFM a private ring heartbeat, Reinit a private daemon tree, and
// Restart/Replica an implicit "the launcher sees the SIGCHLD". This
// package factors all of that into one Detector interface with three
// strategies, so any design can run under any detector and the
// detection-latency/interference trade-off becomes measurable everywhere:
//
//   - Launcher: the out-of-band baseline. Process deaths are observed the
//     instant they happen (waitpid/SIGCHLD through the launcher chain);
//     detection latency is exactly zero and no detector traffic exists.
//   - Ring: an OCFTL-style in-band ring heartbeat (Bosilca et al.): every
//     alive member emits a heartbeat to its ring successor each period,
//     paying NIC time and a per-period CPU interference steal; a silent
//     peer is declared dead after an observation timeout.
//   - Tree: a daemon supervision tree (Reinit++'s model): node-local
//     daemons see exact death times and confirm them after a timeout at
//     the supervision period's granularity; optional heartbeat bytes flow
//     child-to-parent along a binomial tree.
//
// A death reaches a detector through one seam: mpi.Job.Start marks a
// killed rank failed and reports it to the job's death hooks
// (mpi.Job.OnDeath). New registers the launcher's confirmation there,
// which sees every death of its job, and the tree's death-time record,
// which the supervision loop confirms for members of the watch set
// (SetProcs) only. The ring registers nothing and polls its members'
// state each heartbeat round.
//
// A detector observes failures and reports them; what to *do* about a
// confirmed failure (revoke, global-restart, abort, failover) stays with
// the consuming runtime, passed in as the onDetect callback.
package detect

import (
	"fmt"
	"math/bits"
	"strings"

	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/trace"
)

// Kind selects a detection strategy.
type Kind int

const (
	// Preset defers to the consuming design's calibrated default: ring for
	// ULFM, tree for Reinit, launcher for Restart and Replica. It is the
	// zero value so untouched configurations reproduce calibrated results.
	Preset Kind = iota
	// Launcher is instant SIGCHLD-style detection through the job launcher.
	Launcher
	// Ring is the OCFTL-style in-band ring heartbeat.
	Ring
	// Tree is the daemon supervision tree.
	Tree
)

func (k Kind) String() string {
	switch k {
	case Preset:
		return "preset"
	case Launcher:
		return "launcher"
	case Ring:
		return "ring"
	case Tree:
		return "tree"
	}
	return fmt.Sprintf("detect.Kind(%d)", int(k))
}

// Kinds lists every strategy, Preset first.
func Kinds() []Kind { return []Kind{Preset, Launcher, Ring, Tree} }

// ParseKind resolves a strategy name case-insensitively ("" means Preset).
func ParseKind(name string) (Kind, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	if want == "" {
		return Preset, nil
	}
	for _, k := range Kinds() {
		if want == k.String() {
			return k, nil
		}
	}
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("detect: unknown detector %q (valid: %s)", name, strings.Join(names, ", "))
}

// Config tunes a detector. Zero fields of an explicit (non-Preset) kind are
// filled by Resolve from that kind's defaults; New itself is strict and
// rejects configurations that could never detect.
type Config struct {
	Kind Kind
	// HeartbeatPeriod is the emission/supervision period (ring and tree).
	HeartbeatPeriod simnet.Time
	// HeartbeatBytes is the wire size of one heartbeat message. Ring
	// heartbeats travel the ring; tree heartbeats (when non-zero) travel
	// child-to-parent. Zero sends nothing.
	HeartbeatBytes int
	// DetectTimeout is the observation window before a silent (ring) or
	// dead (tree) peer is declared failed.
	DetectTimeout simnet.Time
	// InterferenceSteal is CPU time stolen from every process per period by
	// detector-level collectives: scaled by log2(P) for the ring (whose
	// runtime agreement grows with scale), flat for the tree.
	InterferenceSteal simnet.Time
}

// RingDefaults is the generic ring detector (matching ULFM's calibrated
// heartbeat): 100ms period, 64-byte heartbeats, 3x-period timeout, 40µs
// per-period interference steal.
func RingDefaults() Config {
	return Config{
		Kind:              Ring,
		HeartbeatPeriod:   100 * simnet.Millisecond,
		HeartbeatBytes:    64,
		DetectTimeout:     300 * simnet.Millisecond,
		InterferenceSteal: 40 * simnet.Microsecond,
	}
}

// TreeDefaults is the generic tree detector (matching Reinit's calibrated
// daemon supervision): 25ms period, 100ms confirmation timeout, no
// heartbeat traffic or steal.
func TreeDefaults() Config {
	return Config{
		Kind:            Tree,
		HeartbeatPeriod: 25 * simnet.Millisecond,
		DetectTimeout:   100 * simnet.Millisecond,
	}
}

// LauncherConfig is the instant out-of-band detector.
func LauncherConfig() Config { return Config{Kind: Launcher} }

// Resolve merges a user-supplied configuration with a design's preset:
// Preset kind returns the preset unchanged; an explicit kind has its zero
// fields filled from the kind's defaults, except that an explicitly set
// period derives an unset timeout as 3x the period (so a period sweep keeps
// a sane, monotonic timeout without the caller spelling both out).
func Resolve(user, preset Config) Config {
	if user.Kind == Preset {
		return preset
	}
	out := user
	var def Config
	switch user.Kind {
	case Ring:
		def = RingDefaults()
	case Tree:
		def = TreeDefaults()
	default:
		return out // Launcher has no tunables
	}
	if out.HeartbeatPeriod == 0 {
		out.HeartbeatPeriod = def.HeartbeatPeriod
	}
	if out.DetectTimeout == 0 {
		if user.HeartbeatPeriod != 0 {
			out.DetectTimeout = 3 * out.HeartbeatPeriod
		} else {
			out.DetectTimeout = def.DetectTimeout
		}
	}
	if out.HeartbeatBytes == 0 {
		out.HeartbeatBytes = def.HeartbeatBytes
	}
	if out.InterferenceSteal == 0 {
		out.InterferenceSteal = def.InterferenceSteal
	}
	return out
}

// Validate rejects configurations that could never detect or are
// internally inconsistent. It is strict: call it (or New, which calls it)
// only on resolved configurations.
func (c Config) Validate() error {
	switch c.Kind {
	case Preset:
		return fmt.Errorf("detect: Preset must be resolved against a design preset before use (see Resolve)")
	case Launcher:
		return nil
	case Ring, Tree:
		if c.HeartbeatPeriod <= 0 {
			return fmt.Errorf("detect: %s detector with heartbeat period %v would never detect (want > 0)", c.Kind, c.HeartbeatPeriod)
		}
		if c.DetectTimeout < c.HeartbeatPeriod {
			return fmt.Errorf("detect: %s detector timeout %v < heartbeat period %v would declare every peer dead on the first silent period (want timeout >= period)",
				c.Kind, c.DetectTimeout, c.HeartbeatPeriod)
		}
		if c.HeartbeatBytes < 0 || c.InterferenceSteal < 0 {
			return fmt.Errorf("detect: %s detector with negative heartbeat bytes (%d) or interference steal (%v)",
				c.Kind, c.HeartbeatBytes, c.InterferenceSteal)
		}
		return nil
	}
	return fmt.Errorf("detect: unknown detector kind %d", int(c.Kind))
}

// String renders the configuration for tables and CLI output.
func (c Config) String() string {
	switch c.Kind {
	case Ring, Tree:
		return fmt.Sprintf("%s(p=%v,t=%v)", c.Kind, c.HeartbeatPeriod, c.DetectTimeout)
	default:
		return c.Kind.String()
	}
}

// Failure is one confirmed process failure as the detector saw it.
type Failure struct {
	// GID is the failed process's id within its job.
	GID int
	// FailedAt is when the failure became observable to this detector: the
	// exact death time for Launcher and Tree (the local daemon sees the
	// SIGCHLD), the first heartbeat round after the death for Ring (an
	// in-band detector cannot see the death itself).
	FailedAt simnet.Time
	// DetectedAt is when the detector confirmed the failure and invoked
	// onDetect: equal to FailedAt for Launcher, FailedAt + DetectTimeout
	// for Ring, the confirming supervision round for Tree.
	DetectedAt simnet.Time
}

// Latency is the detector-attributable delay for this failure.
func (f Failure) Latency() simnet.Time { return f.DetectedAt - f.FailedAt }

// Detector watches a set of processes and reports each confirmed failure
// exactly once. Implementations run entirely on the simulated cluster's
// scheduler; they are not goroutine-safe.
type Detector interface {
	// SetProcs replaces the watch set (e.g. after a recovery rebuilt the
	// world with replacement processes; a communicator's is w.Leaders()).
	// Observation state for already-seen failures is retained. The
	// launcher confirms every death of its job whatever the watch set.
	SetProcs(ps []*mpi.Process)
	// ObservedAt reports when the detector first observed gid's failure,
	// which may precede confirmation (ring repairs consult this for
	// failures still inside their observation window).
	ObservedAt(gid int) (simnet.Time, bool)
	// FailureOf returns the confirmed failure record for gid.
	FailureOf(gid int) (Failure, bool)
	// Failures lists confirmed failures in confirmation order.
	Failures() []Failure
	// Stop halts monitoring; no further confirmations are delivered.
	Stop()
}

// New builds a detector on job delivering confirmed failures to onDetect
// (nil for observe-only use). The configuration must be resolved: Preset is
// rejected, as are never-detecting ring/tree configurations.
func New(cfg Config, job *mpi.Job, onDetect func(Failure)) (Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if onDetect == nil {
		onDetect = func(Failure) {}
	}
	b := base{cfg: cfg, job: job, onDetect: onDetect,
		observed: make(map[int]simnet.Time), confirmed: make(map[int]bool)}
	switch cfg.Kind {
	case Launcher:
		d := &launcherDetector{base: b}
		job.OnDeath(d.onDeath)
		return d, nil
	case Ring:
		d := &ringDetector{base: b}
		job.Cluster().Scheduler().AfterFunc(cfg.HeartbeatPeriod, ringTick, d, 0)
		return d, nil
	default: // Tree; Validate rejected everything else
		d := &treeDetector{base: b}
		job.OnDeath(d.recordDeath)
		job.Cluster().Scheduler().AfterFunc(cfg.HeartbeatPeriod, treeTick, d, 0)
		return d, nil
	}
}

// ringTick and treeTick are the static heartbeat event bodies: scheduling
// a method value (d.tick) allocates a bound-method closure per round, and
// heartbeats fire every period for the whole run, so the periodic
// detectors ride the scheduler's closure-free path instead.
func ringTick(a any, _ int64) { a.(*ringDetector).tick() }
func treeTick(a any, _ int64) { a.(*treeDetector).tick() }

// MustNew is New for contexts where the configuration was already
// validated (core.Run validates before launching); it panics on error.
func MustNew(cfg Config, job *mpi.Job, onDetect func(Failure)) Detector {
	d, err := New(cfg, job, onDetect)
	if err != nil {
		panic(err)
	}
	return d
}

// Totals sums the detection latency over every confirmed failure of the
// given detectors (a run under Restart/Replica owns one detector per job
// incarnation) and reports the confirmed-failure count. These are the
// quantities Breakdown.DetectLatency/DetectedFailures report.
func Totals(ds ...Detector) (latency simnet.Time, failures int) {
	for _, d := range ds {
		if d == nil {
			continue
		}
		for _, f := range d.Failures() {
			latency += f.Latency()
			failures++
		}
	}
	return latency, failures
}

// base is the state shared by all strategies.
type base struct {
	cfg       Config
	job       *mpi.Job
	onDetect  func(Failure)
	procs     []*mpi.Process
	observed  map[int]simnet.Time
	confirmed map[int]bool
	failures  []Failure
	stopped   bool
}

func (b *base) SetProcs(ps []*mpi.Process) { b.procs = ps }

func (b *base) Stop() { b.stopped = true }

func (b *base) ObservedAt(gid int) (simnet.Time, bool) {
	t, ok := b.observed[gid]
	return t, ok
}

func (b *base) FailureOf(gid int) (Failure, bool) {
	for _, f := range b.failures {
		if f.GID == gid {
			return f, true
		}
	}
	return Failure{}, false
}

func (b *base) Failures() []Failure { return b.failures }

// confirm records and delivers a failure exactly once. The CatDetect span
// emitted here (FailedAt..DetectedAt) is the observer-side oracle the
// harness reconciles against detect.Totals: one span per confirmed
// failure, at the single site every strategy funnels through.
func (b *base) confirm(f Failure) {
	if b.confirmed[f.GID] {
		return
	}
	b.confirmed[f.GID] = true
	b.failures = append(b.failures, f)
	if p := b.job.Cluster().Probe(); p.On(trace.CatDetect) {
		p.Emit(trace.Span{Cat: trace.CatDetect, Rank: -1, Job: p.JobOf(b.job),
			Start: int64(f.FailedAt), Dur: int64(f.Latency()),
			Level: int32(b.cfg.Kind), Aux: int64(f.GID)})
	}
	b.onDetect(f)
}

// log2ceil returns ceil(log2(n)), at least 1 — the round/level count of the
// binomial structures the detectors model.
func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// aliveOf filters the watch set down to processes not (yet) failed, in
// watch order — the ring membership and the interference-paying set.
func aliveOf(ps []*mpi.Process) []*mpi.Process {
	var out []*mpi.Process
	for _, p := range ps {
		if !p.Failed() {
			out = append(out, p)
		}
	}
	return out
}
