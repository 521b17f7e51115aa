// Package ulfm implements User-Level Fault Mitigation (Bland et al.):
// MPIX-style communicator revocation, shrink, replacement spawning,
// intercommunicator merge, and fault-tolerant agreement, plus the runtime
// side — failure detection via the shared internal/detect subsystem
// (preset: the Bosilca-style ring heartbeat) and the amended,
// failure-checking communication path.
//
// The package provides both the five ULFM primitives the paper describes
// (CommRevoke, CommShrink, CommSpawn, IntercommMerge, CommAgree) and the
// composed global non-shrinking recovery the paper implements on top of
// them in its Figure 3 (RepairWorld / RunResilient).
//
// Cost model: ULFM recovery executes real protocol steps over the
// simulated network, and the expensive parts (daemon-side shrink
// bookkeeping, agreement rounds, respawn) carry explicit time constants
// taken from the ULFM literature's measured magnitudes. Membership
// payloads are O(P) bytes and agreement runs O(log P) rounds, so recovery
// time grows with scale — the trend the paper reports — while Reinit's
// runtime-internal reset does not.
package ulfm

import (
	"errors"
	"fmt"
	"math/bits"

	"match/internal/detect"
	"match/internal/mpi"
	"match/internal/simnet"
)

// Config tunes the ULFM runtime.
type Config struct {
	// HeartbeatPeriod is the ring failure detector's emission period.
	HeartbeatPeriod simnet.Time
	// HeartbeatBytes is the size of one heartbeat message on the wire.
	HeartbeatBytes int
	// DetectTimeout is the observation window before a silent peer is
	// declared dead.
	DetectTimeout simnet.Time
	// PerOpOverhead is the amended-interface cost added to every
	// point-to-point operation while ULFM is active.
	PerOpOverhead simnet.Time
	// DeliveryFactor inflates message flight time by this fraction,
	// modeling the interposed progress engine (revoke checks, failure
	// piggybacking) — the source of ULFM's application slowdown, which
	// grows with communication share.
	DeliveryFactor float64
	// InterferenceSteal is per-process CPU time stolen per heartbeat
	// period by runtime-level detector collectives, scaled by log2(P).
	InterferenceSteal simnet.Time

	// Detect overrides the failure-detection strategy entirely (ablation:
	// run ULFM recovery under a tree or instant launcher detector). The
	// zero value keeps the calibrated ring preset assembled from the four
	// heartbeat fields above.
	Detect detect.Config

	// RevokeHop is the per-tree-level cost of reliably flooding a revoke.
	RevokeHop simnet.Time
	// ShrinkBase + ShrinkPerRank*P is the daemon-side cost of rebuilding
	// the process group during MPIX_Comm_shrink.
	ShrinkBase    simnet.Time
	ShrinkPerRank simnet.Time
	// AgreeRound is the per-round cost of the fault-tolerant agreement
	// (log2(P) rounds per agreement).
	AgreeRound simnet.Time
	// SpawnDelay is fork/exec plus MPI wire-up of a replacement process.
	SpawnDelay simnet.Time
	// MergeBase + MergePerRank*P is the intercommunicator merge cost.
	MergeBase    simnet.Time
	MergePerRank simnet.Time
}

// DefaultConfig holds the calibrated cost model (see DESIGN.md §5/A4 for
// the ablation that varies these).
func DefaultConfig() Config {
	return Config{
		HeartbeatPeriod:   100 * simnet.Millisecond,
		HeartbeatBytes:    64,
		DetectTimeout:     300 * simnet.Millisecond,
		PerOpOverhead:     2 * simnet.Microsecond,
		DeliveryFactor:    0.25,
		InterferenceSteal: 40 * simnet.Microsecond,
		RevokeHop:         10 * simnet.Millisecond,
		ShrinkBase:        300 * simnet.Millisecond,
		ShrinkPerRank:     5 * simnet.Millisecond,
		AgreeRound:        50 * simnet.Millisecond,
		SpawnDelay:        800 * simnet.Millisecond,
		MergeBase:         200 * simnet.Millisecond,
		MergePerRank:      2 * simnet.Millisecond,
	}
}

// fillDefaults replaces zero fields with the calibrated defaults.
func (c *Config) fillDefaults() {
	def := DefaultConfig()
	if c.HeartbeatPeriod == 0 {
		c.HeartbeatPeriod = def.HeartbeatPeriod
	}
	if c.HeartbeatBytes == 0 {
		c.HeartbeatBytes = def.HeartbeatBytes
	}
	if c.DetectTimeout == 0 {
		c.DetectTimeout = def.DetectTimeout
	}
	if c.PerOpOverhead == 0 {
		c.PerOpOverhead = def.PerOpOverhead
	}
	if c.DeliveryFactor == 0 {
		c.DeliveryFactor = def.DeliveryFactor
	}
	if c.InterferenceSteal == 0 {
		c.InterferenceSteal = def.InterferenceSteal
	}
	if c.RevokeHop == 0 {
		c.RevokeHop = def.RevokeHop
	}
	if c.ShrinkBase == 0 {
		c.ShrinkBase = def.ShrinkBase
	}
	if c.ShrinkPerRank == 0 {
		c.ShrinkPerRank = def.ShrinkPerRank
	}
	if c.AgreeRound == 0 {
		c.AgreeRound = def.AgreeRound
	}
	if c.SpawnDelay == 0 {
		c.SpawnDelay = def.SpawnDelay
	}
	if c.MergeBase == 0 {
		c.MergeBase = def.MergeBase
	}
	if c.MergePerRank == 0 {
		c.MergePerRank = def.MergePerRank
	}
}

// Resolved returns the configuration with every zero field replaced by its
// calibrated default — the exact cost model a run of this configuration
// uses. Canonicalization (core.CellKey) hashes the resolved form, so an
// empty Config and an explicit DefaultConfig() are the same cache entry.
func (c Config) Resolved() Config {
	c.fillDefaults()
	return c
}

// DetectPreset is ULFM's calibrated detection model — the ring heartbeat —
// expressed as a detect.Config, with zero heartbeat fields filled from the
// calibrated defaults. core.Run resolves Config.Detect against this.
func (c Config) DetectPreset() detect.Config {
	c.fillDefaults()
	return detect.Config{
		Kind:              detect.Ring,
		HeartbeatPeriod:   c.HeartbeatPeriod,
		HeartbeatBytes:    c.HeartbeatBytes,
		DetectTimeout:     c.DetectTimeout,
		InterferenceSteal: c.InterferenceSteal,
	}
}

// repairRound is the shared rendezvous state for repairing one revoked
// communicator (keyed by its context id).
type repairRound struct {
	newWorld  *mpi.Comm
	failedAt  simnet.Time
	completed bool
}

// Runtime is the per-job ULFM runtime: detector plus repair coordination.
type Runtime struct {
	job *mpi.Job
	cfg Config
	det detect.Detector
	// entry runs a spawned replacement rank once the repaired world is
	// ready; restarted is always true for replacements.
	entry func(r *mpi.Rank, world *mpi.Comm, restarted bool) error

	world  *mpi.Comm
	rounds map[int]*repairRound

	// Recoveries lists completed repairs: Failed members replaced, Rank the
	// first of them (-1 when the broken world had no failed member).
	Recoveries []mpi.Recovery
	// Errs collects errors from replacement ranks.
	Errs []error
}

// NewRuntime activates ULFM on the job: installs the amended-interface
// overheads, starts the failure detector (cfg.Detect, preset: the ring
// heartbeat), and returns the runtime. entry is the resilient main
// executed by spawned replacement ranks. An invalid explicit detector
// configuration panics; validate with detect.Config.Validate (core.Run
// does) before constructing.
func NewRuntime(job *mpi.Job, cfg Config, entry func(*mpi.Rank, *mpi.Comm, bool) error) *Runtime {
	cfg.fillDefaults()
	rt := &Runtime{
		job:    job,
		cfg:    cfg,
		entry:  entry,
		world:  job.World(),
		rounds: make(map[int]*repairRound),
	}
	job.PerOpOverhead = cfg.PerOpOverhead
	job.DeliveryFactor = cfg.DeliveryFactor
	// Confirmed failures become globally known: blocked operations
	// involving the process now raise MPIX_ERR_PROC_FAILED.
	rt.det = detect.MustNew(detect.Resolve(cfg.Detect, cfg.DetectPreset()), job,
		func(f detect.Failure) { job.MarkDetected(f.GID) })
	rt.det.SetWorld(rt.world)
	return rt
}

// World returns the current (possibly repaired) world communicator.
func (rt *Runtime) World() *mpi.Comm { return rt.world }

// Detector exposes the failure detector (the harness reads its confirmed
// failures for the detection-latency breakdown).
func (rt *Runtime) Detector() detect.Detector { return rt.det }

// Stop halts the detector.
func (rt *Runtime) Stop() { rt.det.Stop() }

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// IsFailureError reports whether err is one of ULFM's recoverable error
// classes.
func IsFailureError(err error) bool {
	return errors.Is(err, mpi.ErrProcFailed) || errors.Is(err, mpi.ErrRevoked)
}

// RunResilient executes the runtime's resilient main (given to NewRuntime)
// in the setjmp-style loop of the paper's Figure 3: on a failure error, the
// world is repaired (revoke, shrink, spawn, merge, agree) and main
// re-enters with restarted=true; main's FTI recovery then rolls application
// state back to the last checkpoint.
func (rt *Runtime) RunResilient(r *mpi.Rank) error {
	return rt.resilientLoop(r, rt.world, false)
}

func (rt *Runtime) resilientLoop(r *mpi.Rank, world *mpi.Comm, restarted bool) error {
	for {
		err := rt.entry(r, world, restarted)
		if err == nil {
			return nil
		}
		if !IsFailureError(err) {
			return err
		}
		nw, rerr := rt.RepairWorld(r, world)
		if rerr != nil {
			return fmt.Errorf("ulfm: repair failed: %w", rerr)
		}
		world, restarted = nw, true
	}
}
