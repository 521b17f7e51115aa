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
// them in its Figure 3 (RepairWorld, run by Supervise's resilient loop).
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

// Config holds ULFM's one settable cost: the progress-engine slowdown.
type Config struct {
	// DeliveryFactor inflates message flight time by this fraction,
	// modeling the interposed progress engine (revoke checks, failure
	// piggybacking) — the source of ULFM's application slowdown, which
	// grows with communication share. core fills a zero value with
	// DefaultDeliveryFactor.
	DeliveryFactor float64
}

// DefaultDeliveryFactor is the calibrated progress-engine slowdown.
const DefaultDeliveryFactor = 0.25

// The fixed cost model, taken from the ULFM literature's measured
// magnitudes. Detection is the ring heartbeat, detect.RingDefaults().
const (
	// perOpOverhead is the amended-interface cost added to every
	// point-to-point operation while ULFM is active.
	perOpOverhead = 2 * simnet.Microsecond
	// revokeHop is the per-tree-level cost of reliably flooding a revoke.
	revokeHop = 10 * simnet.Millisecond
	// shrinkBase + shrinkPerRank*P is the daemon-side cost of rebuilding
	// the process group during MPIX_Comm_shrink.
	shrinkBase    = 300 * simnet.Millisecond
	shrinkPerRank = 5 * simnet.Millisecond
	// agreeRound is the per-round cost of the fault-tolerant agreement
	// (log2(P) rounds per agreement).
	agreeRound = 50 * simnet.Millisecond
	// spawnDelay is fork/exec plus MPI wire-up of a replacement process.
	spawnDelay = 800 * simnet.Millisecond
	// mergeBase + mergePerRank*P is the intercommunicator merge cost.
	mergeBase    = 200 * simnet.Millisecond
	mergePerRank = 2 * simnet.Millisecond
)

// repairRound is the shared rendezvous state for repairing one revoked
// communicator (keyed by its context id).
type repairRound struct {
	shrunk    *mpi.Comm // the survivors (CommShrink)
	newWorld  *mpi.Comm
	failedAt  simnet.Time
	completed bool
}

// Runtime is the per-job ULFM runtime: detector plus repair coordination.
type Runtime struct {
	job *mpi.Job
	det detect.Detector
	// entry is the resilient main, entered again on each repaired world.
	entry func(r *mpi.Rank, world *mpi.Comm) error

	rounds map[int]*repairRound

	// Recoveries lists completed repairs: Failed members replaced, Rank the
	// first of them (-1 when the broken world had no failed member).
	Recoveries []mpi.Recovery
}

// Supervise launches an n-rank job on c with ULFM active and returns the
// runtime; drive the cluster's scheduler to completion afterwards. It
// installs the amended-interface overheads and starts failure detector
// dcfg (ULFM's own is the ring heartbeat, detect.RingDefaults()). Every
// rank, and every spawned replacement, runs entry in the setjmp-style loop
// of the paper's Figure 3: on a failure error, the world is repaired
// (revoke, shrink, spawn, merge, agree) and entry re-enters on it; its FTI
// recovery then rolls application state back to the last checkpoint. An
// invalid detector configuration panics; validate with
// detect.Config.Validate (core.Run does) before constructing.
func Supervise(c *simnet.Cluster, cfg Config, dcfg detect.Config, n int, entry func(*mpi.Rank, *mpi.Comm) error) *Runtime {
	rt := &Runtime{
		entry:  entry,
		rounds: make(map[int]*repairRound),
	}
	job := mpi.LaunchPlaced(c, mpi.BlockPlacement(n, c.NumNodes()), 0,
		func(r *mpi.Rank) error { return rt.resilientLoop(r, r.Job().World()) })
	rt.job = job
	job.PerOpOverhead = perOpOverhead
	job.DeliveryFactor = cfg.DeliveryFactor
	// Confirmed failures become globally known: blocked operations
	// involving the process now raise MPIX_ERR_PROC_FAILED.
	rt.det = detect.MustNew(dcfg, job, func(f detect.Failure) { job.MarkDetected(f.GID) })
	rt.det.SetProcs(job.World().Leaders())
	return rt
}

// Job returns the job; its World is the current (possibly repaired) world
// communicator.
func (rt *Runtime) Job() *mpi.Job { return rt.job }

// Detector exposes the failure detector (the harness reads its confirmed
// failures for the detection-latency breakdown).
func (rt *Runtime) Detector() detect.Detector { return rt.det }

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

// resilientLoop runs entry on world until it ends without a failure
// error, repairing the world after each one.
func (rt *Runtime) resilientLoop(r *mpi.Rank, world *mpi.Comm) error {
	for {
		err := rt.entry(r, world)
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
		world = nw
	}
}
