// Package reinit implements the Reinit global-restart recovery framework
// (Laguna et al.; Georgakoudis et al., "Reinit++", ISC'20): MPI recovery
// performed *inside the MPI runtime*, transparently to the application.
//
// The application wraps its main in a resilient function (the paper's
// Figure 2). On a process failure the runtime: detects the failure through
// its daemons (the shared internal/detect Tree strategy), flushes all
// communication state, respawns the failed process on its node (or, when
// a node failure took that node, on the next live one: mpi.Job.AddProcess
// places it by simnet.Cluster.LiveNode), rebuilds the world communicator,
// and unwinds every survivor back into the resilient function — the
// runtime-level equivalent of longjmp. Because everything happens in the
// runtime with small control messages, recovery cost is low and
// independent of both the process count and the problem size, which is
// exactly the behavior the paper measures (Figures 7 and 10).
package reinit

import (
	"fmt"

	"match/internal/detect"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/trace"
)

// restartSignal unwinds a survivor rank out of whatever it was doing back
// to the resilient-main boundary.
type restartSignal struct{}

// The respawn model of Reinit++'s design: a fork/exec respawn of the
// failed rank, and a reset broadcast down the daemon tree. Detection is
// the daemon supervision tree, detect.TreeDefaults().
const (
	// respawnDelay is fork/exec + MPI init of the replacement.
	respawnDelay = 250 * simnet.Millisecond
	// resetHop is the per-tree-level latency of the reset broadcast.
	resetHop = 2 * simnet.Millisecond
)

// Runtime is the per-job Reinit runtime: failure monitor plus global-reset
// machinery. One Runtime serves all ranks of a job.
type Runtime struct {
	job  *mpi.Job
	det  detect.Detector
	main func(*mpi.Rank, *mpi.Comm) error

	// Recoveries lists completed global restarts (complete = replacement
	// up, world rebuilt).
	Recoveries []mpi.Recovery
}

// Supervise launches an n-rank job on c under the Reinit runtime and
// returns it; drive the cluster's scheduler to completion afterwards. main
// is the resilient function every rank (including future replacements)
// executes, on the job's current world, entering it again after every
// global restart. The failure monitor, detector dcfg (Reinit's own is the
// daemon tree, detect.TreeDefaults()), starts immediately. An invalid
// detector configuration panics; validate with detect.Config.Validate
// (core.Run does) before constructing.
func Supervise(c *simnet.Cluster, dcfg detect.Config, n int, main func(*mpi.Rank, *mpi.Comm) error) *Runtime {
	rt := &Runtime{main: main}
	rt.job = mpi.LaunchPlaced(c, mpi.BlockPlacement(n, c.NumNodes()), 0, rt.run)
	rt.det = detect.MustNew(dcfg, rt.job, rt.onFailure)
	rt.det.SetProcs(rt.job.World().Leaders())
	return rt
}

// Job returns the job; its World changes on every global restart (the
// worldc swap of the paper's Figure 3, done by the runtime).
func (rt *Runtime) Job() *mpi.Job { return rt.job }

// Detector exposes the failure detector (the harness reads its confirmed
// failures for the detection-latency breakdown).
func (rt *Runtime) Detector() detect.Detector { return rt.det }

// onFailure is the detector's confirmation callback: every confirmed
// process failure triggers one global restart.
func (rt *Runtime) onFailure(f detect.Failure) {
	world := rt.job.World()
	rank := world.RankOf(f.GID)
	if rank < 0 {
		return // already replaced by an earlier restart this round
	}
	rt.globalRestart(world.Member(rank), f.FailedAt)
}

// globalRestart is the runtime's recovery path: flush communication,
// respawn the failed rank in place, rebuild the world, and unwind all
// survivors back into resilient main.
func (rt *Runtime) globalRestart(failed *mpi.Process, failedAt simnet.Time) {
	now := rt.job.Cluster().Now()

	// 1. Flush all in-flight and queued messages.
	rt.job.BumpEpoch()

	// 2. Respawn the failed rank on its node, or the next live one
	// (fork/exec + MPI init).
	world := rt.job.World()
	oldRank := world.RankOf(failed.GID())
	members := append([]*mpi.Process(nil), world.Leaders()...)
	repl := rt.job.AddProcess(failed.NodeID())
	members[oldRank] = repl
	rt.job.Start(repl, respawnDelay, func(r *mpi.Rank) error {
		if err := rt.run(r); err != nil {
			return fmt.Errorf("reinit: respawned rank %d: %w", oldRank, err)
		}
		return nil
	})

	// 3. Rebuild the world communicator; the daemons supervise it. What
	// ranks derived from the old world (Comm.Sub) goes with it.
	world = rt.job.NewComm(members)
	rt.job.SetWorld(world)
	rt.det.SetProcs(world.Leaders())

	// 4. Unwind survivors via the daemon tree: rank i learns about the
	// reset after depth(i) hops.
	for i, p := range members {
		if p == repl || !p.Running() {
			continue
		}
		depth := treeDepth(i)
		p.SimProc().Signal(now+simnet.Time(depth)*resetHop, restartSignal{})
	}

	rec := mpi.Recovery{
		Rank:        oldRank,
		FailedAt:    failedAt,
		CompletedAt: now + respawnDelay,
	}
	rt.Recoveries = append(rt.Recoveries, rec)
	if p := rt.job.Cluster().Probe(); p.On(trace.CatRepair) {
		p.Emit(trace.Span{Cat: trace.CatRepair, Rank: int32(oldRank),
			Job: p.JobOf(rt.job), Start: int64(rec.CompletedAt), Aux: 1})
	}
}

// treeDepth returns the level of rank in a binomial broadcast tree.
func treeDepth(rank int) int {
	d := 0
	for rank > 0 {
		rank = (rank - 1) / 2
		d++
	}
	return d
}

// run executes the resilient function for the calling rank, re-entering it
// after every global restart — the analog of OMPI_Reinit(argc, argv,
// resilient_main) in the paper's Figure 2.
func (rt *Runtime) run(r *mpi.Rank) error {
	for {
		restarted, err := rt.protectedCall(r)
		if !restarted {
			return err
		}
	}
}

// protectedCall invokes resilient main on the current world, converting a
// restartSignal unwind into a re-entry request.
func (rt *Runtime) protectedCall(r *mpi.Rank) (restarted bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(restartSignal); ok {
				restarted = true
				return
			}
			panic(v)
		}
	}()
	return false, rt.main(r, rt.job.World())
}
