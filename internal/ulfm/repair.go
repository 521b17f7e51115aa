package ulfm

import (
	"fmt"

	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/trace"
)

// CommRevoke is MPIX_Comm_revoke: reliably propagate revocation to every
// member, interrupting all pending communication on the communicator.
// Idempotent; the first caller pays the flood.
func (rt *Runtime) CommRevoke(r *mpi.Rank, c *mpi.Comm) {
	if c.Revoked() {
		return
	}
	cl := rt.job.Cluster()
	now := r.Now()
	// Reliable flood: log2(P) forwarding levels of small control messages,
	// each consuming NIC time on the forwarding nodes.
	levels := log2ceil(c.Size())
	for _, m := range c.AliveMembers() {
		cl.SendArrival(r.Process().NodeID(), m.NodeID(), 32, now)
	}
	r.Compute(revokeHop * simnet.Time(levels))
	c.Revoke()
}

// CommShrink is MPIX_Comm_shrink: build a communicator containing only the
// surviving members, agreeing on the failed set on the way. All survivors
// must call it. The daemon-side group rebuild is charged per rank. The
// first caller builds the communicator and c's repair round keeps it for
// the others; it is not derived from c, so revoking c leaves it usable.
func (rt *Runtime) CommShrink(r *mpi.Rank, c *mpi.Comm) (*mpi.Comm, error) {
	round := rt.round(c)
	if round.shrunk == nil {
		round.shrunk = rt.job.NewComm(c.AliveMembers())
	}
	shrunk := round.shrunk
	// Daemon-side bookkeeping: grows linearly with job size.
	r.Compute(shrinkBase + shrinkPerRank*simnet.Time(c.Size()))
	// Agree on the failed-rank bitmask (real payload, O(P) bits).
	words := (c.Size() + 63) / 64
	mask := make([]int64, words)
	for _, fr := range c.FailedMembers() {
		mask[fr/64] |= 1 << (fr % 64)
	}
	agreed, err := rt.agree(r, shrunk, mask)
	if err != nil {
		return nil, fmt.Errorf("ulfm: shrink agreement: %w", err)
	}
	_ = agreed
	return shrunk, nil
}

// agree is the fault-tolerant agreement core: an all-reduce of the value
// (bitwise OR) plus the multi-round cost the ERA agreement pays.
func (rt *Runtime) agree(r *mpi.Rank, c *mpi.Comm, val []int64) ([]int64, error) {
	r.Compute(agreeRound * simnet.Time(log2ceil(c.Size())))
	return mpi.AllreduceI64(r, c, val, mpi.OpBOr)
}

// CommAgree is MPIX_Comm_agree on a single flag value.
func (rt *Runtime) CommAgree(r *mpi.Rank, c *mpi.Comm, flag int64) (int64, error) {
	out, err := rt.agree(r, c, []int64{flag})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// CommSpawn is MPI_Comm_spawn for replacement processes: the root of the
// shrunken communicator launches one replacement per failed rank, on the
// failed rank's node or, when a node failure took it, the next live node
// (mpi.Job.AddProcess), running the runtime's replacement entry. Returns the
// replacements indexed by failed world rank. Non-roots return nil.
func (rt *Runtime) CommSpawn(r *mpi.Rank, shrunk *mpi.Comm, world *mpi.Comm) map[int]*mpi.Process {
	if r.Rank(shrunk) != 0 {
		return nil
	}
	// Replacement bodies start after the spawn delay; their first act is to
	// synchronize on the repaired world (mirroring the survivors' merge
	// steps), then enter the resilient loop so they too can survive later
	// failures. They start in failed-rank order.
	repls := make(map[int]*mpi.Process)
	for _, fr := range world.FailedMembers() {
		fr := fr
		repl := rt.job.AddProcess(world.Member(fr).NodeID())
		repls[fr] = repl
		rt.job.Start(repl, spawnDelay, func(rr *mpi.Rank) error {
			nw := rt.round(world).newWorld
			if err := rt.joinWorld(rr, nw); err != nil {
				return fmt.Errorf("ulfm: replacement rank %d join: %w", fr, err)
			}
			if err := rt.resilientLoop(rr, nw); err != nil {
				return fmt.Errorf("ulfm: replacement rank %d: %w", fr, err)
			}
			return nil
		})
	}
	return repls
}

// joinWorld performs the new-world synchronization steps every member
// (survivor or replacement) executes in the same order: merge barrier,
// then the final agreement.
func (rt *Runtime) joinWorld(r *mpi.Rank, nw *mpi.Comm) error {
	if err := mpi.Barrier(r, nw); err != nil {
		return err
	}
	_, err := rt.CommAgree(r, nw, 1)
	return err
}

// round returns the repair round of the broken communicator c, creating it
// on first use.
func (rt *Runtime) round(c *mpi.Comm) *repairRound {
	round, ok := rt.rounds[c.Ctx()]
	if !ok {
		round = &repairRound{}
		rt.rounds[c.Ctx()] = round
	}
	return round
}

// RepairWorld composes the paper's Figure 3 error-handler sequence:
// revoke the broken world, shrink to survivors, spawn replacements, merge
// into a same-size world (failed slots refilled), and agree. Every
// survivor must call it with the same broken communicator; replacements
// are driven by the runtime. Returns the repaired world.
func (rt *Runtime) RepairWorld(r *mpi.Rank, world *mpi.Comm) (*mpi.Comm, error) {
	round := rt.round(world)
	if round.failedAt == 0 {
		// Record failure timing for the recovery-time breakdown, as the
		// detector saw it: a confirmed failure carries its exact record; one
		// still inside its observation window counts from its first
		// observation.
		for _, fr := range world.FailedMembers() {
			gid := world.Member(fr).GID()
			if f, seen := rt.det.FailureOf(gid); seen && (round.failedAt == 0 || f.FailedAt < round.failedAt) {
				round.failedAt = f.FailedAt
			} else if t, seen := rt.det.ObservedAt(gid); seen && (round.failedAt == 0 || t < round.failedAt) {
				round.failedAt = t
			}
		}
		if round.failedAt == 0 {
			round.failedAt = r.Now()
		}
	}

	// 1. Revoke: interrupt all pending communication on the broken world.
	rt.CommRevoke(r, world)

	// 2. Shrink: survivors only.
	shrunk, err := rt.CommShrink(r, world)
	if err != nil {
		return nil, err
	}

	// 3. Spawn (root of the shrunken comm) and build the merged world:
	// original ranking with failed slots refilled by replacements.
	if r.Rank(shrunk) == 0 && round.newWorld == nil {
		repls := rt.CommSpawn(r, shrunk, world)
		members := append([]*mpi.Process(nil), world.Leaders()...)
		for fr, repl := range repls {
			members[fr] = repl
		}
		round.newWorld = rt.job.NewComm(members)
	}
	// Publish the new world to all survivors: a real broadcast over the
	// shrunken communicator (root already knows it; others learn from the
	// message, like receiving the intercomm handle).
	if _, err := mpi.Bcast(r, shrunk, 0, []byte{1}); err != nil {
		return nil, fmt.Errorf("ulfm: publishing repaired world: %w", err)
	}
	nw := round.newWorld
	if nw == nil {
		return nil, fmt.Errorf("ulfm: repaired world missing after publish")
	}

	// 4. Intercomm merge: daemon-side cost grows with job size; the
	// synchronization with replacements is the join barrier (it completes
	// only once the spawned processes are up, so SpawnDelay is on the
	// critical path, as in real deployments).
	r.Compute(mergeBase + mergePerRank*simnet.Time(world.Size()))
	if err := rt.joinWorld(r, nw); err != nil {
		return nil, err
	}

	if !round.completed {
		round.completed = true
		failed := world.FailedMembers()
		rec := mpi.Recovery{
			Rank:        -1,
			Failed:      len(failed),
			FailedAt:    round.failedAt,
			CompletedAt: r.Now(),
		}
		if len(failed) > 0 {
			rec.Rank = failed[0]
		}
		rt.Recoveries = append(rt.Recoveries, rec)
		if p := rt.job.Cluster().Probe(); p.On(trace.CatRepair) {
			p.Emit(trace.Span{Cat: trace.CatRepair, Rank: -1, Job: p.JobOf(rt.job),
				Start: int64(r.Now()), Aux: int64(len(failed))})
		}
	}
	rt.job.SetWorld(nw)
	rt.det.SetProcs(nw.Leaders()) // heartbeat the repaired membership (replacements in, failed out)
	return nw, nil
}
