package replica

import (
	"errors"
	"testing"

	"match/internal/detect"
	"match/internal/mpi"
	"match/internal/simnet"
)

// resolved fills c's zero knobs with the defaults, as core does before a
// Config reaches this package.
func resolved(c Config) Config {
	if c.DupDegree == 0 {
		c.DupDegree = DefaultDupDegree
	}
	if c.ReplicaFactor == 0 {
		c.ReplicaFactor = DefaultReplicaFactor
	}
	if c.FailoverDetect == 0 {
		c.FailoverDetect = DefaultFailoverDetect
	}
	if c.ElectionDelay == 0 {
		c.ElectionDelay = DefaultElectionDelay
	}
	if c.SpawnDelay == 0 {
		c.SpawnDelay = DefaultSpawnDelay
	}
	if c.SpawnBandwidth == 0 {
		c.SpawnBandwidth = DefaultSpawnBandwidth
	}
	return c
}

// launcher is Replica's own detector.
var launcher = detect.LauncherConfig()

func TestLayoutFullReplication(t *testing.T) {
	l := NewLayout(8, 4, resolved(Config{}))
	if l.Total != 16 || l.Replicated() != 8 {
		t.Fatalf("layout = %+v, want 16 procs, 8 replicated ranks", l)
	}
	for i, nodes := range l.Nodes {
		if len(nodes) != 2 {
			t.Fatalf("rank %d has %d replicas, want 2", i, len(nodes))
		}
		if nodes[0] == nodes[1] {
			t.Fatalf("rank %d replicas co-located on node %d", i, nodes[0])
		}
	}
}

func TestLayoutPartialReplication(t *testing.T) {
	l := NewLayout(8, 4, resolved(Config{ReplicaFactor: 0.5}))
	if l.Replicated() != 4 {
		t.Fatalf("replicated = %d, want 4 of 8", l.Replicated())
	}
	if l.Total != 12 {
		t.Fatalf("total procs = %d, want 12", l.Total)
	}
	// Replicated ranks must be spread, not clustered at the front.
	if l.Degree[0] == l.Degree[1] {
		t.Fatalf("degrees %v not alternating for factor 0.5", l.Degree)
	}
}

// An explicit DupDegree of 1 is the unreplicated baseline, not a typo to
// silently correct.
func TestLayoutDupDegreeOne(t *testing.T) {
	l := NewLayout(8, 4, resolved(Config{DupDegree: 1}))
	if l.Total != 8 || l.Replicated() != 0 {
		t.Fatalf("layout = %+v, want 8 procs, 0 replicated ranks", l)
	}
}

func TestLayoutDeterministic(t *testing.T) {
	a := NewLayout(64, 32, resolved(Config{ReplicaFactor: 0.7, DupDegree: 3}))
	b := NewLayout(64, 32, resolved(Config{ReplicaFactor: 0.7, DupDegree: 3}))
	if a.Total != b.Total {
		t.Fatalf("layouts differ: %d vs %d procs", a.Total, b.Total)
	}
	for i := range a.Nodes {
		for k := range a.Nodes[i] {
			if a.Nodes[i][k] != b.Nodes[i][k] {
				t.Fatalf("placement differs at rank %d replica %d", i, k)
			}
		}
	}
}

// workloop is a minimal SPMD main: iterations of compute + allreduce, with
// an optional kill of one specific (rank, replica) at one iteration.
func workloop(t *testing.T, iters, killRank, killReplica, killIter int) func(*mpi.Rank, *mpi.Comm) error {
	return func(r *mpi.Rank, world *mpi.Comm) error {
		idx := world.ReplicaIndexOf(r.Process().GID())
		rank := r.Rank(world)
		for it := 0; it < iters; it++ {
			if it == killIter && rank == killRank && idx == killReplica {
				r.Die()
			}
			r.Compute(100 * simnet.Microsecond)
			sum, err := mpi.AllreduceF64Scalar(r, world, 1, mpi.OpSum)
			if err != nil {
				t.Errorf("rank %d replica %d iter %d: %v", rank, idx, it, err)
				return err
			}
			if int(sum) != world.Size() {
				t.Errorf("rank %d replica %d iter %d: sum %v != %d", rank, idx, it, sum, world.Size())
			}
		}
		return nil
	}
}

// A replica death must be absorbed by one failover: no relaunch, every
// logical rank completes, and the recovery duration is detect + election.
func TestSupervisorFailover(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	sup := Supervise(c, resolved(Config{}), launcher, 4, workloop(t, 10, 2, 1, 3))
	c.Run()
	if !sup.Done() {
		t.Fatal("not all logical ranks completed")
	}
	if sup.Failovers() != 1 || sup.Relaunches() != 0 {
		t.Fatalf("failovers=%d relaunches=%d, want 1/0", sup.Failovers(), sup.Relaunches())
	}
	rec := sup.Recoveries[0]
	if rec.Kind != int(Failover) || rec.Rank != 2 || rec.Replica != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	want := DefaultFailoverDetect + DefaultElectionDelay
	if rec.Duration() != want {
		t.Fatalf("failover duration %v, want %v", rec.Duration(), want)
	}
	// After the membership update the dead replica is pruned and the
	// survivor leads the group.
	if d := sup.CurrentJob().World().ReplicaDegree(2); d != 1 {
		t.Fatalf("group degree after failover = %d, want 1", d)
	}
	if sup.CurrentJob().World().Member(2).Failed() {
		t.Fatal("leader of rank 2 is still the dead replica")
	}
}

// Killing the only replica of an unreplicated rank (partial replication)
// must trigger the checkpoint-only fallback: the whole job relaunches and
// then completes.
func TestSupervisorExhaustionFallsBackToRelaunch(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	cfg := resolved(Config{ReplicaFactor: 0.5})
	lay := NewLayout(4, 4, cfg)
	victim := -1
	for i, d := range lay.Degree {
		if d == 1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no unreplicated rank in layout")
	}
	killed := false
	sup := Supervise(c, cfg, launcher, 4, func(r *mpi.Rank, world *mpi.Comm) error {
		idx := world.ReplicaIndexOf(r.Process().GID())
		// Kill the unreplicated rank once, in the first incarnation only.
		if !killed && r.Rank(world) == victim && idx == 0 {
			killed = true
			r.Die()
		}
		return workloop(t, 5, -1, -1, -1)(r, world)
	})
	c.Run()
	if !sup.Done() {
		t.Fatal("job never completed after fallback")
	}
	if sup.Relaunches() != 1 {
		t.Fatalf("relaunches = %d, want 1", sup.Relaunches())
	}
	if len(sup.Jobs) != 2 {
		t.Fatalf("incarnations = %d, want 2", len(sup.Jobs))
	}
	if sup.GaveUp {
		t.Fatal("supervisor gave up")
	}
	// The fallback pays restart-scale costs, far above a failover.
	var rel mpi.Recovery
	for _, r := range sup.Recoveries {
		if r.Kind == int(Relaunch) {
			rel = r
		}
	}
	if rel.Duration() < simnet.Second {
		t.Fatalf("relaunch duration %v suspiciously cheap", rel.Duration())
	}
}

// A replica whose main returns an error has not completed its rank and no
// longer protects it: the rank's degree drops, and when its twin is killed
// later no copy of the state is left, so the group takes the checkpoint
// fallback and the relaunched job completes.
func TestErroredReplicaIsLostReplica(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	errGaveUp := errors.New("replica gave up")
	var sup *Supervisor
	first := true
	checked := false
	sup = Supervise(c, resolved(Config{}), launcher, 4, func(r *mpi.Rank, world *mpi.Comm) error {
		idx := world.ReplicaIndexOf(r.Process().GID())
		rank := r.Rank(world)
		for it := 0; it < 10; it++ {
			if first && rank == 2 {
				switch {
				case it == 3 && idx == 1:
					return errGaveUp
				case it == 6:
					checked = true
					if sup.groupCompleted(world, 2) || sup.MinLiveDegree() != 1 {
						t.Errorf("after the error: group completed = %v, degree %d; want false, 1",
							sup.groupCompleted(world, 2), sup.MinLiveDegree())
					}
				case it == 8:
					first = false
					r.Die()
				}
			}
			r.Compute(100 * simnet.Microsecond)
			if _, err := mpi.AllreduceF64Scalar(r, world, 1, mpi.OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	c.Run()
	if !checked {
		t.Fatal("the twin never reached the check")
	}
	if !sup.Done() || sup.Failovers() != 0 || sup.Relaunches() != 1 {
		t.Fatalf("done=%v failovers=%d relaunches=%d, want true/0/1", sup.Done(), sup.Failovers(), sup.Relaunches())
	}
	// The survivors waiting on rank 2 wait for the fallback's teardown: a
	// group that lost a member and completed none is not a peer that exited,
	// so the replica's error is the incarnation's only one.
	if errs := sup.Jobs[0].Errs(); len(errs) != 1 || errs[0] != errGaveUp {
		t.Fatalf("first incarnation's errors %v, want [%v]", errs, errGaveUp)
	}
}

// hotSpareConfig keeps respawn windows short enough for the quick test
// workloops (the calibrated 250ms SpawnDelay dwarfs a 40ms loop).
func hotSpareConfig() Config {
	return resolved(Config{HotSpare: true, SpawnDelay: simnet.Millisecond,
		StateBytes: func(int) int64 { return 1 << 20 }})
}

// A failover under HotSpare must schedule a background respawn that
// restores the degraded group to its configured degree.
func TestHotSpareRespawnRestoresDegree(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	sup := Supervise(c, hotSpareConfig(), launcher, 4, workloop(t, 400, 2, 1, 3))
	c.Run()
	if !sup.Done() {
		t.Fatal("not all logical ranks completed")
	}
	if sup.Failovers() != 1 || sup.Relaunches() != 0 {
		t.Fatalf("failovers=%d relaunches=%d, want 1/0", sup.Failovers(), sup.Relaunches())
	}
	if sup.Respawns() != 1 {
		t.Fatalf("respawns = %d, want 1", sup.Respawns())
	}
	rs := sup.RespawnLog[0]
	if !rs.Live || rs.Aborted || rs.Rank != 2 || rs.Replica != 1 {
		t.Fatalf("respawn record = %+v", rs)
	}
	if rs.Duration() <= simnet.Millisecond {
		t.Fatalf("spawn duration %v does not cover SpawnDelay + state transfer", rs.Duration())
	}
	if sup.SpawnTime() != rs.Duration() {
		t.Fatalf("SpawnTime() = %v, want %v", sup.SpawnTime(), rs.Duration())
	}
	// The spare joined the group: protection is back at full degree.
	if d := sup.CurrentJob().World().ReplicaDegree(2); d != 2 {
		t.Fatalf("group degree after respawn = %d, want 2", d)
	}
	if got := sup.MinLiveDegree(); got != 2 {
		t.Fatalf("MinLiveDegree after respawn = %d, want 2", got)
	}
}

// A second failure on the same rank, landing after the spare went live,
// must be absorbed by failover — not the checkpoint fallback.
func TestHotSpareAbsorbsSecondFailure(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	var sup *Supervisor
	sup = Supervise(c, hotSpareConfig(), launcher, 4, func(r *mpi.Rank, world *mpi.Comm) error {
		idx := world.ReplicaIndexOf(r.Process().GID())
		rank := r.Rank(world)
		for it := 0; it < 800; it++ {
			if it == 3 && rank == 2 && idx == 1 {
				r.Die()
			}
			if it == 350 && rank == 2 {
				// Second hit on the surviving replica, well past the
				// respawn window: the live spare absorbs it.
				if !sup.AbsorbFailure(r) {
					r.Die()
				}
			}
			r.Compute(100 * simnet.Microsecond)
			if _, err := mpi.AllreduceF64Scalar(r, world, 1, mpi.OpSum); err != nil {
				t.Errorf("rank %d replica %d iter %d: %v", rank, idx, it, err)
				return err
			}
		}
		return nil
	})
	c.Run()
	if !sup.Done() {
		t.Fatal("not all logical ranks completed")
	}
	if sup.Failovers() != 2 || sup.Relaunches() != 0 {
		t.Fatalf("failovers=%d relaunches=%d, want 2/0 (spare takeover must not fall back)",
			sup.Failovers(), sup.Relaunches())
	}
	second := sup.Recoveries[1]
	if second.Kind != int(Failover) || second.Rank != 2 || second.Replica != 0 {
		t.Fatalf("second recovery = %+v, want failover of rank 2 replica 0", second)
	}
	want := DefaultFailoverDetect + DefaultElectionDelay
	if second.Duration() != want {
		t.Fatalf("takeover duration %v, want detect+election %v", second.Duration(), want)
	}
	// The takeover consumed the spare and scheduled a replacement.
	if len(sup.RespawnLog) != 2 {
		t.Fatalf("respawn log = %+v, want 2 spawns (initial + refill)", sup.RespawnLog)
	}
	// Identity swap bookkeeping: the executor carried on in the consumed
	// spare's slot (1, the slot of the first death), and the refill spare
	// occupies the takeover victim's slot (0) — every stable index exists
	// exactly once, so later schedule events can still target both slots.
	world := sup.CurrentJob().World()
	if got := world.ReplicaIndexOf(world.Member(2).GID()); got != 1 {
		t.Fatalf("promoted executor occupies slot %d, want 1 (the consumed spare's)", got)
	}
	idx := map[int]int{}
	for _, m := range world.ReplicaGroup(2) {
		idx[world.ReplicaIndexOf(m.GID())]++
	}
	if idx[0] != 1 || idx[1] != 1 {
		t.Fatalf("slot occupancy = %v, want exactly one member per slot", idx)
	}
}

// A node failure destroys a live spare's cloned state even though no
// simulated process dies with it: the spare must stop counting as
// protection, and a subsequent hit on the rank's last executor must take
// the checkpoint fallback instead of being absorbed by a dead spare.
func TestHotSpareInvalidatedByNodeFailure(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	var sup *Supervisor
	nodeKilled, k2 := false, false
	sup = Supervise(c, hotSpareConfig(), launcher, 4, func(r *mpi.Rank, world *mpi.Comm) error {
		idx := world.ReplicaIndexOf(r.Process().GID())
		rank := r.Rank(world)
		for it := 0; it < 400; it++ {
			if it == 3 && rank == 2 && idx == 1 {
				r.Die()
			}
			if !nodeKilled && it == 300 && rank == 0 {
				if len(sup.RespawnLog) > 0 && sup.RespawnLog[0].Live {
					nodeKilled = true
					node := sup.RespawnLog[0].Node
					if got := sup.MinLiveDegree(); got != 2 {
						t.Errorf("degree before node failure = %d, want 2 (spare live)", got)
					}
					c.Scheduler().After(0, func() { c.FailNode(node) })
				}
			}
			if !k2 && it == 350 && rank == 2 {
				k2 = true
				if got := sup.MinLiveDegree(); got >= 2 {
					t.Errorf("degree after spare's node died = %d, want < 2", got)
				}
				if !sup.AbsorbFailure(r) {
					r.Die()
				}
			}
			r.Compute(100 * simnet.Microsecond)
			if _, err := mpi.AllreduceF64Scalar(r, world, 1, mpi.OpSum); err != nil {
				t.Errorf("rank %d replica %d iter %d: %v", rank, idx, it, err)
				return err
			}
		}
		return nil
	})
	c.Run()
	if !nodeKilled || !k2 {
		t.Fatalf("scenario did not run: nodeKilled=%v k2=%v", nodeKilled, k2)
	}
	if !sup.Done() {
		t.Fatal("job never completed")
	}
	if sup.Relaunches() != 1 {
		t.Fatalf("relaunches = %d, want 1 (a dead spare must not absorb the hit)", sup.Relaunches())
	}
}

// A second failure landing inside the respawn window — the spare is not
// yet live — must exhaust the group and take the checkpoint fallback.
func TestHotSpareWindowFallsBackToRelaunch(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	cfg := hotSpareConfig()
	cfg.SpawnDelay = 3600 * simnet.Second // spare never ready in this run
	var sup *Supervisor
	k1, k2 := false, false
	sup = Supervise(c, cfg, launcher, 4, func(r *mpi.Rank, world *mpi.Comm) error {
		idx := world.ReplicaIndexOf(r.Process().GID())
		rank := r.Rank(world)
		for it := 0; it < 400; it++ {
			if !k1 && it == 3 && rank == 2 && idx == 1 {
				k1 = true
				r.Die()
			}
			if !k2 && it == 350 && rank == 2 {
				k2 = true
				if !sup.AbsorbFailure(r) {
					r.Die()
				}
			}
			r.Compute(100 * simnet.Microsecond)
			if _, err := mpi.AllreduceF64Scalar(r, world, 1, mpi.OpSum); err != nil {
				t.Errorf("rank %d replica %d iter %d: %v", rank, idx, it, err)
				return err
			}
		}
		return nil
	})
	c.Run()
	if !sup.Done() {
		t.Fatal("job never completed after fallback")
	}
	if sup.Failovers() != 1 || sup.Relaunches() != 1 {
		t.Fatalf("failovers=%d relaunches=%d, want 1/1 (in-window hit must fall back)",
			sup.Failovers(), sup.Relaunches())
	}
	if sup.Respawns() != 0 {
		t.Fatalf("respawns = %d, want 0 (the spawn never went live)", sup.Respawns())
	}
	if len(sup.RespawnLog) == 0 || !sup.RespawnLog[0].Aborted {
		t.Fatalf("respawn log = %+v, want the in-flight spawn aborted by teardown", sup.RespawnLog)
	}
}

// Two identical hot-spare runs must produce identical virtual timelines.
func TestHotSpareDeterministic(t *testing.T) {
	run := func() (simnet.Time, int, int) {
		c := simnet.NewCluster(simnet.Config{Nodes: 4, ModelIngress: true})
		sup := Supervise(c, hotSpareConfig(), launcher, 4, workloop(t, 400, 1, 0, 4))
		end := c.Run()
		return end, len(sup.Recoveries), sup.Respawns()
	}
	t1, r1, s1 := run()
	t2, r2, s2 := run()
	if t1 != t2 || r1 != r2 || s1 != s2 {
		t.Fatalf("runs diverged: (%v,%d,%d) vs (%v,%d,%d)", t1, r1, s1, t2, r2, s2)
	}
}

// Two identical supervised runs must produce identical virtual timelines.
func TestSupervisorDeterministic(t *testing.T) {
	run := func() (simnet.Time, int) {
		c := simnet.NewCluster(simnet.Config{Nodes: 4, ModelIngress: true})
		sup := Supervise(c, resolved(Config{}), launcher, 4, workloop(t, 10, 1, 0, 4))
		end := c.Run()
		return end, len(sup.Recoveries)
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("runs diverged: (%v,%d) vs (%v,%d)", t1, r1, t2, r2)
	}
}

// MinLiveDegree is the replica-aware checkpoint policy's protection
// signal: full replication reports the dup degree, partial replication
// reports 1 from the start, and a failover degrades it to 1 the moment a
// group loses a member.
func TestMinLiveDegree(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	sup := Supervise(c, resolved(Config{}), launcher, 4, workloop(t, 10, 2, 1, 3))
	if got := sup.MinLiveDegree(); got != 2 {
		t.Fatalf("fully replicated degree = %d, want 2", got)
	}
	c.Run()
	if !sup.Done() || sup.Failovers() != 1 {
		t.Fatalf("done=%v failovers=%d", sup.Done(), sup.Failovers())
	}
	if got := sup.MinLiveDegree(); got != 1 {
		t.Fatalf("degree after failover = %d, want 1", got)
	}

	c2 := simnet.NewCluster(simnet.Config{Nodes: 4})
	sup2 := Supervise(c2, resolved(Config{ReplicaFactor: 0.5}), launcher, 4, workloop(t, 2, -1, -1, -1))
	if got := sup2.MinLiveDegree(); got != 1 {
		t.Fatalf("partial replication degree = %d, want 1 (some rank is unprotected)", got)
	}
	c2.Run()
}
