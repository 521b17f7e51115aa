// Package replica implements ReplicaFTI, MATCH's fourth fault-tolerance
// design: process replication in the tradition of rMPI and FTHP-MPI, with
// partial replication (PartRePer-MPI) as a performance/resilience knob.
//
// Every logical rank is backed by a replica group (dup-degree 2 by
// default; ReplicaFactor selects which fraction of ranks get replicas).
// All replicas execute the application; the replica-aware communicator in
// internal/mpi duplicates every logical message to the whole destination
// group and suppresses duplicate copies at delivery, so the loss of any
// single replica is absorbed *without rollback*: survivors keep computing,
// and the runtime merely performs a leader election and membership update
// whose cost — not a checkpoint restore — is the recovery time.
//
// Replication is not free: it doubles the processes per node, duplicates
// every message (paying NIC time, including ingress queueing when the
// cluster models it), and adds a small per-operation sequencing overhead.
// That steady-state cost against near-zero recovery time is precisely the
// trade the checkpoint/restart designs make in the opposite direction.
//
// When an entire group is exhausted — only possible for an unreplicated
// rank under partial replication, or a node failure taking out a
// degenerate group — no copy of the rank's state survives, and the
// supervisor falls back to checkpoint-only recovery: it tears the job down
// and relaunches it on restart.Launcher, the restart design's relaunch
// cycle, with FTI restoring the last committed checkpoint. Every
// incarnation and every hot spare is placed by mpi.Job.AddProcess, which
// moves a process off a dead node to simnet.Cluster.LiveNode.
package replica

import (
	"fmt"

	"match/internal/detect"
	"match/internal/mpi"
	"match/internal/restart"
	"match/internal/simnet"
	"match/internal/trace"
)

// Config holds the replication runtime's settable knobs. core fills each
// zero numeric field with its Default constant below before a Config
// reaches NewLayout or Supervise; the rest of the cost model is fixed.
type Config struct {
	// DupDegree is the replica-group size for replicated ranks. An
	// explicit 1 is honored: no rank is replicated and every failure takes
	// the checkpoint-only fallback — the degenerate baseline of a
	// replication sweep.
	DupDegree int
	// ReplicaFactor is the fraction of logical ranks, in (0,1], that get a
	// replica group, spread evenly across the rank space (1: full
	// replication; PartRePer-style partial replication below 1).
	ReplicaFactor float64
	// FailoverDetect is the time for the runtime daemons to notice a dead
	// replica (SIGCHLD-style). It applies only under the Launcher
	// detector; an in-band detector replaces it with its own confirmation
	// latency.
	FailoverDetect simnet.Time
	// ElectionDelay is the leader election plus group-membership update
	// after a replica death. Detection plus election quiesces every
	// survivor once — the runtime's global fault notification — so a
	// failover's recovery time is also what the application actually pays,
	// just without recomputing anything.
	ElectionDelay simnet.Time

	// HotSpare enables FTHP-MPI-style background respawn: after a failover
	// degrades a replica group, the supervisor spawns a fresh shadow in the
	// background (a ULFM-style dynamic spawn plus a state transfer cloned
	// from the surviving replica's live memory) that restores the group to
	// its configured degree. Once the spare is live the group can absorb
	// another process failure by failover; a failure landing *inside* the
	// respawn window still exhausts the group and takes the checkpoint
	// fallback. Off by default, so degraded groups stay at degree 1 until
	// job restart — the PartRePer-MPI behavior the calibrated numbers
	// assume.
	HotSpare bool
	// SpawnDelay is the dynamic-process-spawn cost paid before the state
	// transfer begins — MPI_Comm_spawn through the launcher plus wiring the
	// new process into the runtime.
	SpawnDelay simnet.Time
	// SpawnBandwidth is the serialization rate of the survivor-to-spare
	// state clone in bytes per second. The wire leg of the transfer
	// additionally pays NIC time through the cluster model — including
	// ingress queueing at the spare's node when the cluster models it.
	SpawnBandwidth float64
	// StateBytes reports the live protected-state volume of a logical rank
	// in bytes (the respawn transfer size, before the cluster's byte
	// scale). The harness feeds it from the application's FTI-protected
	// footprint; nil — or a zero return — falls back to 16 MiB.
	// Runtime wiring, not configuration: excluded from serialization and
	// hashing.
	StateBytes func(rank int) int64 `json:"-"`
}

// The calibrated values core fills into a zero Config field.
const (
	DefaultDupDegree      = 2
	DefaultReplicaFactor  = 1.0
	DefaultFailoverDetect = 5 * simnet.Millisecond
	DefaultElectionDelay  = 15 * simnet.Millisecond
	DefaultSpawnDelay     = 250 * simnet.Millisecond
	// DefaultSpawnBandwidth matches FTI's in-memory serialize rate.
	DefaultSpawnBandwidth = 8e9
)

// The fixed part of the cost model. An exhausted group's checkpoint-only
// fallback runs on restart.Launcher and pays its cost model.
const (
	// perOpOverhead is the sequencing/envelope cost the replica layer adds
	// to every point-to-point operation.
	perOpOverhead = 1 * simnet.Microsecond
	// spawnStateBytes is the per-rank transfer volume used when no
	// StateBytes feed is installed.
	spawnStateBytes = 16 << 20
)

// Layout is the replica-group structure of an n-rank job: which ranks are
// replicated, at what degree, and where every replica runs (once its node
// is lost, on the cluster's LiveNode for it).
type Layout struct {
	Procs  int     // logical rank count
	Degree []int   // replicas per logical rank
	Nodes  [][]int // node of each replica, per logical rank
	Total  int     // physical process count
}

// NewLayout computes the deterministic replica layout for n logical ranks
// on a cluster of numNodes nodes. Primaries follow the block placement of
// mpi.Launch; replica k of a rank lands numNodes/DupDegree nodes away, so
// no two members of a group share a node (when the cluster has more than
// one node) and a node failure can exhaust only degenerate groups.
func NewLayout(n, numNodes int, cfg Config) Layout {
	l := Layout{Procs: n, Degree: make([]int, n), Nodes: make([][]int, n)}
	offset := numNodes / cfg.DupDegree
	if offset < 1 {
		offset = 1
	}
	for i := 0; i < n; i++ {
		deg := 1
		// Spread the replicated ranks evenly over the rank space.
		if int(cfg.ReplicaFactor*float64(i+1)) > int(cfg.ReplicaFactor*float64(i)) {
			deg = cfg.DupDegree
		}
		l.Degree[i] = deg
		prim := i * numNodes / n
		for k := 0; k < deg; k++ {
			l.Nodes[i] = append(l.Nodes[i], (prim+k*offset)%numNodes)
		}
		l.Total += deg
	}
	return l
}

// DegreeOf reports the replica-group size of a logical rank (the shape
// fault.NewReplicatedSchedule needs).
func (l Layout) DegreeOf(rank int) int { return l.Degree[rank] }

// Replicated counts the ranks backed by more than one replica.
func (l Layout) Replicated() int {
	n := 0
	for _, d := range l.Degree {
		if d > 1 {
			n++
		}
	}
	return n
}

// RecoveryKind distinguishes the two recovery paths (mpi.Recovery.Kind).
type RecoveryKind int

const (
	// Failover is the rollback-free path: a replica died, a survivor took
	// over after a leader election and membership update.
	Failover RecoveryKind = iota
	// Relaunch is the checkpoint-only fallback: a whole group died and the
	// job was redeployed from the last committed checkpoint.
	Relaunch
)

func (k RecoveryKind) String() string {
	if k == Relaunch {
		return "relaunch"
	}
	return "failover"
}

// Respawn records one hot-spare spawn: the background respawn scheduled
// after a failover to restore the degraded group to its configured degree.
type Respawn struct {
	Rank    int // logical rank whose group is being refilled
	Replica int // stable index of the replica slot being refilled
	Node    int // node the spare lands on
	// StartedAt is when the spawn was scheduled (the failover's membership
	// update); LiveAt is when the state transfer finished and the spare
	// began counting as protection (valid once Live).
	StartedAt simnet.Time
	LiveAt    simnet.Time
	// Live is set once the spare finished its state transfer; Aborted is
	// set when the incarnation ended (fallback teardown) or the rank
	// completed before the spare went live.
	Live    bool
	Aborted bool
}

// Duration is the spawn latency: dynamic spawn plus state transfer.
func (r Respawn) Duration() simnet.Time { return r.LiveAt - r.StartedAt }

// Supervisor runs an n-rank job under replication: it launches the replica
// groups, absorbs single-replica failures by failover, and relaunches the
// job from checkpoints when a group is exhausted.
type Supervisor struct {
	// Launcher runs the fallback's relaunch cycle and keeps every
	// incarnation (Jobs, Detectors, GaveUp, CurrentJob, Relaunches).
	restart.Launcher
	cluster *simnet.Cluster
	cfg     Config
	dcfg    detect.Config
	layout  Layout
	main    func(r *mpi.Rank, world *mpi.Comm)

	// Recoveries lists failovers and fallback relaunches in order (Kind is
	// the RecoveryKind, Replica the index that died).
	Recoveries []mpi.Recovery
	// RespawnLog lists every hot-spare spawn scheduled, in order (live,
	// in-flight, and aborted alike). Empty unless Config.HotSpare is set.
	RespawnLog []Respawn

	world    *mpi.Comm
	rankDone []bool
	// gidRank/gidIdx map the current incarnation's physical processes back
	// to (logical rank, replica index) for detector-driven recovery.
	gidRank map[int]int
	gidIdx  map[int]int
	// spares tracks the current incarnation's hot spares by logical rank:
	// the index into RespawnLog of the pending or live spawn, and — once
	// live — the virtual member joined to the replica group.
	spares map[int]*spare
	// degradedAt tracks, per logical rank, when its replica group dropped
	// below configured degree — observer-only bookkeeping closed into a
	// CatDegraded span when a respawn restores protection. Nil (never
	// allocated) unless an observer wants the category.
	degradedAt map[int]simnet.Time
}

// markDegraded opens a below-degree window for rank; no-op unless an
// observer wants CatDegraded spans.
func (s *Supervisor) markDegraded(rank int) {
	if !s.cluster.Probe().On(trace.CatDegraded) {
		return
	}
	if s.degradedAt == nil {
		s.degradedAt = make(map[int]simnet.Time)
	}
	if _, open := s.degradedAt[rank]; !open {
		s.degradedAt[rank] = s.cluster.Now()
	}
}

// closeDegraded emits the rank's open below-degree window, if any.
func (s *Supervisor) closeDegraded(rank, idx int) {
	start, open := s.degradedAt[rank]
	if !open {
		return
	}
	delete(s.degradedAt, rank)
	p := s.cluster.Probe()
	p.Emit(trace.Span{Cat: trace.CatDegraded,
		Rank: int32(rank), Replica: int32(idx), Job: p.JobOf(s.CurrentJob()),
		Start: int64(start), Dur: int64(s.cluster.Now() - start)})
}

// spare is one in-flight or live hot spare. The spare is a *virtual*
// member: it holds a byte-identical clone of the survivor's state and
// receives the same duplicated message stream, so it tracks the survivor
// in lockstep, but it has no simulated process of its own — a takeover is
// modeled as an identity swap with the executing survivor (see
// AbsorbFailure).
type spare struct {
	log  int          // index into RespawnLog
	proc *mpi.Process // nil until the state transfer completes
}

// Supervise launches n logical ranks under replication, with failure
// detector dcfg (the Launcher detector is Replica's own), and returns the
// supervisor; drive the cluster's scheduler to completion afterwards. main
// runs once per physical replica, with the replica-aware world
// communicator; the replica's index in its group (0 = initial primary) is
// world.ReplicaIndexOf(r.Process().GID()). An invalid
// detector configuration panics; validate with detect.Config.Validate
// (core.Run does) before constructing.
func Supervise(c *simnet.Cluster, cfg Config, dcfg detect.Config, n int, main func(*mpi.Rank, *mpi.Comm)) *Supervisor {
	s := &Supervisor{
		cluster:  c,
		cfg:      cfg,
		dcfg:     dcfg,
		layout:   NewLayout(n, c.NumNodes(), cfg),
		main:     main,
		rankDone: make([]bool, n),
	}
	s.Launcher = restart.NewLauncher(c, dcfg, s.layout.Total, s.launch)
	s.launch(0)
	return s
}

// World returns the current incarnation's replica-aware world.
func (s *Supervisor) World() *mpi.Comm { return s.world }

// Done reports whether every logical rank completed in some incarnation.
func (s *Supervisor) Done() bool {
	for _, d := range s.rankDone {
		if !d {
			return false
		}
	}
	return true
}

// MinLiveDegree reports the smallest live replica-group size across the
// logical ranks of the current incarnation — the protection signal the
// replica-aware checkpoint-placement policy re-arms on. It is 1 (or 0,
// mid-teardown) as soon as any rank's state would not survive a process
// failure: under partial replication from the start, or after a failover
// degrades a group. Members that already exited successfully still count
// as protection — a completed rank's state needs no checkpoint. A virtual
// hot spare counts only while its node is alive: a node failure destroys
// the spare's cloned state even though no simulated process dies with it.
func (s *Supervisor) MinLiveDegree() int {
	min := s.cfg.DupDegree
	for r := 0; r < s.layout.Procs; r++ {
		n := 0
		for _, m := range s.world.ReplicaGroup(r) {
			if s.memberProtects(m) {
				n++
			}
		}
		if n < min {
			min = n
		}
	}
	return min
}

// memberProtects reports whether a group member still protects its rank's
// state: any non-failed executing (or completed) member, or a virtual
// spare whose node survives.
func (s *Supervisor) memberProtects(m *mpi.Process) bool {
	if m.Failed() {
		return false
	}
	if m.SimProc() == nil { // virtual hot spare: state lives on its node
		return s.cluster.Node(m.NodeID()).Alive()
	}
	return true
}

// Respawns counts the hot spares that completed their state transfer and
// went live (restoring their group to its configured degree).
func (s *Supervisor) Respawns() int {
	n := 0
	for _, r := range s.RespawnLog {
		if r.Live {
			n++
		}
	}
	return n
}

// SpawnTime sums the spawn latency (dynamic spawn plus state transfer) of
// every live respawn. Spawning happens in the background, so this is a
// resource metric, not a component of the application's critical path.
func (s *Supervisor) SpawnTime() simnet.Time {
	var t simnet.Time
	for _, r := range s.RespawnLog {
		if r.Live {
			t += r.Duration()
		}
	}
	return t
}

// Failovers counts the rollback-free recoveries performed: every recovery
// that is not one of the launcher's relaunches.
func (s *Supervisor) Failovers() int { return len(s.Recoveries) - s.Relaunches() }

// launch starts one physical incarnation of the whole replicated job.
func (s *Supervisor) launch(delay simnet.Time) {
	s.spares = make(map[int]*spare)
	job := mpi.NewJob(s.cluster)
	job.PerOpOverhead = perOpOverhead
	n := s.layout.Procs
	groups := make([][]*mpi.Process, n)
	// Primaries first, then the replica tiers, so primary GIDs mirror the
	// rank order of an unreplicated launch.
	for i := 0; i < n; i++ {
		groups[i] = []*mpi.Process{job.AddProcess(s.layout.Nodes[i][0], nil)}
	}
	for k := 1; k < s.cfg.DupDegree; k++ {
		for i := 0; i < n; i++ {
			if k < s.layout.Degree[i] {
				groups[i] = append(groups[i], job.AddProcess(s.layout.Nodes[i][k], nil))
			}
		}
	}
	world := job.NewReplicaComm(groups)
	job.SetWorld(world)
	s.world = world
	s.gidRank = make(map[int]int, s.layout.Total)
	s.gidIdx = make(map[int]int, s.layout.Total)
	var phys []*mpi.Process
	for i := 0; i < n; i++ {
		for k, p := range groups[i] {
			i, p := i, p
			s.gidRank[p.GID()] = i
			s.gidIdx[p.GID()] = k
			sp := s.cluster.StartProc(p.NodeID(), delay, func(sp *simnet.Proc) {
				s.main(mpi.Bind(job, p, sp), world)
			})
			p.SetSimProc(sp)
			sp.OnExit(func(sp *simnet.Proc) {
				s.onExit(job, i, p, sp)
			})
		}
	}
	// The detector watches every physical process — failures of shadow
	// replicas matter as much as leader failures. Under the ring strategy
	// the heartbeat ring (and its interference) therefore spans the
	// physical job, like FTHP-MPI's replica heartbeats.
	for i := 0; i < n; i++ {
		phys = append(phys, groups[i]...)
	}
	s.Watch(job, func(f detect.Failure) { s.onFailure(job, world, f) }).SetProcs(phys)
}

// onExit is the node daemon's process watcher: it records completions and
// marks deaths in the message layer immediately (copies to a dead replica
// are dropped at delivery). *Reacting* to a death waits for the failure
// detector's confirmation in onFailure.
func (s *Supervisor) onExit(job *mpi.Job, rank int, p *mpi.Process, sp *simnet.Proc) {
	if job != s.CurrentJob() {
		return // stale incarnation
	}
	switch sp.Status() {
	case simnet.ExitOK:
		s.rankDone[rank] = true
	case simnet.ExitKilled:
		job.MarkFailed(p.GID())
	}
}

// onFailure drives recovery once the detector confirms a death: failover
// while the group still has a survivor, checkpoint fallback otherwise.
// Under an in-band detector a second failure landing inside the first's
// observation window is only discovered here — by which time the group may
// already be exhausted, sending the run down the fallback path the instant
// launcher preset would have avoided.
func (s *Supervisor) onFailure(job *mpi.Job, world *mpi.Comm, f detect.Failure) {
	if !s.Live(job) {
		return
	}
	rank, ok := s.gidRank[f.GID]
	if !ok {
		return
	}
	if s.groupAlive(world, rank) {
		s.failover(job, world, rank, s.gidIdx[f.GID], f)
	} else if !s.groupCompleted(world, rank) {
		s.fallback(job, rank, f)
	}
}

// groupAlive reports whether any *executing* member of the rank's group is
// still running. Virtual hot spares (no simulated process of their own)
// are excluded: a spare can only take over through the lockstep identity
// swap of AbsorbFailure, so a group whose last executor died by any other
// means — a node failure, say — is exhausted even if a spare is live.
func (s *Supervisor) groupAlive(world *mpi.Comm, rank int) bool {
	for _, m := range world.ReplicaGroup(rank) {
		sp := m.SimProc()
		if !m.Failed() && sp != nil && !sp.Exited() {
			return true
		}
	}
	return false
}

// groupCompleted reports whether some member of the rank's group already
// finished the application (the rank needs no recovery at all).
func (s *Supervisor) groupCompleted(world *mpi.Comm, rank int) bool {
	for _, m := range world.ReplicaGroup(rank) {
		sp := m.SimProc()
		if !m.Failed() && sp != nil && sp.Exited() && sp.Status() == simnet.ExitOK {
			return true
		}
	}
	return false
}

// failover is the rollback-free path: elect a new leader among the
// survivors, update the group membership everywhere, and keep going. The
// application never re-executes an instruction.
func (s *Supervisor) failover(job *mpi.Job, world *mpi.Comm, rank, idx int, f detect.Failure) {
	// Under the launcher preset the daemons pay FailoverDetect to notice
	// the SIGCHLD; an in-band detector has already paid its own latency.
	detected := f.DetectedAt
	if s.dcfg.Kind == detect.Launcher {
		detected = f.FailedAt + s.cfg.FailoverDetect
	}
	completed := detected + s.cfg.ElectionDelay
	s.Recoveries = append(s.Recoveries, mpi.Recovery{
		Kind: int(Failover), Rank: rank, Replica: idx,
		FailedAt: f.FailedAt, CompletedAt: completed,
	})
	deadNode := -1
	for _, m := range world.ReplicaGroup(rank) {
		if m.GID() == f.GID {
			deadNode = m.NodeID()
		}
	}
	s.commitFailover(job, world, rank, idx, f.GID, deadNode, f.FailedAt, completed, true)
}

// commitFailover ends a failover at completed: gid leaves the rank's group,
// a new leader is promoted, and a hot spare refills slot idx, on node while
// that node is alive. The global fault notification quiesces every
// surviving process for the window since failedAt, the whole recovery
// cost; nothing is rolled back or recomputed. announce emits the failover
// span (a spare's takeover has emitted its absorb span already).
func (s *Supervisor) commitFailover(job *mpi.Job, world *mpi.Comm, rank, idx, gid, node int, failedAt, completed simnet.Time, announce bool) {
	// A ring confirms on its next tick, which lands after DetectedAt when
	// the timeout is off the period grid: the election may already be due.
	s.cluster.Scheduler().At(max(completed, s.cluster.Now()), func() {
		if job != s.CurrentJob() || job.Aborted() {
			return
		}
		world.PruneReplica(gid)
		world.PromoteLeader(rank)
		if p := s.cluster.Probe(); announce && p.On(trace.CatFailover) {
			p.Emit(trace.Span{Cat: trace.CatFailover,
				Rank: int32(rank), Replica: int32(idx), Job: p.JobOf(job),
				Start: int64(completed), Aux: int64(gid)})
		}
		s.markDegraded(rank)
		quiesce := completed - failedAt
		for r := 0; r < s.layout.Procs; r++ {
			for _, m := range world.ReplicaGroup(r) {
				if !m.Failed() {
					job.Steal(m.GID(), quiesce)
				}
			}
		}
		s.scheduleRespawn(job, world, rank, idx, node)
	})
}

// scheduleRespawn starts the background hot-spare spawn that refills the
// replica slot a failover just emptied: a dynamic spawn (SpawnDelay), then
// a state transfer cloning the surviving leader's live memory to the
// spare's node over the network. The spare lands on the dead replica's
// node when that node is still alive (a process failure leaves it free),
// the next live node otherwise (simnet.Cluster.LiveNode).
func (s *Supervisor) scheduleRespawn(job *mpi.Job, world *mpi.Comm, rank, idx, deadNode int) {
	if !s.cfg.HotSpare || s.spares[rank] != nil {
		return
	}
	live := 0
	for _, m := range world.ReplicaGroup(rank) {
		if !m.Failed() {
			live++
		}
	}
	if live == 0 || live >= s.layout.Degree[rank] {
		return // exhausted (fallback owns it) or already at full degree
	}
	node := deadNode
	if node < 0 {
		node = s.layout.Nodes[rank][0]
	}
	node = s.cluster.LiveNode(node)
	start := s.cluster.Now()
	s.RespawnLog = append(s.RespawnLog, Respawn{
		Rank: rank, Replica: idx, Node: node, StartedAt: start,
	})
	sp := &spare{log: len(s.RespawnLog) - 1}
	s.spares[rank] = sp
	// Serialize the survivor's live state after the spawn completes, then
	// put it on the wire; the transfer pays real NIC time (and ingress
	// queueing at the spare, when modeled), so respawns interfere with
	// application traffic the way FTHP-MPI's background clones do.
	bytes := int64(spawnStateBytes)
	if s.cfg.StateBytes != nil {
		if b := s.cfg.StateBytes(rank); b > 0 {
			bytes = b
		}
	}
	wire := int64(s.cluster.Config().Scaled(int(bytes)))
	serialize := simnet.Time(float64(wire) / s.cfg.SpawnBandwidth * 1e9)
	s.cluster.Scheduler().After(s.cfg.SpawnDelay+serialize, func() {
		if !s.Live(job) {
			s.abortRespawn(rank, sp)
			return
		}
		src := world.Member(rank).NodeID()
		liveAt := s.cluster.SendArrival(src, node, int(wire), s.cluster.Now())
		s.cluster.Scheduler().At(liveAt, func() { s.goLive(job, world, rank, idx, node, sp) })
	})
}

// goLive completes a respawn: the spare holds a byte-identical clone of
// the survivor's state, joins the replica group as a virtual member —
// senders start duplicating onto it, and MinLiveDegree sees the restored
// protection — and from here on tracks the survivor in lockstep.
func (s *Supervisor) goLive(job *mpi.Job, world *mpi.Comm, rank, idx, node int, sp *spare) {
	if !s.Live(job) || s.rankDone[rank] || !s.groupAlive(world, rank) ||
		!s.cluster.Node(node).Alive() {
		s.abortRespawn(rank, sp)
		return
	}
	p := job.AddProcess(node, nil)
	world.AddReplica(rank, p, idx)
	s.gidRank[p.GID()] = rank
	s.gidIdx[p.GID()] = idx
	sp.proc = p
	s.RespawnLog[sp.log].Live = true
	s.RespawnLog[sp.log].LiveAt = s.cluster.Now()
	if p := s.cluster.Probe(); p.On(trace.CatSpawn) {
		rs := &s.RespawnLog[sp.log]
		p.Emit(trace.Span{Cat: trace.CatSpawn,
			Rank: int32(rank), Replica: int32(idx), Job: p.JobOf(job),
			Start: int64(rs.StartedAt), Dur: int64(rs.Duration()), Aux: int64(node)})
	}
	s.closeDegraded(rank, idx)
}

// abortRespawn records that a spawn never went live (teardown beat it, or
// the rank finished first) and frees the rank's spare slot.
func (s *Supervisor) abortRespawn(rank int, sp *spare) {
	s.RespawnLog[sp.log].Aborted = true
	if s.spares[rank] == sp {
		delete(s.spares, rank)
	}
	if p := s.cluster.Probe(); p.On(trace.CatSpawn) {
		rs := &s.RespawnLog[sp.log]
		// Level 1 marks an aborted spawn; the span covers schedule-to-abort.
		p.Emit(trace.Span{Cat: trace.CatSpawn,
			Rank: int32(rank), Replica: int32(rs.Replica), Job: p.JobOf(s.CurrentJob()),
			Start: int64(rs.StartedAt), Dur: int64(s.cluster.Now() - rs.StartedAt),
			Level: 1, Aux: int64(rs.Node)})
	}
}

// AbsorbFailure is consulted at the instant a process failure is about to
// destroy an executing replica (the fault injector's Redirect hook; tests
// call it directly before Die). It returns true when a live hot spare
// absorbed the failure: the spare — a lockstep clone of the victim — takes
// over the victim's work, so the caller must NOT terminate the process.
// Mechanically the takeover is an identity swap: the executing process
// carries on as the promoted spare while the spare's virtual membership is
// retired in the victim's place, which is observationally equivalent
// because the two are byte-identical twins. The takeover costs one
// detection+election quiesce, exactly like any other failover, and
// schedules a fresh respawn to refill the slot that was consumed.
func (s *Supervisor) AbsorbFailure(r *mpi.Rank, world *mpi.Comm) bool {
	job := r.Job()
	if !s.cfg.HotSpare || !s.Live(job) {
		return false
	}
	rank := r.Rank(world)
	if rank < 0 {
		return false
	}
	sp := s.spares[rank]
	if sp == nil || sp.proc == nil || sp.proc.Failed() {
		return false // no spare, or still inside the respawn window
	}
	if !s.cluster.Node(s.RespawnLog[sp.log].Node).Alive() {
		// The spare's node died since it went live, taking the cloned
		// state with it (no simulated process existed to die with the
		// node): retire the spare and let the failure take its course.
		job.MarkFailed(sp.proc.GID())
		world.PruneReplica(sp.proc.GID())
		delete(s.spares, rank)
		return false
	}
	// With another executing twin alive the normal failover path is
	// cheaper and keeps the spare in reserve; only the last executor
	// needs the swap.
	executing := 0
	for _, m := range world.ReplicaGroup(rank) {
		if p := m.SimProc(); !m.Failed() && p != nil && !p.Exited() {
			executing++
		}
	}
	if executing > 1 {
		return false
	}
	victim := r.Process()
	idx := s.gidIdx[victim.GID()]
	now := r.Now()
	// Under the launcher preset the daemons pay FailoverDetect to notice
	// the death; an in-band detector would take its observation timeout.
	// (The swap never kills a simulated process, so the detect subsystem
	// does not see this failure; the latency is charged here instead.)
	detected := now + s.cfg.FailoverDetect
	if s.dcfg.Kind != detect.Launcher {
		detected = now + s.dcfg.DetectTimeout
	}
	completed := detected + s.cfg.ElectionDelay
	s.Recoveries = append(s.Recoveries, mpi.Recovery{
		Kind: int(Failover), Rank: rank, Replica: idx,
		FailedAt: now, CompletedAt: completed,
	})
	spareProc := sp.proc
	spareNode := s.RespawnLog[sp.log].Node
	delete(s.spares, rank)
	job.MarkFailed(spareProc.GID())
	// The executor carries on as the promoted spare, so it takes over the
	// spare's stable slot; the victim's slot (idx) is the empty one the
	// refill below fills. Without the swap the group would end up with two
	// members in one slot and a vanished index that schedule events could
	// never hit again.
	spareIdx := s.gidIdx[spareProc.GID()]
	s.gidIdx[victim.GID()] = spareIdx
	world.SetReplicaIndex(victim.GID(), spareIdx)
	if p := s.cluster.Probe(); p.On(trace.CatAbsorb) {
		p.Emit(trace.Span{Cat: trace.CatAbsorb,
			Rank: int32(rank), Replica: int32(idx), Job: p.JobOf(job),
			Start: int64(now), Aux: int64(victim.GID())})
	}
	// The refill goes to the spare's node, free again (the promoted twin
	// executes on the victim's node — links between distinct nodes are
	// identical, so the swap is timing-neutral).
	s.commitFailover(job, world, rank, idx, spareProc.GID(), spareNode, now, completed, false)
	return true
}

// fallback is the checkpoint-only path: no copy of the rank's state
// survives, so replication has nothing left to offer — tear the job down
// and redeploy it; FTI then restores the last committed checkpoint.
func (s *Supervisor) fallback(job *mpi.Job, rank int, f detect.Failure) {
	s.Relaunch(job, func(abortedAt, delay simnet.Time) {
		s.Recoveries = append(s.Recoveries, mpi.Recovery{
			Kind: int(Relaunch), Rank: rank,
			// The launcher acts the moment it knows: at confirmation for an
			// in-band detector, DetectDelay after the death otherwise.
			FailedAt: f.FailedAt, CompletedAt: abortedAt + delay,
		})
		if p := s.cluster.Probe(); p.On(trace.CatFallback) {
			p.Emit(trace.Span{Cat: trace.CatFallback,
				Rank: int32(rank), Job: p.JobOf(job),
				Start: int64(abortedAt), Aux: int64(f.GID)})
		}
	})
}

// String summarizes the supervisor state (diagnostics).
func (s *Supervisor) String() string {
	return fmt.Sprintf("replica: %d ranks (%d replicated, %d procs), %d failovers, %d relaunches",
		s.layout.Procs, s.layout.Replicated(), s.layout.Total, s.Failovers(), s.Relaunches())
}
