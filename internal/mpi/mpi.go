// Package mpi implements a simulated MPI runtime over the simnet cluster:
// jobs, communicators, point-to-point messaging with tag/source matching,
// binomial-tree collectives, process spawning, and the failure semantics
// (MPIX-style error classes, revocation, failure detection state) that the
// ULFM and Reinit recovery frameworks build on.
//
// The simulation follows MPI semantics where they matter for fault
// tolerance research: sends are eager and non-blocking (buffered by the
// runtime), receives block until a matching message arrives, message order
// is non-overtaking per (sender, receiver, communicator), and an operation
// involving a failed process raises ErrProcFailed only once the failure has
// been *detected* — before detection, the operation simply hangs, exactly
// the behavior that makes MPI fault tolerance hard.
package mpi

import (
	"errors"
	"fmt"

	"match/internal/simnet"
)

// Error classes mirroring MPI/ULFM error codes.
var (
	// ErrProcFailed corresponds to MPIX_ERR_PROC_FAILED: a process involved
	// in the operation has failed and the failure has been detected.
	ErrProcFailed = errors.New("mpi: process failed (MPIX_ERR_PROC_FAILED)")
	// ErrRevoked corresponds to MPIX_ERR_REVOKED: the communicator has been
	// revoked by MPIX_Comm_revoke.
	ErrRevoked = errors.New("mpi: communicator revoked (MPIX_ERR_REVOKED)")
	// ErrAborted is returned when the job has been aborted (MPI_Abort).
	ErrAborted = errors.New("mpi: job aborted")
	// ErrRankExited is an internal error: a receive waits on a peer whose
	// main returned, with or without an error, and sent nothing more.
	// Usually indicates a protocol bug.
	ErrRankExited = errors.New("mpi: peer rank exited")
)

// AnySource matches any sender in Recv, like MPI_ANY_SOURCE.
const AnySource = -1

// AnyTag matches any tag in Recv, like MPI_ANY_TAG.
const AnyTag = -1 << 30

// Process is one MPI process: the runtime-level entity addressable by
// communicators. A Process is distinct from simnet.Proc so that spawned
// replacements (ULFM non-shrinking recovery) and restarted ranks get fresh
// identities while the underlying node model persists.
type Process struct {
	gid   int // unique within the Job, never reused
	node  int
	job   *Job
	proc  *simnet.Proc
	state procState

	mbox    []Message // delivered, unmatched messages (values: no per-message allocation)
	blocked bool      // parked inside a messaging wait
	peers   []peer    // by gid; grown on demand (see peer)

	collSeq map[int]int // comm ctx -> collective sequence number

	// Replica-layer sequencing (see replica.go): sendSeq numbers every
	// logical message this process emits per (comm, logical dst); recvSeq is
	// the next sequence number this process will accept per (comm, logical
	// src). Duplicate copies carrying an already-accepted sequence number
	// are suppressed at delivery.
	sendSeq map[int64]int64
	recvSeq map[int64]int64

	// stolen accumulates runtime-interference time (e.g. the ULFM failure
	// detector's periodic agreement) to be charged at the next MPI call.
	stolen simnet.Time
}

// peer is what a process keeps about one other process of its job: how
// many messages that process sent it are still on the wire, and when its
// own last message to that process arrives (MPI's non-overtaking order).
type peer struct {
	inflight int
	lastArr  simnet.Time
}

// peerOf returns p's entry for the process with gid g. Gids are dense and
// never reused, so the table is a slice by gid, grown to the job's size
// when a process added after it was last sized (a ULFM spawn, a respawned
// replica) first shows up.
func (p *Process) peerOf(g int) *peer {
	if g >= len(p.peers) {
		p.peers = append(p.peers, make([]peer, max(len(p.job.procs), g+1)-len(p.peers))...)
	}
	return &p.peers[g]
}

// procState is how a process stands. Job.Start, Rank.Die and Job.MarkFailed
// are its only writers; everything else reads it.
type procState uint8

const (
	notStarted procState = iota // added but never started: a virtual hot spare
	running                     // Job.Start called, main has not returned
	completed                   // main returned nil
	errored                     // main returned an error (Job.Errs)
	failed                      // killed, died, or marked failed
)

// GID returns the process's unique id within the job.
func (p *Process) GID() int { return p.gid }

// NodeID returns the node the process runs on.
func (p *Process) NodeID() int { return p.node }

// Failed reports whether the process has failed.
func (p *Process) Failed() bool { return p.state == failed }

// Completed reports whether the process's main returned nil (Job.Start).
func (p *Process) Completed() bool { return p.state == completed }

// Running reports whether the process was started (Job.Start) and has
// neither failed nor returned from main. A process inside its start delay
// is running; a virtual hot spare, never started, is not.
func (p *Process) Running() bool { return p.state == running }

// SimProc returns the simnet process backing this MPI process (nil until
// Job.Start).
func (p *Process) SimProc() *simnet.Proc { return p.proc }

// Message is a delivered point-to-point message.
type Message struct {
	Ctx     int // communicator context id
	SrcGID  int
	SrcRank int // rank of sender in the communicator
	Tag     int
	Data    []byte
	arrival simnet.Time
	epoch   int

	// replicated marks a copy emitted by a replica-aware communicator; seq
	// is its logical sequence number within the (comm, src, dst) stream,
	// used to suppress duplicate copies at delivery.
	replicated bool
	seq        int64
}

// Stats aggregates message-layer counters for reporting.
type Stats struct {
	Messages   int64
	Bytes      int64
	Collective int64
	// Suppressed counts duplicate replica copies discarded at delivery —
	// the receiver-side half of replication's duplication/suppression
	// protocol. Suppressed copies still paid wire time.
	Suppressed int64
}

// Recovery records one completed MPI recovery — a job relaunch, a global
// restart, a world repair, a replica failover — in the one shape every
// fault-tolerance design logs and the harness accounts.
type Recovery struct {
	Rank    int // logical rank that failed; -1 when the repair found no failed member
	Replica int // replica index that died (replica design; zero elsewhere)
	Kind    int // recovery path where a design has several (replica.RecoveryKind); zero elsewhere
	Failed  int // failed members the repair replaced (ULFM; zero where not counted)

	FailedAt    simnet.Time
	CompletedAt simnet.Time // when the application's ranks run again
}

// Duration is the MPI recovery time: from the failure to the moment the
// recovered ranks are executing again.
func (r Recovery) Duration() simnet.Time { return r.CompletedAt - r.FailedAt }

// Job is a launched MPI job: a set of processes on the cluster plus its
// world communicator and failure-detection state. Communicators derived
// from another (Comm.Sub) belong to that communicator, not to the Job.
// Restart-based recovery creates a brand-new Job; Reinit bumps the Job
// epoch in place.
type Job struct {
	cluster *simnet.Cluster
	procs   []*Process // by gid; gids are dense and never reused
	nextCtx int
	world   *Comm
	epoch   int
	aborted bool
	errs    []error // what rank mains returned, in return order
	onDeath []func(*Process)

	detected map[int]bool // gid -> failure detected

	// PerOpOverhead is added to every point-to-point operation; the ULFM
	// runtime sets it to model its amended (failure-checking) interfaces.
	PerOpOverhead simnet.Time

	// DeliveryFactor inflates every message's in-flight time by the given
	// fraction. The ULFM runtime sets it to model its interposed progress
	// engine (revoke checks, failure piggybacking) on the message path;
	// the resulting application slowdown then grows with the application's
	// communication share, i.e. with scale and input size — the trend the
	// paper reports for ULFM-FTI.
	DeliveryFactor float64

	// freeDel is the free list of in-flight delivery records: one record
	// rides the scheduler per physical copy on the wire and is recycled as
	// soon as the copy is delivered (or dropped), so the steady-state
	// message path allocates nothing per send.
	freeDel []*delivery

	Stats Stats
}

// NewJob creates an empty job on the cluster.
func NewJob(c *simnet.Cluster) *Job {
	return &Job{
		cluster:  c,
		detected: make(map[int]bool),
	}
}

// Cluster returns the underlying simulated cluster.
func (j *Job) Cluster() *simnet.Cluster { return j.cluster }

// Epoch returns the current job epoch (bumped by Reinit resets).
func (j *Job) Epoch() int { return j.epoch }

// Aborted reports whether MPI_Abort has been called.
func (j *Job) Aborted() bool { return j.aborted }

// Errs returns the errors rank mains returned, in return order (Job.Start).
func (j *Job) Errs() []error { return j.errs }

// OnDeath registers f to hear of every death of a process the job started
// — a kill (the loss of its node, Job.Abort), also one before the process
// started, or Rank.Die — right after Start marks it failed. Hooks run in
// scheduler context, in the order they were registered.
func (j *Job) OnDeath(f func(*Process)) { j.onDeath = append(j.onDeath, f) }

// AddProcess registers a new MPI process on the given node, or on the
// cluster's LiveNode for it when that node is dead: every design creates
// its processes here, so none starts one on a lost node. Job.Start runs it.
func (j *Job) AddProcess(node int) *Process {
	p := &Process{
		gid:     len(j.procs),
		node:    j.cluster.LiveNode(node),
		job:     j,
		collSeq: make(map[int]int),
		sendSeq: make(map[int64]int64),
		recvSeq: make(map[int64]int64),
	}
	j.procs = append(j.procs, p)
	return p
}

// NewComm builds a communicator over the given processes; member order
// defines ranks.
func (j *Job) NewComm(members []*Process) *Comm {
	c := &Comm{job: j, ctx: j.nextCtx, members: append([]*Process(nil), members...)}
	j.nextCtx++
	c.rankOf = make(map[int]int, len(members))
	for i, m := range members {
		c.rankOf[m.gid] = i
	}
	return c
}

// World returns the world communicator of the job.
func (j *Job) World() *Comm { return j.world }

// SetWorld installs the world communicator (used at launch and after
// recovery rebuilds it).
func (j *Job) SetWorld(c *Comm) { j.world = c }

// MarkFailed records a process failure (fail-stop). Detection is separate:
// operations keep hanging until MarkDetected is called by a failure
// detector.
func (j *Job) MarkFailed(gid int) {
	if p := j.proc(gid); p != nil {
		p.state = failed
	}
}

// proc returns the process with the given gid, or nil for an unknown gid.
func (j *Job) proc(gid int) *Process {
	if uint(gid) < uint(len(j.procs)) {
		return j.procs[gid]
	}
	return nil
}

// MarkDetected records that the failure of gid is now globally known and
// wakes every blocked process so pending operations can fail with
// ErrProcFailed.
func (j *Job) MarkDetected(gid int) {
	if j.detected[gid] {
		return
	}
	j.detected[gid] = true
	j.wakeAllBlocked()
}

// Detected reports whether gid's failure has been detected.
func (j *Job) Detected(gid int) bool { return j.detected[gid] }

// wakeAllBlocked wakes every process parked in a messaging wait so it can
// re-check revocation/failure conditions.
func (j *Job) wakeAllBlocked() {
	now := j.cluster.Now()
	for _, p := range j.procs {
		if p.state == running && p.blocked {
			p.proc.Unblock(now)
		}
	}
}

// Abort kills every process in the job (MPI_Abort). Safe to call from rank
// context: the kills are delivered via a scheduler event at the current
// virtual time, once the caller has yielded. A rank calling Abort should
// not expect to survive past its next yield point.
func (j *Job) Abort() {
	if j.aborted {
		return
	}
	j.aborted = true
	j.cluster.Scheduler().After(0, func() {
		for _, p := range j.procs {
			if p.state == running {
				p.proc.Kill()
			}
		}
	})
}

// BumpEpoch invalidates all in-flight messages and clears mailboxes:
// Reinit's global reset uses this to flush communication state. Mailbox
// capacity is retained for reuse across incarnations; the flushed entries
// are zeroed so their payloads can be collected.
func (j *Job) BumpEpoch() {
	j.epoch++
	for _, p := range j.procs {
		for i := range p.mbox {
			p.mbox[i] = Message{}
		}
		p.mbox = p.mbox[:0]
	}
}

// Steal adds runtime-interference time to a process, charged at its next
// MPI call. This models background runtime activity (the ULFM detector's
// periodic agreement rounds) preempting the application.
func (j *Job) Steal(gid int, d simnet.Time) {
	if p := j.proc(gid); p != nil {
		p.stolen += d
	}
}

// Comm is a communicator: an ordered process group plus a matching context.
type Comm struct {
	job     *Job
	ctx     int
	members []*Process
	rankOf  map[int]int
	revoked bool
	repl    *replicaInfo     // non-nil for replica-aware communicators
	subs    map[[2]int]*Comm // derived communicators by [lo, hi) (Sub)
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.members) }

// Ctx returns the matching context id (unique per communicator).
func (c *Comm) Ctx() int { return c.ctx }

// Member returns the process at the given rank.
func (c *Comm) Member(rank int) *Process { return c.members[rank] }

// Leaders returns the process at every rank, in rank order (do not
// mutate). On a replica-aware communicator that is each group's current
// leader only; ReplicaGroup holds the whole group. On a plain
// communicator it is every member.
func (c *Comm) Leaders() []*Process { return c.members }

// RankOf returns the rank of process gid, or -1 if not a member.
func (c *Comm) RankOf(gid int) int {
	if r, ok := c.rankOf[gid]; ok {
		return r
	}
	return -1
}

// Revoked reports whether the communicator has been revoked.
func (c *Comm) Revoked() bool { return c.revoked }

// Revoke marks the communicator revoked and interrupts all pending
// communication on it (the semantics of MPIX_Comm_revoke; the propagation
// cost is charged by the ulfm package, which owns the protocol).
// Revoking c revokes every communicator derived from it.
func (c *Comm) Revoke() {
	if c.revoked {
		return
	}
	c.revoke()
	c.job.wakeAllBlocked()
}

// revoke marks c and everything derived from it revoked.
func (c *Comm) revoke() {
	c.revoked = true
	for _, s := range c.subs {
		s.revoke()
	}
}

// Sub returns the communicator of c's ranks [lo, hi), rank lo becoming
// rank 0: the group an SPMD library derives for a subset of ranks without
// a central coordinator. It is made on the first call and memoized on c,
// so every member calling Sub(lo, hi) shares one Comm with one matching
// context. The child is a view of c, not a copy:
//   - its members and replica groups are c's, so PruneReplica and
//     PromoteLeader on c show in the child as they happen, and AddReplica
//     on c maps the new process in the child too;
//   - revoking c revokes the child, and a child derived from a revoked c
//     starts revoked;
//   - it lives as long as c: a rebuilt communicator derives new children.
func (c *Comm) Sub(lo, hi int) *Comm {
	key := [2]int{lo, hi}
	if s, ok := c.subs[key]; ok {
		return s
	}
	s := &Comm{job: c.job, ctx: c.job.nextCtx, members: c.members[lo:hi:hi],
		rankOf: make(map[int]int, hi-lo), revoked: c.revoked}
	c.job.nextCtx++
	for gid, r := range c.rankOf {
		if lo <= r && r < hi {
			s.rankOf[gid] = r - lo
		}
	}
	if c.repl != nil {
		s.repl = &replicaInfo{groups: c.repl.groups[lo:hi:hi], idx: c.repl.idx}
	}
	if c.subs == nil {
		c.subs = make(map[[2]int]*Comm)
	}
	c.subs[key] = s
	return s
}

// FailedMembers returns the ranks of members whose processes have failed.
func (c *Comm) FailedMembers() []int {
	var out []int
	for i, m := range c.members {
		if m.state == failed {
			out = append(out, i)
		}
	}
	return out
}

// AliveMembers returns the processes that have not failed, in rank order.
func (c *Comm) AliveMembers() []*Process {
	var out []*Process
	for _, m := range c.members {
		if m.state != failed {
			out = append(out, m)
		}
	}
	return out
}

// Rank is the handle rank code uses for all MPI operations. It binds a
// Process to its simnet execution context.
type Rank struct {
	job  *Job
	proc *Process
	sp   *simnet.Proc
}

// Job returns the owning job.
func (r *Rank) Job() *Job { return r.job }

// Process returns the underlying MPI process.
func (r *Rank) Process() *Process { return r.proc }

// Sim returns the simnet process (for Compute, Now, etc.).
func (r *Rank) Sim() *simnet.Proc { return r.sp }

// Now returns the current virtual time.
func (r *Rank) Now() simnet.Time { return r.sp.Now() }

// Compute charges d of virtual CPU time.
func (r *Rank) Compute(d simnet.Time) { r.sp.Compute(d) }

// Rank returns this process's rank in comm (-1 if not a member).
func (r *Rank) Rank(c *Comm) int { return c.RankOf(r.proc.gid) }

// Size returns comm's size.
func (r *Rank) Size(c *Comm) int { return c.Size() }

// Die makes the calling rank fail-stop immediately (fault injection).
func (r *Rank) Die() {
	r.proc.state = failed
	r.sp.Die()
}

// chargeOverheads applies the per-op overhead plus any stolen runtime time.
func (r *Rank) chargeOverheads() {
	d := r.job.PerOpOverhead + r.proc.stolen
	r.proc.stolen = 0
	if d > 0 {
		r.sp.Compute(d)
	}
}

// opError checks for conditions that must fail an operation on comm.
func (r *Rank) opError(c *Comm) error {
	if r.job.aborted {
		return ErrAborted
	}
	if c.revoked {
		return ErrRevoked
	}
	return nil
}

// String implements fmt.Stringer for diagnostics.
func (r *Rank) String() string {
	return fmt.Sprintf("rank(gid=%d,node=%d)", r.proc.gid, r.proc.node)
}

// BlockPlacement returns the node of each of n ranks on a cluster of nodes
// nodes: contiguous blocks, as mpirun --map-by node:block places them.
func BlockPlacement(n, nodes int) []int {
	placement := make([]int, n)
	for i := range placement {
		placement[i] = i * nodes / n
	}
	return placement
}

// Launch starts an n-process MPI job on the cluster with BlockPlacement.
// The main function runs once per rank, and a rank whose main returns has
// completed. Launch returns the Job; the caller then runs the cluster's
// scheduler.
func Launch(c *simnet.Cluster, n int, startDelay simnet.Time, main func(*Rank)) *Job {
	return LaunchPlaced(c, BlockPlacement(n, c.NumNodes()), startDelay, func(r *Rank) error {
		main(r)
		return nil
	})
}

// LaunchPlaced starts a job with an explicit rank-to-node placement whose
// rank mains report how they ended (see Job.Start).
func LaunchPlaced(c *simnet.Cluster, nodes []int, startDelay simnet.Time, main func(*Rank) error) *Job {
	j := NewJob(c)
	members := make([]*Process, len(nodes))
	for i, node := range nodes {
		members[i] = j.AddProcess(node)
	}
	j.SetWorld(j.NewComm(members))
	for _, p := range members {
		j.Start(p, startDelay, main)
	}
	return j
}

// Start runs main as process p on p's node, delay after the current
// virtual time. It is the one way a rank starts, at launch and on every
// relaunch or respawn, and the one place that decides how it ended: p is
// running from this call on, until main returns nil (p completed), returns
// an error (p errored, the error appended to Job.Errs), or its simnet
// process is killed, by fault injection or the loss of its node, before or
// after it started (p failed), and then reported to the job's OnDeath
// hooks. A main that panics ends no process: the panic fails the whole
// simulation. p's simnet process is recorded before main runs, so runtime
// components can signal it.
func (j *Job) Start(p *Process, delay simnet.Time, main func(*Rank) error) {
	p.state = running
	sp := j.cluster.StartProc(p.node, delay, func(sp *simnet.Proc) {
		if err := main(&Rank{job: j, proc: p, sp: sp}); err != nil {
			j.errs = append(j.errs, err)
			p.state = errored
		} else {
			p.state = completed
		}
	})
	p.proc = sp
	sp.OnExit(func(*simnet.Proc) {
		if p.state == running { // main never returned: killed
			p.state = failed
		}
		if p.state == failed { // killed, or Rank.Die
			for _, f := range j.onDeath {
				f(p)
			}
		}
	})
}
