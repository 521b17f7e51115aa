package mpi

// Replica-aware communicators: the MPI-layer half of the ReplicaFTI design
// (process replication à la rMPI / FTHP-MPI, with partial replication in
// the style of PartRePer-MPI).
//
// A replica communicator presents Size() logical ranks while each logical
// rank is backed by a *replica group* of one or more physical processes
// that all execute the same SPMD code on the same deterministic problem.
// Point-to-point semantics:
//
//   - duplication: every live replica of the sending rank transmits one
//     physical copy to every current member of the receiving group, so a
//     message survives any single replica failure without retransmission
//     or rollback;
//   - suppression: each copy carries a per-(comm, src, dst) sequence
//     number; the receiver accepts the first copy of each sequence number
//     and discards the rest at delivery (collective dedup falls out for
//     free, since collectives are built from Send/Recv).
//
// Because replicas of a rank execute identical code, they emit identical
// sequence-numbered streams; per-pair non-overtaking delivery then makes
// the accepted stream identical to a failure-free single-copy stream, no
// matter how far the replicas drift apart in virtual time or which of them
// dies. No failure detector is needed on the datapath — that is the whole
// selling point of replication, and exactly what the checkpoint/restart
// designs cannot offer.

// replicaInfo is the replica-group structure attached to a Comm. A
// derived communicator (Comm.Sub) slices its parent's groups and shares
// its idx, so a membership change made through either shows in both.
type replicaInfo struct {
	groups [][]*Process // current members per logical rank, leader first
	idx    map[int]int  // gid -> replica index at creation (stable identity)
}

// NewReplicaComm builds a communicator of len(groups) logical ranks, each
// backed by the given replica group (first member is the initial leader).
// Every physical process maps to its group's logical rank.
func (j *Job) NewReplicaComm(groups [][]*Process) *Comm {
	members := make([]*Process, len(groups))
	for i, g := range groups {
		members[i] = g[0]
	}
	c := j.NewComm(members)
	info := &replicaInfo{
		groups: make([][]*Process, len(groups)),
		idx:    make(map[int]int),
	}
	for i, g := range groups {
		info.groups[i] = append([]*Process(nil), g...)
		for k, m := range g {
			c.rankOf[m.gid] = i
			info.idx[m.gid] = k
		}
	}
	c.repl = info
	return c
}

// Replicated reports whether the communicator is replica-aware.
func (c *Comm) Replicated() bool { return c.repl != nil }

// ReplicaGroup returns the current members of logical rank's group (do not
// mutate). For a plain communicator it returns the single member.
func (c *Comm) ReplicaGroup(rank int) []*Process {
	if c.repl == nil {
		return c.members[rank : rank+1]
	}
	return c.repl.groups[rank]
}

// ReplicaDegree returns how many replicas currently back the logical rank.
func (c *Comm) ReplicaDegree(rank int) int { return len(c.ReplicaGroup(rank)) }

// ReplicaIndexOf returns the replica index of process gid within its group
// (0 for primaries and for plain communicators).
func (c *Comm) ReplicaIndexOf(gid int) int {
	if c.repl == nil {
		return 0
	}
	return c.repl.idx[gid]
}

// PruneReplica removes a (failed) process from its replica group so that
// senders stop duplicating onto it. The replica runtime calls this once a
// failover's membership update completes; until then copies to the dead
// replica still consume wire time and are dropped at delivery, modeling
// the window in which survivors do not yet know about the failure.
func (c *Comm) PruneReplica(gid int) {
	if c.repl == nil {
		return
	}
	rank, ok := c.rankOf[gid]
	if !ok {
		return
	}
	g := c.repl.groups[rank]
	for i, m := range g {
		if m.gid == gid {
			c.repl.groups[rank] = append(append([]*Process(nil), g[:i]...), g[i+1:]...)
			break
		}
	}
}

// AddReplica joins a freshly spawned process to the logical rank's replica
// group under the given stable replica index: senders start duplicating
// every copy onto it immediately. The hot-spare runtime calls this once a
// spare's state transfer completes; the spare then receives the same
// sequenced stream as its twins, which is what keeps it in lockstep.
func (c *Comm) AddReplica(rank int, p *Process, idx int) {
	if c.repl == nil {
		return
	}
	c.repl.groups[rank] = append(c.repl.groups[rank], p)
	c.repl.idx[p.gid] = idx
	c.mapRank(p.gid, rank)
}

// mapRank maps process gid to rank in c and in every communicator derived
// from c that covers rank.
func (c *Comm) mapRank(gid, rank int) {
	c.rankOf[gid] = rank
	for k, s := range c.subs {
		if k[0] <= rank && rank < k[1] {
			s.mapRank(gid, rank-k[0])
		}
	}
}

// SetReplicaIndex reassigns a member's stable replica index. The
// hot-spare runtime uses it during a takeover's identity swap: the
// executing survivor carries on in the consumed spare's slot, so the
// victim's slot is the one left empty for the next respawn to refill.
func (c *Comm) SetReplicaIndex(gid, idx int) {
	if c.repl != nil {
		c.repl.idx[gid] = idx
	}
}

// PromoteLeader points Member(rank) at the first surviving member of the
// rank's group (leader election outcome). Matching and routing are
// unaffected — only leadership-based reporting changes.
func (c *Comm) PromoteLeader(rank int) {
	if c.repl == nil {
		return
	}
	for _, m := range c.repl.groups[rank] {
		if m.state != failed {
			c.members[rank] = m
			return
		}
	}
}

// seqKey packs (communicator context, logical peer rank) into one map key
// for the replica sequence tables.
func seqKey(ctx, rank int) int64 { return int64(ctx)<<32 | int64(uint32(rank)) }

// sendReplicated is the duplication half of the replica protocol: stamp the
// logical message with the next sequence number for (comm, dst) and fan one
// physical copy out to every current member of the destination group. A
// send to the caller's own logical rank delivers only to the caller — its
// twin replicas execute the identical self-send themselves.
func (r *Rank) sendReplicated(c *Comm, dst, tag int, data []byte) error {
	key := seqKey(c.ctx, dst)
	seq := r.proc.sendSeq[key]
	r.proc.sendSeq[key] = seq + 1
	srcRank := c.RankOf(r.proc.gid)
	if dst == srcRank {
		return r.sendCopy(c, r.proc, srcRank, tag, data, true, seq)
	}
	for _, to := range c.repl.groups[dst] {
		if err := r.sendCopy(c, to, srcRank, tag, data, true, seq); err != nil {
			return err
		}
	}
	return nil
}

// replicaGroupGone classifies a silent source group for Recv. No error
// while a member runs, a virtual spare of the group lives or a copy is in
// flight: the awaited copy may still come. Once the whole group has ended,
// a group that lost a member and completed none hangs — the replica
// runtime's checkpoint fallback aborts the job and relaunches it — and
// every other group is ErrRankExited: its mains returned without sending
// (a protocol bug — fail fast like the plain path).
func (r *Rank) replicaGroupGone(c *Comm, src int) error {
	anyCompleted, anyFailed := false, false
	for _, m := range c.repl.groups[src] {
		switch m.state {
		case notStarted, running:
			return nil
		case completed:
			anyCompleted = true
		case failed:
			anyFailed = true
		}
		if r.proc.inflight[m.gid] > 0 {
			return nil
		}
	}
	if anyFailed && !anyCompleted {
		return nil
	}
	return ErrRankExited
}
