// Package fti reimplements the Fault Tolerance Interface (FTI,
// Bautista-Gomez et al., SC'11): application-level, multi-level
// checkpointing with the API the paper's Figure 1 uses —
// Init / Protect / Status / Checkpoint / Recover / Finalize.
//
// Levels:
//
//	L1  node-local RAMFS (/dev/shm), the mode the paper benchmarks
//	L2  L1 plus a copy on a partner node
//	L3  Reed–Solomon erasure encoding across a group of ranks
//	L4  flush to the parallel file system, with differential writes
//
// A checkpoint is committed by a small collective (all ranks agree the
// checkpoint id is complete) before metadata is updated — the collective
// the paper observes making L1 checkpoint time grow modestly with scale.
//
// A checkpoint's bytes are made once: every protected object appends its
// encoding straight into the one payload, and the storage tiers keep that
// slice as the file. Nothing here writes to a slice it handed to storage
// until gc has deleted every file holding it and a later commit has
// passed (CheckpointAt then gives it to the next serialize), and nothing
// modifies a slice storage returns; Restore copies out of it.
package fti

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"match/internal/enc"
	"match/internal/mpi"
	"match/internal/obs"
	"match/internal/rs"
	"match/internal/simnet"
	"match/internal/storage"
	"match/internal/trace"
)

// Level selects the checkpointing level.
type Level int

// Checkpoint levels, mirroring FTI.
const (
	L1 Level = 1 + iota
	L2
	L3
	L4
)

func (l Level) String() string { return fmt.Sprintf("L%d", int(l)) }

// Status reports whether the execution is fresh or a restart, like
// FTI_Status() in Figure 1 of the paper.
type Status int

const (
	// StatusFresh means no committed checkpoint exists: first execution.
	StatusFresh Status = 0
	// StatusRestart means a committed checkpoint exists and Recover will
	// restore it.
	StatusRestart Status = 1
)

// Config configures an FTI instance.
type Config struct {
	// Level is the checkpointing level (default L1, as in the paper).
	Level Level
	// ExecID identifies the logical execution across job restarts; FTI
	// metadata and checkpoint files are keyed by it.
	ExecID string
	// GroupSize is the L3 erasure-coding group size (default 4).
	GroupSize int
}

// The FTI cost model, fixed like the machine underneath it.
const (
	// blockSize is the L4 differential-checkpointing block size.
	blockSize = 64 << 10
	// serializeBWBps models in-memory serialization speed.
	serializeBWBps = 8e9
	// ckptOverhead is the fixed per-checkpoint cost besides raw data
	// movement: FTI's integrity checksums, metadata files, directory
	// management, and buffered-I/O copies (matching the per-checkpoint
	// costs visible in the paper's breakdowns).
	ckptOverhead = 100 * simnet.Millisecond
)

func (c *Config) fillDefaults() {
	if c.Level == 0 {
		c.Level = L1
	}
	if c.GroupSize == 0 {
		c.GroupSize = 4
	}
}

// Protected is a checkpointable data object, registered with Protect.
// AppendSnapshot appends the current value's encoding to b, exactly
// SnapshotLen bytes of it, so a checkpoint is encoded once, straight into
// its payload. Restore overwrites the value from such an encoding; b
// belongs to the checkpoint store, so Restore copies what it keeps and
// never retains or modifies b.
type Protected interface {
	SnapshotLen() int
	AppendSnapshot(b []byte) []byte
	Restore(b []byte)
}

// Stats aggregates per-rank FTI timing, consumed by the harness for the
// paper's "Write Checkpoints" breakdown component.
type Stats struct {
	CkptTime  simnet.Time // total time inside Checkpoint
	CkptCount int
	CkptBytes int64
	// CkptCountAt / CkptBytesAt split CkptCount/CkptBytes by the level each
	// checkpoint was actually written at (index by Level; slot 0 unused) —
	// the multi-level placement policies write different checkpoints at
	// different levels within one run.
	CkptCountAt [5]int
	CkptBytesAt [5]int64
	RecoverTime simnet.Time // total time inside Recover (reading + restoring)
	RecoverOps  int
}

// FTI is a per-rank checkpointing instance.
type FTI struct {
	cfg    Config
	r      *mpi.Rank
	comm   *mpi.Comm
	st     *storage.System
	rank   int
	node   int
	base   string // "fti/<ExecID>/r<rank>/", the prefix of this rank's files
	objs   []protEntry
	status Status
	latest int64 // latest committed checkpoint id, -1 if none
	// latestLevel is the level the latest committed checkpoint was written
	// at (placement policies override the configured level per checkpoint);
	// zero falls back to cfg.Level.
	latestLevel Level
	// origNodes is the rank-to-node placement of the first incarnation of
	// this ExecID, persisted to the PFS like FTI's topology metadata; L2
	// partner locations are derived from it so that recovery finds partner
	// copies even when a rank has been respawned on a different node.
	origNodes []int
	// code is the erasure code of this rank's L3 group (see l3Code).
	code  *rs.Code
	Stats Stats

	// kept is the payload of the latest checkpoint this instance committed
	// (nil after a failed checkpoint), and spare a payload gc has freed,
	// which the next serialize writes into; see CheckpointAt.
	kept, spare []byte

	// probe is the run's observer probe, captured at Init (nil when
	// observers are off), and ident the span identity of this instance:
	// rank, job, and the replica index it started as, by which the trace
	// reconciliation books a rank's checkpoints as the harness does.
	// Checkpoint/restore spans are emitted at write time, which is the
	// independent path the harness reconciles against its
	// teardown-accumulated Stats.
	probe *obs.Probe
	ident trace.Span
}

type protEntry struct {
	id  int
	obj Protected
}

// ErrNoCheckpoint is returned by Recover when no committed checkpoint
// exists.
var ErrNoCheckpoint = errors.New("fti: no committed checkpoint")

// Init creates an FTI instance bound to comm, like FTI_Init(config, comm).
// It probes storage for committed checkpoints from a previous incarnation
// of the same ExecID and agrees the restart status collectively, so every
// rank sees the same Status.
func Init(cfg Config, r *mpi.Rank, comm *mpi.Comm, st *storage.System) (*FTI, error) {
	cfg.fillDefaults()
	f := &FTI{
		cfg:    cfg,
		r:      r,
		comm:   comm,
		st:     st,
		rank:   r.Rank(comm),
		node:   r.Process().NodeID(),
		latest: -1,
	}
	f.base = fmt.Sprintf("fti/%s/r%05d/", cfg.ExecID, f.rank)
	if p := r.Job().Cluster().Probe(); p != nil {
		f.probe = p
		f.ident = trace.Span{Rank: int32(f.rank), Replica: int32(comm.ReplicaIndexOf(r.Process().GID())),
			Job: p.JobOf(r.Job())}
	}
	f.loadTopology()
	mine := f.readMeta()
	// Agree on the newest checkpoint every rank can restore. The packed
	// (id, level) metadata keeps the id in the high bits, so OpMin still
	// selects the smallest common id — and since the commit is collective,
	// every rank holding that id packed the same level with it.
	agreed, err := mpi.AllreduceI64Scalar(r, comm, mine, mpi.OpMin)
	if err != nil {
		return nil, fmt.Errorf("fti: init agreement: %w", err)
	}
	if agreed >= 0 {
		// The agreed id is only restorable when it is *every* rank's newest
		// commit: commits are collective and garbage-collect what they
		// supersede, so a rank pinned behind the commit front — stale
		// metadata left on a dead replica's node, say, after a relaunch put
		// a fresh rank there — names files its peers have already deleted.
		// One more tiny agreement verifies the front is uniform; a split
		// front means no common checkpoint survives, and the job restarts
		// fresh instead of dying on a gc'd id.
		ok := int64(0)
		if agreed == mine {
			ok = 1
		}
		uniform, err := mpi.AllreduceI64Scalar(r, comm, ok, mpi.OpMin)
		if err != nil {
			return nil, fmt.Errorf("fti: init verification: %w", err)
		}
		if uniform == 1 {
			f.latest, f.latestLevel = unpackMeta(agreed)
			f.status = StatusRestart
		}
	}
	return f, nil
}

// Checkpoint metadata packs the committed id together with the level it
// was written at into one int64 (id in the high bits so the init
// agreement's OpMin orders by id). The encoding is the same 8 bytes the
// id-only metadata occupied, so metadata I/O charges identical time.
const metaLevelBits = 8

func packMeta(id int64, level Level) int64 { return id<<metaLevelBits | int64(level) }

func unpackMeta(v int64) (int64, Level) {
	id, level := v>>metaLevelBits, Level(v&(1<<metaLevelBits-1))
	return id, level
}

// loadTopology reads (or, on the first incarnation, records) the original
// rank-to-node placement.
func (f *FTI) loadTopology() {
	topoPath := fmt.Sprintf("fti/%s/topology", f.cfg.ExecID)
	if b, err := f.st.Read(f.r.Sim(), storage.PFS, f.node, topoPath); err == nil {
		vals := enc.BytesToInt64s(b)
		f.origNodes = make([]int, len(vals))
		for i, v := range vals {
			f.origNodes[i] = int(v)
		}
		return
	}
	f.origNodes = make([]int, f.comm.Size())
	for i, m := range f.comm.Leaders() {
		f.origNodes[i] = m.NodeID()
	}
	if f.rank == 0 {
		vals := make([]int64, len(f.origNodes))
		for i, n := range f.origNodes {
			vals[i] = int64(n)
		}
		if err := f.st.Write(f.r.Sim(), storage.PFS, f.node, topoPath, enc.Int64sToBytes(vals)); err != nil {
			// PFS writes only fail if the simulation is misconfigured;
			// surface loudly rather than silently losing topology.
			panic(fmt.Sprintf("fti: writing topology: %v", err))
		}
	}
}

// Protect registers a data object for checkpointing, like FTI_Protect(id).
// Objects are serialized and restored in ascending id order. Re-registering
// an id replaces the object (which happens naturally on re-initialization
// after recovery).
func (f *FTI) Protect(id int, obj Protected) {
	for i := range f.objs {
		if f.objs[i].id == id {
			f.objs[i].obj = obj
			return
		}
	}
	f.objs = append(f.objs, protEntry{id: id, obj: obj})
	sort.Slice(f.objs, func(i, j int) bool { return f.objs[i].id < f.objs[j].id })
}

// Status reports whether this execution is a restart, like FTI_Status().
func (f *FTI) Status() Status { return f.status }

// ProtectedBytes reports the current serialized size of every registered
// data object — the rank's live protected footprint. The hot-spare runtime
// uses it as the state-transfer volume when cloning a survivor onto a
// freshly spawned replica.
func (f *FTI) ProtectedBytes() int64 {
	var n int64
	for _, e := range f.objs {
		n += int64(e.obj.SnapshotLen())
	}
	return n
}

// LatestCheckpoint returns the id of the newest committed checkpoint, or -1.
func (f *FTI) LatestCheckpoint() int64 { return f.latest }

// idPath is base + name + the decimal id, built with one allocation: the
// string itself.
func (f *FTI) idPath(name string, id int64) string {
	var buf [128]byte
	b := append(append(buf[:0], f.base...), name...)
	return string(strconv.AppendInt(b, id, 10))
}

func (f *FTI) ckptPath(id int64) string    { return f.idPath("ckpt", id) }
func (f *FTI) partnerPath(id int64) string { return f.idPath("partner-ckpt", id) }
func (f *FTI) parityPath(id int64) string  { return f.idPath("parity", id) }
func (f *FTI) metaPath() string            { return f.base + "meta" }
func (f *FTI) hashPath() string            { return f.base + "blockhashes" }

// tier returns the storage tier checkpoint payloads live in for a level.
func tier(level Level) storage.Tier {
	if level == L4 {
		return storage.PFS
	}
	return storage.RAMFS
}

// committedLevel is the level of the latest committed checkpoint.
func (f *FTI) committedLevel() Level {
	if f.latestLevel != 0 {
		return f.latestLevel
	}
	return f.cfg.Level
}

// partnerNode returns the node holding this rank's L2 partner copies: the
// original node of the next rank (in communicator order) living on a
// different original node that is still alive, so a single node failure
// never destroys both copies and a lost node is never written to again.
// Derived from the persisted topology, so a restarted or respawned rank
// finds its copies regardless of where it now runs.
func (f *FTI) partnerNode() int {
	cl := f.r.Job().Cluster()
	size := len(f.origNodes)
	mine := f.origNodes[f.rank]
	for k := 1; k < size; k++ {
		cand := f.origNodes[(f.rank+k)%size]
		if cand != mine && cl.Node(cand).Alive() {
			return cand
		}
	}
	return f.node // single-node job: no real protection possible
}

// readMeta returns the packed (id, level) metadata recorded for this rank,
// or -1. When the local copy is unavailable (e.g. the node rebooted) it
// consults the partner-node mirror an L2 commit leaves behind, then the
// PFS mirror of an L4-escalated commit. Probing a missing path charges no
// time, so fresh starts are unaffected.
func (f *FTI) readMeta() int64 {
	sp := f.r.Sim()
	if b, err := f.st.Read(sp, tier(f.cfg.Level), f.node, f.metaPath()); err == nil && len(b) == 8 {
		return enc.Int64(b)
	}
	if b, err := f.st.ReadRemote(sp, storage.RAMFS, f.partnerNode(), f.node, "p/"+f.metaPath()); err == nil && len(b) == 8 {
		return enc.Int64(b)
	}
	if b, err := f.st.Read(sp, storage.PFS, f.node, "pfs/"+f.metaPath()); err == nil && len(b) == 8 {
		return enc.Int64(b)
	}
	return -1
}

// writeMeta commits (id, level). Besides the local record at the
// configured level's tier, commits whose payload survives this node's
// failure keep a reachable metadata mirror — on the partner node for L2,
// on the PFS for L4 — refreshed or retired on *every* commit, so a stale
// mirror can never resurrect a garbage-collected checkpoint id after a
// node failure (mirror deletes charge no time; an L2 configuration always
// refreshes its partner mirror, as it always did).
func (f *FTI) writeMeta(id int64, level Level) error {
	sp := f.r.Sim()
	b := enc.AppendInt64(nil, packMeta(id, level))
	if err := f.st.Write(sp, tier(f.cfg.Level), f.node, f.metaPath(), b); err != nil {
		return err
	}
	if tier(f.cfg.Level) != storage.PFS {
		if level == L4 {
			if err := f.st.Write(sp, storage.PFS, f.node, "pfs/"+f.metaPath(), b); err != nil {
				return err
			}
		} else {
			f.st.Delete(storage.PFS, f.node, "pfs/"+f.metaPath())
		}
	}
	if level == L2 || f.cfg.Level == L2 {
		return f.st.WriteRemote(sp, storage.RAMFS, f.node, f.partnerNode(), "p/"+f.metaPath(), b)
	}
	f.st.Delete(storage.RAMFS, f.partnerNode(), "p/"+f.metaPath())
	return nil
}

// scaledLen is the volume serialization time is charged for (the cluster's
// per-run byte scale, like the storage tiers underneath).
func (f *FTI) scaledLen(n int) float64 { return f.r.Job().Cluster().Config().Scaled(n) }

// serialize encodes all protected objects into one payload: sized by
// their SnapshotLen, written into the spare payload when it fits and
// otherwise allocated once, each object appended in place behind its id
// and length. The payload's capacity is its length, so nobody can append
// into a stored one. It charges the serialization CPU time, and fails without
// charging if an object appends other than its SnapshotLen bytes.
func (f *FTI) serialize() ([]byte, error) {
	n := 8
	for _, e := range f.objs {
		n += 16 + e.obj.SnapshotLen()
	}
	out := f.spare
	f.spare = nil
	if cap(out) < n {
		out = make([]byte, 0, n)
	}
	out = enc.AppendUint64(out[:0], uint64(len(f.objs)))
	for _, e := range f.objs {
		want := e.obj.SnapshotLen()
		out = enc.AppendUint64(enc.AppendUint64(out, uint64(e.id)), uint64(want))
		at := len(out)
		out = e.obj.AppendSnapshot(out)
		if got := len(out) - at; got != want {
			return nil, fmt.Errorf("fti: protected object %d appended %d bytes, its SnapshotLen is %d", e.id, got, want)
		}
	}
	f.r.Compute(simnet.Time(f.scaledLen(len(out)) / serializeBWBps * 1e9))
	return out[:n:n], nil
}

// deserialize restores all protected objects from a payload (charging the
// same CPU model as serialization).
func (f *FTI) deserialize(b []byte) error {
	f.r.Compute(simnet.Time(f.scaledLen(len(b)) / serializeBWBps * 1e9))
	n := enc.Uint64(b)
	rest := b[8:]
	byID := make(map[int]Protected, len(f.objs))
	for _, e := range f.objs {
		byID[e.id] = e.obj
	}
	for i := uint64(0); i < n; i++ {
		id := int(enc.Uint64(rest))
		rest = rest[8:]
		var payload []byte
		payload, rest = enc.NextBytes(rest)
		obj, ok := byID[id]
		if !ok {
			return fmt.Errorf("fti: checkpoint contains unprotected object id %d", id)
		}
		obj.Restore(payload)
	}
	return nil
}

// Checkpoint writes a checkpoint identified by id (the application
// typically passes its iteration number) at the configured level, like
// FTI_Checkpoint(id, level). The checkpoint becomes visible to recovery
// only after every rank's write has completed (collective commit). Older
// checkpoints are garbage-collected after the commit.
func (f *FTI) Checkpoint(id int64) error { return f.CheckpointAt(id, 0) }

// CheckpointAt is Checkpoint with a per-checkpoint level override (zero
// keeps the configured level) — the hook the multi-level placement
// policies escalate individual checkpoints through. The override is
// collective: every rank must pass the same level, which the placement
// subsystem's memoized decisions guarantee. Recovery restores from
// whatever level the newest committed checkpoint was written at. Restart-
// status metadata stays at the configured level's tier (with the L2
// partner mirror refreshed on every commit of an L2 configuration), so an
// escalated checkpoint protects its payload at the higher level while
// metadata durability still follows the configured base level.
//
// The payload of the checkpoint a commit supersedes is written into by the
// next serialize, once gc has deleted its files. That is safe because:
//   - gc(prev) deletes every file this instance wrote it to: the L1 file,
//     the L2 partner copy, the L3 one-member group's copy and the L4 PFS
//     file (a delete on a dead node is a no-op, but nodes never come back,
//     so such a file is never read again);
//   - it is handed out only after a later commit allreduce has completed
//     on this rank;
//   - every rank that received the payload by message consumed it inside
//     the same collective, before that commit: the one such rank is the L3
//     group's root in Gatherv, which copies it into the flat that every
//     member's deferred parity fill reads;
//   - Restore copies out of whatever Read returns;
//   - a rank that dies takes its FTI with it, and a new incarnation starts
//     with neither kept nor spare;
//   - only a payload this instance serialized is recycled, and only one
//     whose checkpoint committed: kept is cleared on entry and set again
//     only once this checkpoint's commit and metadata are done, so a
//     checkpoint that fails anywhere (and leaves its predecessor's files
//     undeleted) recycles nothing.
func (f *FTI) CheckpointAt(id int64, level Level) error {
	if level == 0 {
		level = f.cfg.Level
	}
	if level < L1 || level > L4 {
		return fmt.Errorf("fti: unknown level %v", level)
	}
	start := f.r.Now()
	bytes0 := f.Stats.CkptBytes
	defer func() {
		// Runs on every exit — normal return, error, and the Killed-panic
		// unwind of a rank shot mid-checkpoint — so the emitted span always
		// carries exactly the duration added to Stats.CkptTime, which is
		// what lets the trace reconcile against the Breakdown.
		dur := f.r.Now() - start
		f.Stats.CkptTime += dur
		f.Stats.CkptCount++
		f.Stats.CkptCountAt[level]++
		if f.probe.On(trace.CatCkpt) {
			s := f.ident
			s.Cat, s.Start, s.Dur = trace.CatCkpt, int64(start), int64(dur)
			s.Level, s.Aux = int32(level), f.Stats.CkptBytes-bytes0
			f.probe.Emit(s)
		}
	}()
	kept := f.kept
	f.kept = nil
	payload, err := f.serialize()
	if err != nil {
		return err
	}
	f.Stats.CkptBytes += int64(len(payload))
	f.Stats.CkptBytesAt[level] += int64(len(payload))
	f.r.Compute(ckptOverhead)

	switch level {
	case L1:
		err = f.writeL1(id, payload)
	case L2:
		err = f.writeL2(id, payload)
	case L3:
		err = f.writeL3(id, payload)
	case L4:
		err = f.writeL4(id, payload)
	}
	if err != nil {
		return err
	}
	// Commit: all ranks must have completed the same checkpoint id before
	// metadata advances; this is the collective that makes L1 checkpoint
	// cost grow modestly with scale (§V-C of the paper).
	agreed, err := mpi.AllreduceI64Scalar(f.r, f.comm, id, mpi.OpMin)
	if err != nil {
		return fmt.Errorf("fti: checkpoint commit: %w", err)
	}
	if agreed != id {
		return fmt.Errorf("fti: commit mismatch: agreed=%d id=%d", agreed, id)
	}
	prev, prevLevel := f.latest, f.committedLevel()
	f.latest, f.latestLevel = id, level
	f.status = StatusFresh // a fresh checkpoint supersedes restart state
	if err := f.writeMeta(id, level); err != nil {
		return err
	}
	if prev >= 0 && prev != id {
		f.gc(prev, prevLevel)
		f.spare = kept
	}
	f.kept = payload
	return nil
}

// gc removes the files of an old checkpoint, at the level it was written.
func (f *FTI) gc(id int64, level Level) {
	f.st.Delete(tier(level), f.node, f.ckptPath(id))
	if level == L2 {
		f.st.Delete(storage.RAMFS, f.partnerNode(), "p/"+f.partnerPath(id))
	}
	if level == L3 {
		f.st.Delete(storage.RAMFS, f.node, f.parityPath(id))
	}
}

// Recover restores all protected objects from the newest committed
// checkpoint, like FTI_Recover(). The caller must have registered the same
// protected ids as when the checkpoint was written.
func (f *FTI) Recover() error {
	start := f.r.Now()
	defer func() {
		dur := f.r.Now() - start
		f.Stats.RecoverTime += dur
		f.Stats.RecoverOps++
		if f.probe.On(trace.CatRestore) {
			s := f.ident
			s.Cat, s.Start, s.Dur = trace.CatRestore, int64(start), int64(dur)
			s.Level, s.Aux = int32(f.committedLevel()), f.latest
			f.probe.Emit(s)
		}
	}()
	if f.latest < 0 {
		return ErrNoCheckpoint
	}
	level := f.committedLevel()
	var payload []byte
	var err error
	switch level {
	case L1:
		payload, err = f.st.Read(f.r.Sim(), storage.RAMFS, f.node, f.ckptPath(f.latest))
	case L2:
		payload, err = f.readL2(f.latest)
	case L3:
		payload, err = f.readL3(f.latest)
	case L4:
		payload, err = f.st.Read(f.r.Sim(), storage.PFS, f.node, f.ckptPath(f.latest))
	}
	if err != nil {
		return fmt.Errorf("fti: recover %v ckpt %d: %w", level, f.latest, err)
	}
	if err := f.deserialize(payload); err != nil {
		return err
	}
	f.status = StatusFresh
	return nil
}

// Finalize flushes nothing (checkpoints are already durable at their level)
// and keeps files for post-mortem tooling, mirroring FTI_Finalize()'s
// behavior of leaving the last checkpoint on disk.
func (f *FTI) Finalize() error { return nil }

func hashBlocks(b []byte) []uint64 {
	n := (len(b) + blockSize - 1) / blockSize
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		end := (i + 1) * blockSize
		if end > len(b) {
			end = len(b)
		}
		h := fnv.New64a()
		h.Write(b[i*blockSize : end])
		out[i] = h.Sum64()
	}
	return out
}
