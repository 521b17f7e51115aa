package fti

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"match/internal/enc"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/storage"
)

// harness runs an n-rank job where each rank executes body with a ready
// storage system.
func harness(t *testing.T, n int, body func(r *mpi.Rank, st *storage.System)) {
	t.Helper()
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	j := mpi.Launch(c, n, 0, func(r *mpi.Rank) { body(r, st) })
	c.Run()
	exitedClean(t, j)
}

// placed launches body on the given rank-to-node placement. The body
// reports its failures through t, so a rank whose body returns completed.
func placed(c *simnet.Cluster, nodes []int, body func(*mpi.Rank)) *mpi.Job {
	return mpi.LaunchPlaced(c, nodes, 0, func(r *mpi.Rank) error {
		body(r)
		return nil
	})
}

// exitedClean fails t for every rank of j whose body did not complete: a
// killed rank, or one left blocked when the run drained. (A rank that
// panics panics the run itself.)
func exitedClean(t *testing.T, j *mpi.Job) {
	t.Helper()
	for i, p := range j.World().Leaders() {
		if !p.Completed() {
			t.Errorf("rank %d did not complete (failed %v)", i, p.Failed())
		}
	}
}

func TestProtectHelpersRoundTrip(t *testing.T) {
	fs := []float64{1.5, -2.25, 3e30}
	is := []int64{-1, 2, 1 << 60}
	ints := []int{4, -5}
	iv := 42
	fv := 2.75
	bs := []byte{9, 8, 7}

	objs := []Protected{
		F64s{&fs}, I64s{&is}, Ints{&ints}, Int{&iv}, F64{&fv}, Bytes{&bs},
	}
	snaps := make([][]byte, len(objs))
	for i, o := range objs {
		snaps[i] = o.AppendSnapshot(nil)
	}
	fs[0], is[0], ints[0], iv, fv, bs[0] = 0, 0, 0, 0, 0, 0
	for i, o := range objs {
		o.Restore(snaps[i])
	}
	if fs[0] != 1.5 || is[0] != -1 || ints[0] != 4 || iv != 42 || fv != 2.75 || bs[0] != 9 {
		t.Fatalf("restore mismatch: %v %v %v %v %v %v", fs, is, ints, iv, fv, bs)
	}
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	for _, level := range []Level{L1, L2, L3, L4} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			results := make([][]float64, 4)
			harness(t, 4, func(r *mpi.Rank, st *storage.System) {
				w := r.Job().World()
				me := r.Rank(w)
				cfg := Config{Level: level, ExecID: "rt-" + level.String(), GroupSize: 2}
				f, err := Init(cfg, r, w, st)
				if err != nil {
					t.Errorf("init: %v", err)
					return
				}
				data := []float64{float64(me), float64(me) * 10}
				iter := 7
				f.Protect(0, F64s{&data})
				f.Protect(1, Int{&iter})
				if f.Status() != StatusFresh {
					t.Errorf("fresh run has status %v", f.Status())
				}
				if err := f.Checkpoint(7); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				// Clobber state, then recover.
				data = nil
				iter = -1
				f2, err := Init(cfg, r, w, st)
				if err != nil {
					t.Errorf("re-init: %v", err)
					return
				}
				f2.Protect(0, F64s{&data})
				f2.Protect(1, Int{&iter})
				if f2.Status() != StatusRestart {
					t.Errorf("status after ckpt = %v, want restart", f2.Status())
				}
				if err := f2.Recover(); err != nil {
					t.Errorf("recover: %v", err)
					return
				}
				if iter != 7 {
					t.Errorf("iter = %d, want 7", iter)
				}
				results[me] = data
			})
			for me, d := range results {
				if len(d) != 2 || d[0] != float64(me) || d[1] != float64(me)*10 {
					t.Fatalf("rank %d recovered %v", me, d)
				}
			}
		})
	}
}

func TestRecoverWithoutCheckpointFails(t *testing.T) {
	harness(t, 2, func(r *mpi.Rank, st *storage.System) {
		w := r.Job().World()
		f, err := Init(Config{ExecID: "none"}, r, w, st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		if err := f.Recover(); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("recover = %v, want ErrNoCheckpoint", err)
		}
	})
}

func TestOldCheckpointGarbageCollected(t *testing.T) {
	harness(t, 2, func(r *mpi.Rank, st *storage.System) {
		w := r.Job().World()
		f, _ := Init(Config{ExecID: "gc"}, r, w, st)
		x := 1
		f.Protect(0, Int{&x})
		f.Checkpoint(10)
		p10 := f.ckptPath(10)
		f.Checkpoint(20)
		if st.Exists(storage.RAMFS, r.Process().NodeID(), p10) {
			t.Error("checkpoint 10 not garbage-collected")
		}
		if !st.Exists(storage.RAMFS, r.Process().NodeID(), f.ckptPath(20)) {
			t.Error("checkpoint 20 missing")
		}
		if f.LatestCheckpoint() != 20 {
			t.Errorf("latest = %d", f.LatestCheckpoint())
		}
	})
}

// L1 checkpoints must survive a process failure (files live on the node),
// which is exactly what the paper's process-failure experiments rely on.
func TestL1SurvivesProcessButNotNodeFailure(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	st := storage.New(c, storage.Config{})
	var ckptNode int
	j := mpi.Launch(c, 2, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, _ := Init(Config{ExecID: "surv"}, r, w, st)
		x := r.Rank(w)
		f.Protect(0, Int{&x})
		f.Checkpoint(1)
		if r.Rank(w) == 0 {
			ckptNode = r.Process().NodeID()
		}
	})
	c.Run()
	_ = j
	path := "fti/surv/r00000/ckpt1"
	if !st.Exists(storage.RAMFS, ckptNode, path) {
		t.Fatal("checkpoint missing after process exit")
	}
	c.FailNode(ckptNode)
	if st.Exists(storage.RAMFS, ckptNode, path) {
		t.Fatal("RAMFS checkpoint readable on a dead node")
	}
}

// L2 recovery must work when the original node is down, via the partner.
func TestL2RecoversFromPartnerAfterNodeFailure(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	// Phase 1: write checkpoints.
	j1 := mpi.Launch(c, 4, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, _ := Init(Config{Level: L2, ExecID: "l2nf"}, r, w, st)
		x := 100 + r.Rank(w)
		f.Protect(0, Int{&x})
		if err := f.Checkpoint(5); err != nil {
			t.Errorf("ckpt: %v", err)
		}
	})
	c.Run()
	_ = j1
	// Node 0 dies (hosting rank 0). Relaunch the job with rank 0 relocated
	// to node 1: recovery must find rank 0's state via the partner copy.
	c.FailNode(0)
	recovered := make([]int, 4)
	j2 := placed(c, []int{1, 1, 2, 3}, func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		f, err := Init(Config{Level: L2, ExecID: "l2nf"}, r, w, st)
		if err != nil {
			t.Errorf("rank %d re-init: %v", me, err)
			return
		}
		if f.Status() != StatusRestart {
			t.Errorf("rank %d status %v, want restart", me, f.Status())
			return
		}
		x := -1
		f.Protect(0, Int{&x})
		if err := f.Recover(); err != nil {
			t.Errorf("rank %d recover: %v", me, err)
			return
		}
		recovered[me] = x
	})
	_ = j2
	c.Run()
	for me, x := range recovered {
		if x != 100+me {
			t.Fatalf("rank %d recovered %d, want %d", me, x, 100+me)
		}
	}
}

// L3: erase the local checkpoints of half of each group; Reed-Solomon
// reconstruction must restore them through the group exchange.
func TestL3ReconstructsLostShard(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	var paths []string
	var nodes []int
	phase := 0
	body := func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		cfg := Config{Level: L3, ExecID: "l3", GroupSize: 4}
		f, err := Init(cfg, r, w, st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		data := []float64{float64(me) * 1.5, 99}
		f.Protect(0, F64s{&data})
		if phase == 0 {
			if err := f.Checkpoint(3); err != nil {
				t.Errorf("ckpt: %v", err)
			}
			if me < 2 { // record what to erase: ranks 0 and 1's local copies
				paths = append(paths, f.ckptPath(3))
				nodes = append(nodes, r.Process().NodeID())
			}
			return
		}
		// phase 1: recover
		data = nil
		if f.Status() != StatusRestart {
			t.Errorf("rank %d status %v", me, f.Status())
			return
		}
		if err := f.Recover(); err != nil {
			t.Errorf("rank %d recover: %v", me, err)
			return
		}
		if len(data) != 2 || data[0] != float64(me)*1.5 {
			t.Errorf("rank %d recovered %v", me, data)
		}
	}
	j := mpi.Launch(c, 4, 0, body)
	c.Run()
	_ = j
	// Erase two of the four data shards (half the group).
	for i, p := range paths {
		st.Delete(storage.RAMFS, nodes[i], p)
	}
	phase = 1
	j2 := mpi.Launch(c, 4, 0, body)
	c.Run()
	_ = j2
}

// L4 differential checkpointing: an unchanged payload skips its PFS
// transfer. The byte scale makes that transfer large beside the fixed
// per-operation latencies, so the saving is observable at the fixed costs.
func TestL4DifferentialCheaper(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2, BytesScale: 2000})
	st := storage.New(c, storage.Config{})
	j := mpi.Launch(c, 1, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		cfg := Config{Level: L4, ExecID: "l4diff"}
		f, _ := Init(cfg, r, w, st)
		data := make([]float64, 1<<17) // 1 MiB, charged as 2000 MiB
		for i := range data {
			data[i] = float64(i)
		}
		// The payload's PFS transfer time: a write of its size less a write
		// of nothing (the per-operation latency).
		pfsWrite := func(n int) simnet.Time {
			t0 := r.Now()
			st.Write(r.Sim(), storage.PFS, 0, "probe", make([]byte, n))
			return r.Now() - t0
		}
		xfer := pfsWrite(8*len(data)) - pfsWrite(0)
		f.Protect(0, F64s{&data})
		t0 := r.Now()
		f.Checkpoint(1)
		full := r.Now() - t0
		t1 := r.Now()
		f.Checkpoint(2) // nothing changed
		diff := r.Now() - t1
		if saved := full - diff; saved < xfer*9/10 {
			t.Errorf("differential ckpt %v saved %v of full ckpt %v, want >= 90%% of the %v PFS transfer", diff, saved, full, xfer)
		}
		// Change one block: cost should sit between.
		data[0] = -1
		t2 := r.Now()
		f.Checkpoint(3)
		one := r.Now() - t2
		if one <= diff || one >= full {
			t.Errorf("one-block ckpt %v, want between %v and %v", one, diff, full)
		}
		// And recovery restores the latest content.
		data = nil
		f2, _ := Init(cfg, r, w, st)
		f2.Protect(0, F64s{&data})
		if err := f2.Recover(); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if data[0] != -1 || data[1] != 1 {
			t.Errorf("recovered data wrong: %v...", data[:2])
		}
	})
	_ = j
	c.Run()
}

func TestCheckpointTimeGrowsWithData(t *testing.T) {
	harness(t, 2, func(r *mpi.Rank, st *storage.System) {
		w := r.Job().World()
		f, _ := Init(Config{ExecID: "scale"}, r, w, st)
		small := make([]float64, 1024)
		f.Protect(0, F64s{&small})
		t0 := r.Now()
		f.Checkpoint(1)
		smallT := r.Now() - t0
		big := make([]float64, 1024*256)
		f.Protect(0, F64s{&big})
		t1 := r.Now()
		f.Checkpoint(2)
		bigT := r.Now() - t1
		if bigT <= smallT {
			t.Errorf("big ckpt %v not slower than small %v", bigT, smallT)
		}
		if f.Stats.CkptCount != 2 || f.Stats.CkptTime <= 0 {
			t.Errorf("stats not recorded: %+v", f.Stats)
		}
	})
}

// Property: serialize/deserialize round-trips arbitrary protected payloads
// bit-exactly, for any number of objects.
func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nobj := 1 + rng.Intn(5)
		ok := true
		harnessQ(nobj, rng, &ok)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func harnessQ(nobj int, rng *rand.Rand, ok *bool) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	st := storage.New(c, storage.Config{})
	vals := make([][]float64, nobj)
	for i := range vals {
		vals[i] = make([]float64, rng.Intn(100))
		for j := range vals[i] {
			vals[i][j] = rng.NormFloat64()
		}
	}
	j := mpi.Launch(c, 1, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, err := Init(Config{ExecID: "prop"}, r, w, st)
		if err != nil {
			*ok = false
			return
		}
		work := make([][]float64, nobj)
		for i := range vals {
			work[i] = append([]float64(nil), vals[i]...)
			f.Protect(i, F64s{&work[i]})
		}
		if f.Checkpoint(1) != nil {
			*ok = false
			return
		}
		for i := range work {
			work[i] = nil
		}
		if f.Recover() != nil {
			*ok = false
			return
		}
		for i := range vals {
			if len(work[i]) != len(vals[i]) {
				*ok = false
				return
			}
			for jx := range vals[i] {
				if work[i][jx] != vals[i][jx] {
					*ok = false
					return
				}
			}
		}
	})
	_ = j
	c.Run()
}

// TestCheckpointAtLevelOverride pins the placement subsystem's FTI hook:
// individual checkpoints can be escalated past the configured level, the
// committed (id, level) metadata round-trips through a re-init, recovery
// restores from the override's tier, and the per-level stats split the
// checkpoint counts accordingly.
func TestCheckpointAtLevelOverride(t *testing.T) {
	harness(t, 2, func(r *mpi.Rank, st *storage.System) {
		w := r.Job().World()
		cfg := Config{Level: L1, ExecID: "override"}
		f, err := Init(cfg, r, w, st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		v := 1
		f.Protect(0, Int{&v})
		if err := f.Checkpoint(1); err != nil { // plain L1
			t.Errorf("ckpt 1: %v", err)
			return
		}
		v = 2
		if err := f.CheckpointAt(2, L4); err != nil { // escalated to the PFS
			t.Errorf("ckpt 2: %v", err)
			return
		}
		if f.Stats.CkptCountAt[L1] != 1 || f.Stats.CkptCountAt[L4] != 1 {
			t.Errorf("per-level counts = %v", f.Stats.CkptCountAt)
		}
		if f.Stats.CkptBytesAt[L1] == 0 || f.Stats.CkptBytesAt[L4] == 0 {
			t.Errorf("per-level bytes = %v", f.Stats.CkptBytesAt)
		}
		// The L4 payload must really live on the PFS, and the superseded L1
		// file must have been garbage-collected at its own tier.
		if !st.Exists(storage.PFS, r.Process().NodeID(), f.ckptPath(2)) {
			t.Error("escalated checkpoint not on the PFS")
		}
		if st.Exists(storage.RAMFS, r.Process().NodeID(), f.ckptPath(1)) {
			t.Error("old L1 checkpoint not garbage-collected")
		}
		// A re-init agrees on (id=2, level=L4) and recovers from the PFS —
		// even though the configured level is L1.
		v = -1
		f2, err := Init(cfg, r, w, st)
		if err != nil {
			t.Errorf("re-init: %v", err)
			return
		}
		f2.Protect(0, Int{&v})
		if f2.Status() != StatusRestart || f2.LatestCheckpoint() != 2 {
			t.Errorf("status %v latest %d, want restart of 2", f2.Status(), f2.LatestCheckpoint())
		}
		if err := f2.Recover(); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if v != 2 {
			t.Errorf("recovered v = %d, want 2", v)
		}
		if err := f2.CheckpointAt(3, 0); err != nil { // 0 keeps the configured level
			t.Errorf("ckpt 3: %v", err)
			return
		}
		if f2.Stats.CkptCountAt[L1] != 1 {
			t.Errorf("zero override did not use the configured level: %v", f2.Stats.CkptCountAt)
		}
		if err := f2.CheckpointAt(4, Level(9)); err == nil {
			t.Error("CheckpointAt accepted level 9")
		}
	})
}

// TestMetaPackRoundTrip pins the packed metadata encoding: same 8 bytes as
// the id-only format (so metadata I/O time is unchanged) with the id in
// the high bits (so the init agreement's OpMin still orders by id).
func TestMetaPackRoundTrip(t *testing.T) {
	for _, c := range []struct {
		id    int64
		level Level
	}{{0, L1}, {7, L2}, {12345, L4}, {1 << 40, L3}} {
		id, level := unpackMeta(packMeta(c.id, c.level))
		if id != c.id || level != c.level {
			t.Fatalf("pack(%d,%v) round-tripped to (%d,%v)", c.id, c.level, id, level)
		}
	}
	if packMeta(3, L4) >= packMeta(4, L1) {
		t.Fatal("packing broke id ordering under OpMin")
	}
}

// TestL2PartnerMetaStaysFreshAcrossEscalation is the regression pin for
// escalated commits under an L2 configuration: a checkpoint escalated to
// L4 must still refresh the partner-node metadata mirror, or a node
// failure would make partner-side recovery resurrect the previous —
// garbage-collected — checkpoint id and fail.
func TestL2PartnerMetaStaysFreshAcrossEscalation(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	j1 := mpi.Launch(c, 4, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, _ := Init(Config{Level: L2, ExecID: "l2esc"}, r, w, st)
		x := 0
		f.Protect(0, Int{&x})
		x = 100 + r.Rank(w)
		if err := f.Checkpoint(5); err != nil { // base L2 commit
			t.Errorf("ckpt 5: %v", err)
		}
		x = 200 + r.Rank(w)
		if err := f.CheckpointAt(6, L4); err != nil { // escalated commit
			t.Errorf("ckpt 6: %v", err)
		}
	})
	c.Run()
	_ = j1
	// Rank 0's node dies; the relocated rank must agree on (6, L4) via the
	// partner metadata mirror and restore checkpoint 6 from the PFS — not
	// drag every rank back to the garbage-collected id 5.
	c.FailNode(0)
	recovered := make([]int, 4)
	j2 := placed(c, []int{1, 1, 2, 3}, func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		f, err := Init(Config{Level: L2, ExecID: "l2esc"}, r, w, st)
		if err != nil {
			t.Errorf("rank %d re-init: %v", me, err)
			return
		}
		if f.LatestCheckpoint() != 6 {
			t.Errorf("rank %d agreed on checkpoint %d, want 6", me, f.LatestCheckpoint())
			return
		}
		x := -1
		f.Protect(0, Int{&x})
		if err := f.Recover(); err != nil {
			t.Errorf("rank %d recover: %v", me, err)
			return
		}
		recovered[me] = x
	})
	_ = j2
	c.Run()
	for me, x := range recovered {
		if x != 200+me {
			t.Fatalf("rank %d recovered %d, want %d", me, x, 200+me)
		}
	}
}

// TestL4EscalationSurvivesNodeFailure pins the PFS metadata mirror: an
// L4-escalated commit under a node-local base level must stay reachable
// after the node dies (the README's "periodic durable copies" claim), and
// a later node-local commit must retire the mirror so a node failure can
// never resurrect the garbage-collected L4 id.
func TestL4EscalationSurvivesNodeFailure(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	j1 := mpi.Launch(c, 4, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, _ := Init(Config{Level: L1, ExecID: "l4esc"}, r, w, st)
		x := 0
		f.Protect(0, Int{&x})
		x = 100 + r.Rank(w)
		if err := f.Checkpoint(5); err != nil {
			t.Errorf("ckpt 5: %v", err)
		}
		x = 200 + r.Rank(w)
		if err := f.CheckpointAt(6, L4); err != nil { // durable escalation
			t.Errorf("ckpt 6: %v", err)
		}
	})
	c.Run()
	_ = j1
	c.FailNode(0) // rank 0's RAMFS metadata and L1 files are gone
	recovered := make([]int, 4)
	j2 := placed(c, []int{1, 1, 2, 3}, func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		f, err := Init(Config{Level: L1, ExecID: "l4esc"}, r, w, st)
		if err != nil {
			t.Errorf("rank %d re-init: %v", me, err)
			return
		}
		if f.LatestCheckpoint() != 6 {
			t.Errorf("rank %d agreed on checkpoint %d, want 6 (PFS metadata mirror)", me, f.LatestCheckpoint())
			return
		}
		x := -1
		f.Protect(0, Int{&x})
		if err := f.Recover(); err != nil {
			t.Errorf("rank %d recover: %v", me, err)
			return
		}
		recovered[me] = x
	})
	_ = j2
	c.Run()
	for me, x := range recovered {
		if x != 200+me {
			t.Fatalf("rank %d recovered %d, want %d", me, x, 200+me)
		}
	}
	// Retirement: a node-local commit after the escalation deletes the
	// mirror, so a node failure reports "no checkpoint" (-1) instead of
	// resurrecting the garbage-collected id 6.
	c2 := simnet.NewCluster(simnet.Config{Nodes: 4})
	st2 := storage.New(c2, storage.Config{})
	j3 := mpi.Launch(c2, 4, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, _ := Init(Config{Level: L1, ExecID: "l4ret"}, r, w, st2)
		x := 0
		f.Protect(0, Int{&x})
		if err := f.CheckpointAt(6, L4); err != nil {
			t.Errorf("ckpt 6: %v", err)
		}
		if err := f.Checkpoint(7); err != nil { // back to L1; 6 is gc'd
			t.Errorf("ckpt 7: %v", err)
		}
	})
	c2.Run()
	_ = j3
	c2.FailNode(0)
	j4 := placed(c2, []int{1, 1, 2, 3}, func(r *mpi.Rank) {
		w := r.Job().World()
		f, err := Init(Config{Level: L1, ExecID: "l4ret"}, r, w, st2)
		if err != nil {
			t.Errorf("re-init: %v", err)
			return
		}
		if f.Status() != StatusFresh {
			t.Errorf("rank %d resurrected checkpoint %d from a retired mirror", r.Rank(w), f.LatestCheckpoint())
		}
	})
	_ = j4
	c2.Run()
}

// TestL2EscalationSurvivesNodeFailureUnderL1Base pins the partner-node
// metadata mirror for escalations: an L2-escalated commit under an L1
// base configuration must be recoverable via its partner copy after the
// node dies, and a later L1 commit must retire the partner mirror so it
// cannot resurrect the garbage-collected L2 id.
func TestL2EscalationSurvivesNodeFailureUnderL1Base(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	j1 := mpi.Launch(c, 4, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, _ := Init(Config{Level: L1, ExecID: "l2u1"}, r, w, st)
		x := 0
		f.Protect(0, Int{&x})
		x = 100 + r.Rank(w)
		if err := f.Checkpoint(5); err != nil {
			t.Errorf("ckpt 5: %v", err)
		}
		x = 200 + r.Rank(w)
		if err := f.CheckpointAt(6, L2); err != nil { // partner-protected
			t.Errorf("ckpt 6: %v", err)
		}
	})
	c.Run()
	_ = j1
	c.FailNode(0)
	recovered := make([]int, 4)
	j2 := placed(c, []int{1, 1, 2, 3}, func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		f, err := Init(Config{Level: L1, ExecID: "l2u1"}, r, w, st)
		if err != nil {
			t.Errorf("rank %d re-init: %v", me, err)
			return
		}
		if f.LatestCheckpoint() != 6 {
			t.Errorf("rank %d agreed on checkpoint %d, want 6 (partner metadata mirror)", me, f.LatestCheckpoint())
			return
		}
		x := -1
		f.Protect(0, Int{&x})
		if err := f.Recover(); err != nil {
			t.Errorf("rank %d recover: %v", me, err)
			return
		}
		recovered[me] = x
	})
	_ = j2
	c.Run()
	for me, x := range recovered {
		if x != 200+me {
			t.Fatalf("rank %d recovered %d, want %d", me, x, 200+me)
		}
	}
	// Retirement: an L1 commit after the escalation deletes the partner
	// mirror; a node failure then reports no checkpoint instead of the
	// garbage-collected id 6.
	c2 := simnet.NewCluster(simnet.Config{Nodes: 4})
	st2 := storage.New(c2, storage.Config{})
	j3 := mpi.Launch(c2, 4, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, _ := Init(Config{Level: L1, ExecID: "l2ret"}, r, w, st2)
		x := 0
		f.Protect(0, Int{&x})
		if err := f.CheckpointAt(6, L2); err != nil {
			t.Errorf("ckpt 6: %v", err)
		}
		if err := f.Checkpoint(7); err != nil {
			t.Errorf("ckpt 7: %v", err)
		}
	})
	c2.Run()
	_ = j3
	c2.FailNode(0)
	j4 := placed(c2, []int{1, 1, 2, 3}, func(r *mpi.Rank) {
		w := r.Job().World()
		f, err := Init(Config{Level: L1, ExecID: "l2ret"}, r, w, st2)
		if err != nil {
			t.Errorf("re-init: %v", err)
			return
		}
		if f.Status() != StatusFresh {
			t.Errorf("rank %d resurrected checkpoint %d from a retired partner mirror", r.Rank(w), f.LatestCheckpoint())
		}
	})
	_ = j4
	c2.Run()
}

// A node holding stale metadata — a dead replica's last commit, with the
// rest of the job long past it — must not drag the init agreement down to
// a checkpoint id the other ranks have garbage-collected. The split commit
// front is detected and the job restarts fresh instead of failing on a
// gc'd checkpoint.
func TestInitRejectsStaleMetadataBehindCommitFront(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	// Phase 1: two ranks on nodes 0,1 commit ckpt 1 then ckpt 2 (gc'ing 1).
	j1 := mpi.Launch(c, 2, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, _ := Init(Config{ExecID: "stale"}, r, w, st)
		x := r.Rank(w)
		f.Protect(0, Int{&x})
		if err := f.Checkpoint(1); err != nil {
			t.Errorf("ckpt 1: %v", err)
		}
		if err := f.Checkpoint(2); err != nil {
			t.Errorf("ckpt 2: %v", err)
		}
	})
	c.Run()
	_ = j1
	// Plant a stale epoch on node 2: metadata (and payload) for ckpt 1,
	// as a replica that died before the ckpt-2 commit would leave behind.
	stale := enc.AppendInt64(nil, packMeta(1, L1))
	if err := st.WriteFree(storage.RAMFS, 2, "fti/stale/r00000/meta", stale); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFree(storage.RAMFS, 2, "fti/stale/r00000/ckpt1", []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Phase 2: rank 0 relaunches on the stale node. Without the front
	// check the agreement picks ckpt 1, which node 1 has gc'd — and rank 1
	// dies inside Recover. With it, both ranks agree the front is split
	// and restart fresh.
	j2 := placed(c, []int{2, 1}, func(r *mpi.Rank) {
		w := r.Job().World()
		f, err := Init(Config{ExecID: "stale"}, r, w, st)
		if err != nil {
			t.Errorf("rank %d re-init: %v", r.Rank(w), err)
			return
		}
		if f.Status() != StatusFresh {
			t.Errorf("rank %d status %v, want fresh (no common restorable checkpoint)", r.Rank(w), f.Status())
		}
	})
	_ = j2
	c.Run()
}
