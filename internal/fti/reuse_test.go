package fti

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/storage"
)

// reuseState is rank me's protected vector at checkpoint k: a fixed length
// per rank, new values every checkpoint.
func reuseState(me, k, n int) []float64 {
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = float64(me)*1e3 + float64(k) + float64(i)/7
	}
	return fs
}

// watch is a protected object of no bytes that runs check when it is
// serialized. Protected behind the data, it sees the payload being
// written before the checkpoint commits.
type watch struct{ check func() }

func (w watch) SnapshotLen() int               { return 0 }
func (w watch) AppendSnapshot(b []byte) []byte { w.check(); return b }
func (w watch) Restore([]byte)                 {}

// storedCopies returns every file f wrote checkpoint id's payload to at
// level: the L1 file, the L2 partner copy, a one-member L3 group's second
// copy, the L4 PFS file.
func storedCopies(f *FTI, st *storage.System, id int64, level Level) (files [][]byte, err error) {
	sp, node := f.r.Sim(), f.node
	read := func(b []byte, e error) {
		files = append(files, b)
		if err == nil {
			err = e
		}
	}
	read(st.Read(sp, tier(level), node, f.ckptPath(id)))
	switch level {
	case L2:
		read(st.ReadRemote(sp, storage.RAMFS, f.partnerNode(), node, "p/"+f.partnerPath(id)))
	case L3:
		if group, _ := f.l3Group(); group.Size() == 1 {
			read(st.Read(sp, storage.RAMFS, node, f.parityPath(id)))
		}
	}
	return files, err
}

// A checkpoint writes into the payload of the checkpoint its predecessor's
// commit superseded, and into nothing else: the latest committed
// checkpoint's files hold the bytes they were committed with while the
// next payload is serialized and after it commits, and from the third
// checkpoint on each payload's backing array is the one gc freed (a fresh
// allocation fails, and so does reusing the latest's). Then a rank is
// killed and a new incarnation restores the last checkpoint's values —
// from parity, for the L3 ranks whose L1 file is deleted, which runs
// every deferred parity fill only now.
func TestPayloadReusedOnlyAfterGC(t *testing.T) {
	const ckpts, victim = 6, 1
	for _, tc := range []struct {
		name   string
		ranks  int
		cfg    Config
		levels []Level // per checkpoint; 0 is the configured level
		lose   []int   // ranks whose last L1 file is deleted before recovery
	}{
		{"L1", 4, Config{Level: L1}, nil, nil},
		{"L2", 4, Config{Level: L2}, nil, nil},
		// Ranks 0-3 form a group of 4, rank 4 is a one-member group.
		{"L3", 5, Config{Level: L3, GroupSize: 4}, nil, []int{victim, 4}},
		{"L4", 4, Config{Level: L4}, nil, nil},
		{"L1-L3-L4", 5, Config{Level: L1, GroupSize: 4}, []Level{L1, L3, L4, L1, L3, L3}, []int{victim, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := simnet.NewCluster(simnet.Config{Nodes: 4})
			st := storage.New(c, storage.Config{})
			cfg := tc.cfg
			cfg.ExecID = "reuse-" + tc.name
			levelOf := func(k int) Level {
				if tc.levels == nil {
					return cfg.Level
				}
				return tc.levels[k-1]
			}
			nodes, paths := make([]int, tc.ranks), make([]string, tc.ranks)
			j := mpi.Launch(c, tc.ranks, 0, func(r *mpi.Rank) {
				w := r.Job().World()
				me := r.Rank(w)
				nodes[me] = r.Process().NodeID()
				f, err := Init(cfg, r, w, st)
				if err != nil {
					t.Errorf("init: %v", err)
					return
				}
				var fs []float64
				var want []byte    // the latest committed payload, copied at its commit
				var arrays []*byte // each committed payload's backing array
				latest, latestLevel := int64(-1), Level(0)
				intact := func(when string) {
					if latest < 0 {
						return
					}
					files, err := storedCopies(f, st, latest, latestLevel)
					if err != nil {
						t.Errorf("rank %d %s: reading checkpoint %d: %v", me, when, latest, err)
						return
					}
					for i, b := range files {
						if !bytes.Equal(b, want) {
							t.Errorf("rank %d %s: file %d of checkpoint %d changed since its commit", me, when, i, latest)
						}
					}
				}
				f.Protect(0, F64s{&fs})
				f.Protect(1, watch{func() { intact("while serializing the next checkpoint") }})
				for k := 1; k <= ckpts; k++ {
					fs = reuseState(me, k, 64+8*me)
					id, level := int64(k), levelOf(k)
					if err := f.CheckpointAt(id, level); err != nil {
						t.Errorf("rank %d checkpoint %d: %v", me, k, err)
						return
					}
					files, err := storedCopies(f, st, id, level)
					if err != nil {
						t.Errorf("rank %d checkpoint %d: %v", me, k, err)
						return
					}
					payload := files[0]
					if len(payload) != cap(payload) {
						t.Errorf("rank %d checkpoint %d: stored payload has len %d cap %d", me, k, len(payload), cap(payload))
					}
					latest, latestLevel = id, level
					want = bytes.Clone(payload)
					intact("after its commit")
					arrays = append(arrays, unsafe.SliceData(payload))
					if k >= 3 {
						if got := arrays[k-1]; got != arrays[k-3] || got == arrays[k-2] {
							t.Errorf("rank %d checkpoint %d: payload array is not the one checkpoint %d's gc freed", me, k, k-1)
						}
					}
				}
				paths[me] = f.ckptPath(ckpts)
				if me == victim {
					r.Die()
				}
			})
			c.Run()
			for i, p := range j.World().Leaders() {
				if p.Completed() == (i == victim) || p.Failed() != (i == victim) {
					t.Errorf("rank %d: completed %v, failed %v; only the victim fails", i, p.Completed(), p.Failed())
				}
			}
			for _, me := range tc.lose {
				st.Delete(storage.RAMFS, nodes[me], paths[me])
			}
			j = mpi.Launch(c, tc.ranks, 0, func(r *mpi.Rank) {
				w := r.Job().World()
				me := r.Rank(w)
				f, err := Init(cfg, r, w, st)
				if err != nil {
					t.Errorf("rank %d re-init: %v", me, err)
					return
				}
				if f.Status() != StatusRestart || f.LatestCheckpoint() != ckpts {
					t.Errorf("rank %d status %v latest %d, want restart from %d", me, f.Status(), f.LatestCheckpoint(), ckpts)
					return
				}
				var fs []float64
				f.Protect(0, F64s{&fs})
				f.Protect(1, watch{func() {}})
				if err := f.Recover(); err != nil {
					t.Errorf("rank %d recover: %v", me, err)
					return
				}
				if want := reuseState(me, ckpts, 64+8*me); !slices.Equal(fs, want) {
					t.Errorf("rank %d restored %v, want %v", me, fs, want)
				}
				if slices.Contains(tc.lose, me) && !st.Exists(storage.RAMFS, r.Process().NodeID(), f.ckptPath(ckpts)) {
					t.Errorf("rank %d recovered without rebuilding its lost L1 file", me)
				}
			})
			c.Run()
			exitedClean(t, j)
		})
	}
}

// The warm checkpoint path allocates no payload: from the third checkpoint
// on, an L1 checkpoint of a 40 KB vector grows TotalAlloc by less than the
// payload, and every stored payload is still an exact fit.
func TestWarmCheckpointAllocatesNoPayload(t *testing.T) {
	harness(t, 1, func(r *mpi.Rank, st *storage.System) {
		f, err := Init(Config{ExecID: "warm"}, r, r.Job().World(), st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		data := make([]float64, 40<<10/8)
		f.Protect(0, F64s{&data})
		var ms runtime.MemStats
		for k := 1; k <= 8; k++ {
			data[k]++
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if err := f.CheckpointAt(int64(k), L1); err != nil {
				t.Errorf("checkpoint %d: %v", k, err)
				return
			}
			runtime.ReadMemStats(&ms)
			grew := ms.TotalAlloc - before
			payload, err := st.Read(r.Sim(), storage.RAMFS, f.node, f.ckptPath(int64(k)))
			if err != nil {
				t.Errorf("checkpoint %d: %v", k, err)
				return
			}
			if len(payload) != cap(payload) {
				t.Errorf("checkpoint %d: stored payload has len %d cap %d", k, len(payload), cap(payload))
			}
			if k >= 3 && grew >= uint64(len(payload)) {
				t.Errorf("checkpoint %d allocated %d bytes, a payload is %d", k, grew, len(payload))
			}
		}
	})
}
