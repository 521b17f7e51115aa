package fti

import (
	"bytes"
	"math/rand"
	"testing"

	"match/internal/enc"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/storage"
)

// snapshotOracle is the Snapshot() each protect.go type had when an object
// encoded itself into a fresh slice, kept as the oracle for AppendSnapshot.
// F64s and I64s returned enc.Float64sToBytes/Int64sToBytes, written out
// here one value at a time.
func snapshotOracle(p Protected) []byte {
	switch v := p.(type) {
	case F64s:
		out := make([]byte, 0, 8*len(*v.P))
		for _, x := range *v.P {
			out = enc.AppendFloat64(out, x)
		}
		return out
	case I64s:
		out := make([]byte, 0, 8*len(*v.P))
		for _, x := range *v.P {
			out = enc.AppendInt64(out, x)
		}
		return out
	case Ints:
		out := make([]byte, 0, 8*len(*v.P))
		for _, x := range *v.P {
			out = enc.AppendInt64(out, int64(x))
		}
		return out
	case Int:
		return enc.AppendInt64(nil, int64(*v.P))
	case I64:
		return enc.AppendInt64(nil, *v.P)
	case F64:
		return enc.AppendFloat64(nil, *v.P)
	case Bytes:
		return append([]byte(nil), *v.P...)
	}
	panic("snapshotOracle: unknown Protected")
}

// protectAll returns one object of each protect.go type holding random
// values; each slice has up to max elements and is empty one time in four.
func protectAll(rng *rand.Rand, max int) []Protected {
	n := func() int {
		if rng.Intn(4) == 0 {
			return 0
		}
		return 1 + rng.Intn(max)
	}
	fs := make([]float64, n())
	for i := range fs {
		fs[i] = rng.NormFloat64() * 1e6
	}
	is := make([]int64, n())
	for i := range is {
		is[i] = rng.Int63() - rng.Int63()
	}
	ints := make([]int, n())
	for i := range ints {
		ints[i] = rng.Int() - rng.Int()
	}
	bs := make([]byte, n())
	rng.Read(bs)
	iv, i64, fv := rng.Int()-rng.Int(), rng.Int63()-rng.Int63(), rng.NormFloat64()
	return []Protected{F64s{&fs}, I64s{&is}, Ints{&ints}, Int{&iv}, I64{&i64}, F64{&fv}, Bytes{&bs}}
}

// AppendSnapshot appends, after any prefix, exactly the oracle's bytes
// (SnapshotLen of them), leaving the prefix alone whether or not it has
// spare capacity.
func TestAppendSnapshotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 50; trial++ {
		for _, obj := range protectAll(rng, 40) {
			want := snapshotOracle(obj)
			if obj.SnapshotLen() != len(want) {
				t.Fatalf("%T: SnapshotLen %d, oracle %d bytes", obj, obj.SnapshotLen(), len(want))
			}
			prefix := make([]byte, rng.Intn(12), 12+rng.Intn(2*len(want)+1))
			rng.Read(prefix)
			kept := append([]byte(nil), prefix...)
			got := obj.AppendSnapshot(prefix)
			if !bytes.Equal(got, append(kept, want...)) {
				t.Fatalf("%T: AppendSnapshot after %d prefix bytes is not prefix + oracle", obj, len(kept))
			}
			if got := obj.AppendSnapshot(nil); !bytes.Equal(got, want) {
				t.Fatalf("%T: AppendSnapshot(nil) differs from the oracle", obj)
			}
		}
	}
}

// ProtectedBytes is the payload less its headers (the object count, then
// an id and a length per object), summed from SnapshotLen without
// encoding anything.
func TestProtectedBytesIsPayloadLessHeaders(t *testing.T) {
	harness(t, 1, func(r *mpi.Rank, st *storage.System) {
		f, err := Init(Config{ExecID: "pbytes"}, r, r.Job().World(), st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		objs := protectAll(rand.New(rand.NewSource(2)), 500)
		for id, obj := range objs {
			f.Protect(id, obj)
		}
		payload, err := f.serialize()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f.ProtectedBytes(), int64(len(payload)-8-16*len(objs)); got != want {
			t.Errorf("ProtectedBytes %d, payload less headers %d", got, want)
		}
		if n := testing.AllocsPerRun(50, func() { f.ProtectedBytes() }); n != 0 {
			t.Errorf("ProtectedBytes allocates %v times, want 0", n)
		}
	})
}

// liar promises 8 bytes and appends 8+extra.
type liar struct{ extra int }

func (l liar) SnapshotLen() int               { return 8 }
func (l liar) AppendSnapshot(b []byte) []byte { return append(b, make([]byte, 8+l.extra)...) }
func (l liar) Restore([]byte)                 {}

// An object that appends other than its SnapshotLen bytes fails the
// checkpoint before anything is stored, too many bytes or too few.
func TestLyingSnapshotLenFailsCheckpoint(t *testing.T) {
	for _, extra := range []int{1, -3} {
		harness(t, 2, func(r *mpi.Rank, st *storage.System) {
			w := r.Job().World()
			f, err := Init(Config{Level: L2, ExecID: "liar"}, r, w, st)
			if err != nil {
				t.Errorf("init: %v", err)
				return
			}
			x := 5
			f.Protect(0, Int{&x})
			f.Protect(1, liar{extra})
			if err := f.CheckpointAt(1, L3); err == nil {
				t.Errorf("rank %d: a SnapshotLen off by %d did not fail the checkpoint", r.Rank(w), extra)
			}
			for node := 0; node < 4; node++ {
				if files := st.List(storage.RAMFS, node, "fti/liar/"); len(files) != 0 {
					t.Errorf("rank %d: failed checkpoint left %v on node %d", r.Rank(w), files, node)
				}
			}
			if files := st.List(storage.PFS, 0, "fti/liar/r"); len(files) != 0 {
				t.Errorf("rank %d: failed checkpoint left %v on the PFS", r.Rank(w), files)
			}
			if f.LatestCheckpoint() != -1 || f.Stats.CkptBytes != 0 {
				t.Errorf("rank %d: failed checkpoint committed %d, booked %d bytes", r.Rank(w), f.LatestCheckpoint(), f.Stats.CkptBytes)
			}
		})
	}
}

// scribble changes every protected value in place, as the application's
// next iterations do.
func scribble(fs []float64, bs []byte) {
	for i := range fs {
		fs[i] = -fs[i] - 1
	}
	for i := range bs {
		bs[i] ^= 0xff
	}
}

// A stored checkpoint shares no memory with the application at any level:
// writing into the protected slices after CheckpointAt does not change
// what Recover restores, and writing into the restored objects does not
// change what a second Recover restores. The last case loses node 0, so
// ranks 0 and 1 restore through L3's reconstruction and re-store the
// rebuilt payload.
func TestCheckpointIsolatedFromApp(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		level    Level
		loseNode bool
	}{
		{"L1", Config{Level: L1}, 0, false},
		{"L2", Config{Level: L2}, 0, false},
		{"L3", Config{Level: L3, GroupSize: 4}, 0, false},
		{"L4", Config{Level: L4}, 0, false},
		// L2 is the base level that mirrors restart metadata off node 0.
		{"L3-node-loss", Config{Level: L2, GroupSize: 4}, L3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := simnet.NewCluster(simnet.Config{Nodes: 4})
			st := storage.New(c, storage.Config{})
			cfg := tc.cfg
			cfg.ExecID = "iso-" + tc.name
			placement := []int{0, 0, 1, 1, 2, 2, 3, 3}
			j := placed(c, placement, func(r *mpi.Rank) {
				w := r.Job().World()
				me := r.Rank(w)
				f, err := Init(cfg, r, w, st)
				if err != nil {
					t.Errorf("init: %v", err)
					return
				}
				fs, bs := l3State(me)
				f.Protect(0, F64s{&fs})
				f.Protect(1, Bytes{&bs})
				if err := f.CheckpointAt(3, tc.level); err != nil {
					t.Errorf("rank %d ckpt: %v", me, err)
				}
				scribble(fs, bs)
			})
			c.Run()
			exitedClean(t, j)
			if tc.loseNode {
				c.FailNode(0)
				placement = []int{1, 1, 1, 1, 2, 2, 3, 3}
			}
			j = placed(c, placement, func(r *mpi.Rank) {
				w := r.Job().World()
				me := r.Rank(w)
				f, err := Init(cfg, r, w, st)
				if err != nil {
					t.Errorf("rank %d re-init: %v", me, err)
					return
				}
				var fs []float64
				var bs []byte
				f.Protect(0, F64s{&fs})
				f.Protect(1, Bytes{&bs})
				for pass := 0; pass < 2; pass++ {
					if err := f.Recover(); err != nil {
						t.Errorf("rank %d recover %d: %v", me, pass, err)
						return
					}
					checkL3State(t, me, fs, bs)
					scribble(fs, bs)
				}
			})
			c.Run()
			exitedClean(t, j)
		})
	}
}
