package fti

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"match/internal/enc"
	"match/internal/mpi"
	"match/internal/rs"
	"match/internal/simnet"
	"match/internal/storage"
)

// l3State is rank me's protected state for the L3 tests: two objects whose
// sizes grow with the rank, so every member of an erasure group serializes
// to a different payload length and the group's shards need padding.
func l3State(me int) ([]float64, []byte) {
	fs := make([]float64, 3+5*me)
	for i := range fs {
		fs[i] = float64(me)*1e3 + float64(i)/7
	}
	bs := make([]byte, 1+3*me)
	for i := range bs {
		bs[i] = byte(31*me + i)
	}
	return fs, bs
}

// checkL3State reports whether rank me recovered l3State(me) bit for bit.
func checkL3State(t *testing.T, me int, fs []float64, bs []byte) {
	t.Helper()
	wantF, wantB := l3State(me)
	if !bytes.Equal(enc.Float64sToBytes(fs), enc.Float64sToBytes(wantF)) || !bytes.Equal(bs, wantB) {
		t.Errorf("rank %d recovered %d floats / %d bytes that differ from the checkpointed %d / %d",
			me, len(fs), len(bs), len(wantF), len(wantB))
	}
}

// l3Recover is the restart half of the L3 tests: every rank must see a
// restart, recover, hold its l3State again, and be left with a local
// checkpoint of exactly the sizes[rank] bytes it serialized — a
// reconstructed shard is un-padded before it is restored and re-stored.
func l3Recover(t *testing.T, cfg Config, st *storage.System, wantID int64, sizes []int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		f, err := Init(cfg, r, w, st)
		if err != nil {
			t.Errorf("rank %d re-init: %v", me, err)
			return
		}
		if f.Status() != StatusRestart || f.LatestCheckpoint() != wantID {
			t.Errorf("rank %d status %v latest %d, want restart from %d", me, f.Status(), f.LatestCheckpoint(), wantID)
			return
		}
		var fs []float64
		var bs []byte
		f.Protect(0, F64s{&fs})
		f.Protect(1, Bytes{&bs})
		if err := f.Recover(); err != nil {
			t.Errorf("rank %d recover: %v", me, err)
			return
		}
		checkL3State(t, me, fs, bs)
		if n := st.Size(storage.RAMFS, r.Process().NodeID(), f.ckptPath(wantID)); n != sizes[me] {
			t.Errorf("rank %d holds a %d-byte checkpoint after recovery, wrote %d", me, n, sizes[me])
		}
	}
}

// Unequal payload lengths inside one group (the rs.Pad path on the way in,
// the lens[] un-pad on the way out) with a whole node lost: node 0 hosts
// ranks 0 and 1, so their group keeps exactly k = 4 of its 8 shards — data
// 2,3 and parity 2,3. The base level is L2 because that is what mirrors the
// restart metadata off the node; the payload is protected by L3 alone.
// "older" also writes a later L3 checkpoint that the node loss keeps from
// committing, so recovery encodes checkpoint 4's parity only after the
// group has exchanged checkpoint 5's payloads — of the same sizes, so an
// exchange buffer reused for them would overwrite checkpoint 4's.
func TestL3UnequalPayloadsSurviveNodeLoss(t *testing.T) {
	for _, tc := range []struct {
		name  string
		later bool
	}{{"newest", false}, {"older", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := simnet.NewCluster(simnet.Config{Nodes: 4})
			st := storage.New(c, storage.Config{})
			cfg := Config{Level: L2, ExecID: "l3node", GroupSize: 4}
			sizes := make([]int, 8)
			mpi.Launch(c, 8, 0, func(r *mpi.Rank) {
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
				if err := f.CheckpointAt(4, L3); err != nil {
					t.Errorf("rank %d ckpt: %v", me, err)
				}
				sizes[me] = st.Size(storage.RAMFS, r.Process().NodeID(), f.ckptPath(4))
				if tc.later {
					fs[0]++
					bs[0] ^= 0xff
					if err := writeL3Uncommitted(f, 5); err != nil {
						t.Errorf("rank %d later ckpt: %v", me, err)
					}
				}
			})
			c.Run()
			for me := 1; me < 4; me++ {
				if sizes[me] == sizes[0] {
					t.Fatalf("payloads of ranks 0 and %d are both %d bytes; the test needs unequal shards", me, sizes[0])
				}
			}
			c.FailNode(0)
			j := placed(c, []int{1, 1, 1, 1, 2, 2, 3, 3}, l3Recover(t, cfg, st, 4, sizes))
			c.Run()
			exitedClean(t, j)
		})
	}
}

// writeL3Uncommitted writes checkpoint id of f's protected state at L3 —
// the group exchange and every file — but does not commit it, so the
// committed checkpoint before it keeps its files.
func writeL3Uncommitted(f *FTI, id int64) error {
	payload, err := f.serialize()
	if err != nil {
		return err
	}
	return f.writeL3(id, payload)
}

// A ragged last group: 6 ranks in groups of 4 leave a group of 2 with its
// own (2,2) code. Each group loses half its shards — ranks 1 and 2 their
// data, rank 4 its data and rank 5 its parity — and every rank recovers.
func TestL3RaggedLastGroup(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 3})
	st := storage.New(c, storage.Config{})
	cfg := Config{Level: L3, ExecID: "l3ragged", GroupSize: 4}
	type file struct {
		node int
		path string
	}
	var erase []file
	groupSizes, sizes := make([]int, 6), make([]int, 6)
	mpi.Launch(c, 6, 0, func(r *mpi.Rank) {
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
		if err := f.Checkpoint(9); err != nil {
			t.Errorf("rank %d ckpt: %v", me, err)
		}
		group, _ := f.l3Group()
		groupSizes[me] = group.Size()
		node := r.Process().NodeID()
		sizes[me] = st.Size(storage.RAMFS, node, f.ckptPath(9))
		switch me {
		case 1, 2, 4:
			erase = append(erase, file{node, f.ckptPath(9)})
		case 5:
			erase = append(erase, file{node, f.parityPath(9)})
		}
	})
	c.Run()
	if want := []int{4, 4, 4, 4, 2, 2}; !slices.Equal(groupSizes, want) {
		t.Fatalf("group sizes %v, want %v", groupSizes, want)
	}
	for _, e := range erase {
		st.Delete(storage.RAMFS, e.node, e.path)
	}
	j := mpi.Launch(c, 6, 0, l3Recover(t, cfg, st, 9, sizes))
	c.Run()
	exitedClean(t, j)
}

// slowMul multiplies in GF(2^8) mod 0x11d by shift-and-add: no tables, and
// nothing shared with internal/rs.
func slowMul(a, b byte) byte {
	var p byte
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1d
		}
	}
	return p
}

// slowParityRow is parity row i of the (g, g) Cauchy code over zero-padded
// payloads, one slowMul at a time: coefficient 1/((g+i) xor j), the inverse
// found by search.
func slowParityRow(payloads [][]byte, i, size int) []byte {
	g := len(payloads)
	row := make([]byte, size)
	for j, p := range payloads {
		x := byte(g+i) ^ byte(j)
		var coef byte
		for c := 1; c < 256; c++ {
			if slowMul(x, byte(c)) == 1 {
				coef = byte(c)
			}
		}
		for b := range p {
			row[b] ^= slowMul(coef, p[b])
		}
	}
	return row
}

// The format pin: what writeL3 leaves at parityPath(id) is, byte for byte,
// the padded size, the g payload lengths, and the length-prefixed parity
// row of this member — with the row computed here, independently of
// internal/rs. "Same bytes out" is thereby proven at the storage boundary.
// The row is encoded when the blob is first read, so the blobs are read
// late: after two later L3 checkpoints have exchanged other payloads of
// the same sizes through the same group, which a reused exchange buffer
// would have overwritten. Rank 1's longer Bytes object makes its payload
// the longest, so every other shard is padded inside the deferred encode.
func TestL3ParityBlobFormat(t *testing.T) {
	const g = 4
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	st := storage.New(c, storage.Config{})
	payloads := make([][]byte, g)
	blobs := make([][]byte, g)
	mpi.Launch(c, g, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		f, err := Init(Config{Level: L3, ExecID: "l3pin", GroupSize: g}, r, w, st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		fs, bs := l3State(me)
		if me == 1 {
			bs = append(bs, make([]byte, 100)...)
		}
		f.Protect(0, F64s{&fs})
		f.Protect(1, Bytes{&bs})
		if err := f.Checkpoint(2); err != nil {
			t.Errorf("rank %d ckpt: %v", me, err)
			return
		}
		node := r.Process().NodeID()
		payloads[me], _ = st.Read(r.Sim(), storage.RAMFS, node, f.ckptPath(2))
		for id := int64(3); id <= 4; id++ {
			fs[0]++
			bs[0] ^= byte(id)
			if err := writeL3Uncommitted(f, id); err != nil {
				t.Errorf("rank %d ckpt %d: %v", me, id, err)
				return
			}
		}
		blobs[me], _ = st.Read(r.Sim(), storage.RAMFS, node, f.parityPath(2))
	})
	c.Run()
	size := 0
	for _, p := range payloads {
		if len(p) == 0 {
			t.Fatal("a rank left no checkpoint")
		}
		if len(p) > size {
			size = len(p)
		}
	}
	if len(payloads[1]) != size || len(payloads[3]) == size {
		t.Fatalf("payload sizes %d, %d, %d, %d: rank 1's must be the only longest",
			len(payloads[0]), len(payloads[1]), len(payloads[2]), len(payloads[3]))
	}
	for me := range blobs {
		want := enc.AppendUint64(nil, uint64(size))
		for _, p := range payloads {
			want = enc.AppendUint64(want, uint64(len(p)))
		}
		want = enc.AppendBytes(want, slowParityRow(payloads, me, size))
		if !bytes.Equal(blobs[me], want) {
			t.Errorf("rank %d parity blob (%d bytes) differs from header + independently encoded row (%d bytes)",
				me, len(blobs[me]), len(want))
		}
	}
}

// writeL3 makes every check of the deferred encode before it stores
// anything: a code that does not fit the group fails the checkpoint at
// write time with rs's own error, and leaves no parity file whose encode
// could fail when it is read.
func TestL3GeometryErrorFailsTheWrite(t *testing.T) {
	const g = 4
	bad, err := rs.New(g-1, g-1)
	if err != nil {
		t.Fatal(err)
	}
	_, want := bad.EncodeRow(0, make([][]byte, g))
	if want == nil {
		t.Fatal("a (3, 3) code accepted 4 shards")
	}
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	st := storage.New(c, storage.Config{})
	j := mpi.Launch(c, g, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		f, err := Init(Config{Level: L3, ExecID: "l3geom", GroupSize: g}, r, w, st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		fs, bs := l3State(me)
		f.Protect(0, F64s{&fs})
		f.Protect(1, Bytes{&bs})
		f.code = bad
		if err := f.CheckpointAt(1, L3); err == nil || err.Error() != want.Error() {
			t.Errorf("rank %d checkpoint error %v, want %v", me, err, want)
		}
		if st.Exists(storage.RAMFS, r.Process().NodeID(), f.parityPath(1)) {
			t.Errorf("rank %d stored a parity file for a checkpoint its code cannot encode", me)
		}
	})
	c.Run()
	exitedClean(t, j)
}

// serialize allocates its output once, at its final size, and every
// protected object appends into it in place: for the protect.go types,
// one allocation beyond what charging the serialization time costs by
// itself.
func TestSerializeAllocatesOutputOnce(t *testing.T) {
	harness(t, 1, func(r *mpi.Rank, st *storage.System) {
		f, err := Init(Config{ExecID: "alloc"}, r, r.Job().World(), st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		for id, obj := range protectAll(rand.New(rand.NewSource(1)), 300) {
			f.Protect(id, obj)
		}
		charge := testing.AllocsPerRun(50, func() { r.Compute(simnet.Microsecond) })
		var out []byte
		total := testing.AllocsPerRun(50, func() {
			if out, err = f.serialize(); err != nil {
				t.Fatal(err)
			}
		})
		if total-charge != 1 {
			t.Errorf("serialize allocates %v times beyond its time charge (%v), want 1", total-charge, charge)
		}
		if len(out) != cap(out) {
			t.Errorf("serialize output has len %d cap %d, want an exact fit", len(out), cap(out))
		}
	})
}

// BenchmarkCheckpointL3 is one L3 checkpoint of 8 ranks in groups of 4,
// each protecting a 42 KB vector (HPCCG's payload at 8 ranks): serialize,
// the group exchange, one parity row, and the commit. One op is one
// checkpoint of every rank.
func BenchmarkCheckpointL3(b *testing.B) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	b.ReportAllocs()
	mpi.Launch(c, 8, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		f, err := Init(Config{Level: L3, ExecID: "bench-l3"}, r, w, st)
		if err != nil {
			b.Error(err)
			return
		}
		data := make([]float64, 42<<10/8)
		for i := range data {
			data[i] = float64(r.Rank(w)*len(data) + i)
		}
		f.Protect(0, F64s{&data})
		for i := 1; i <= b.N; i++ {
			data[i%len(data)]++
			if err := f.Checkpoint(int64(i)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	c.Run()
}

// A one-member L3 group — 5 ranks in groups of 4 leave rank 4 alone —
// stores a raw copy of its payload as its "parity". Losing the L1 file
// must restore from that copy, not parse it as a parity header.
func TestL3OneMemberGroupRecoversFromItsCopy(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 3})
	st := storage.New(c, storage.Config{})
	cfg := Config{Level: L3, ExecID: "l3solo", GroupSize: 4}
	sizes := make([]int, 5)
	var node int
	var path string
	mpi.Launch(c, 5, 0, func(r *mpi.Rank) {
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
		if err := f.Checkpoint(6); err != nil {
			t.Errorf("rank %d ckpt: %v", me, err)
		}
		sizes[me] = st.Size(storage.RAMFS, r.Process().NodeID(), f.ckptPath(6))
		if me == 4 {
			if group, _ := f.l3Group(); group.Size() != 1 {
				t.Errorf("rank 4's L3 group has %d members, want 1", group.Size())
			}
			node, path = r.Process().NodeID(), f.ckptPath(6)
		}
	})
	c.Run()
	st.Delete(storage.RAMFS, node, path)
	j := mpi.Launch(c, 5, 0, l3Recover(t, cfg, st, 6, sizes))
	c.Run()
	exitedClean(t, j)
}
