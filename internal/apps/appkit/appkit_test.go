package appkit

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"match/internal/enc"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/storage"
)

func TestFactor3DProperties(t *testing.T) {
	f := func(raw uint8) bool {
		p := int(raw)%512 + 1
		a, b, c := Factor3D(p)
		return a*b*c == p && a <= b && b <= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Cubes factor to cubes.
	for _, p := range []int{8, 27, 64, 512} {
		a, b, c := Factor3D(p)
		if a != b || b != c {
			t.Fatalf("Factor3D(%d) = %d,%d,%d, want a cube", p, a, b, c)
		}
	}
}

func TestDecompPartitionsExactly(t *testing.T) {
	// Every global cell is owned by exactly one rank.
	nx, ny, nz, size := 13, 7, 9, 12
	owned := map[[3]int]int{}
	for rank := 0; rank < size; rank++ {
		d := NewDecomp3D(rank, size, nx, ny, nz)
		if d.LX <= 0 || d.LY <= 0 || d.LZ <= 0 {
			t.Fatalf("rank %d has empty block %s", rank, d)
		}
		for z := d.OZ; z < d.OZ+d.LZ; z++ {
			for y := d.OY; y < d.OY+d.LY; y++ {
				for x := d.OX; x < d.OX+d.LX; x++ {
					owned[[3]int{x, y, z}]++
				}
			}
		}
		if d.RankAt(d.CX, d.CY, d.CZ) != rank {
			t.Fatalf("rank %d coordinate roundtrip failed", rank)
		}
	}
	if len(owned) != nx*ny*nz {
		t.Fatalf("covered %d cells, want %d", len(owned), nx*ny*nz)
	}
	for cell, n := range owned {
		if n != 1 {
			t.Fatalf("cell %v owned %d times", cell, n)
		}
	}
}

// A flat domain gets no empty blocks: Factor3D(16) is 2x2x4, which would
// stack four process layers on one z cell, so the grid becomes 4x4x1.
func TestDecompFlatDomainHasNoEmptyBlock(t *testing.T) {
	for _, size := range []int{2, 4, 16} {
		for rank := 0; rank < size; rank++ {
			d := NewDecomp3D(rank, size, 64, 64, 1)
			if d.LX <= 0 || d.LY <= 0 || d.LZ <= 0 {
				t.Fatalf("p=%d rank %d has empty block %s", size, rank, d)
			}
		}
	}
	if d := NewDecomp3D(0, 16, 64, 64, 1); d.PX != 4 || d.PY != 4 || d.PZ != 1 {
		t.Fatalf("p=16 over 64x64x1: grid %dx%dx%d, want 4x4x1", d.PX, d.PY, d.PZ)
	}
}

// Wherever Factor3D's grid leaves no block empty, it is the grid.
func TestDecompKeepsFactor3DWhenItFits(t *testing.T) {
	for size := 1; size <= 128; size++ {
		px, py, pz := Factor3D(size)
		for _, n := range [][3]int{{1, 1, 1}, {64, 64, 1}, {3, 4, 5}, {8, 8, 8}, {16, 16, 16}, {2, 9, 30}} {
			d := NewDecomp3D(0, size, n[0], n[1], n[2])
			fits := px <= n[0] && py <= n[1] && pz <= n[2]
			if fits && (d.PX != px || d.PY != py || d.PZ != pz) {
				t.Fatalf("p=%d over %v: grid %dx%dx%d, Factor3D's %dx%dx%d fits", size, n, d.PX, d.PY, d.PZ, px, py, pz)
			}
			if d.PX*d.PY*d.PZ != size {
				t.Fatalf("p=%d over %v: grid %dx%dx%d", size, n, d.PX, d.PY, d.PZ)
			}
			// Otherwise a grid that fits is taken whenever one exists.
			someFit := false
			for a := 1; a <= n[0]; a++ {
				for b := 1; b <= n[1]; b++ {
					someFit = someFit || size%(a*b) == 0 && size/(a*b) <= n[2]
				}
			}
			if someFit && (d.PX > n[0] || d.PY > n[1] || d.PZ > n[2]) {
				t.Fatalf("p=%d over %v: grid %dx%dx%d leaves a block empty", size, n, d.PX, d.PY, d.PZ)
			}
		}
	}
}

func TestNeighborWrap(t *testing.T) {
	d := NewDecomp3D(0, 8, 8, 8, 8) // 2x2x2 grid, corner rank
	if d.Neighbor(-1, 0, 0) != -1 {
		t.Fatal("non-periodic neighbor off the grid should be -1")
	}
	if d.NeighborWrap(-1, 0, 0) != d.RankAt(1, 0, 0) {
		t.Fatal("periodic wrap wrong")
	}
}

// Halo exchange must reproduce neighbor interior values in ghosts,
// including edge/corner ghosts via the three-phase scheme, and again on a
// second round after every interior changed.
func TestExchangeFillsGhostsIncludingCorners(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	st := storage.New(c, storage.Config{})
	size := 8
	gn := 8 // global 8^3 over a 2x2x2 process grid
	fail := false
	mpi.Launch(c, size, 0, func(r *mpi.Rank) {
		world := r.Job().World()
		f, _ := fti.Init(fti.Config{ExecID: "halo"}, r, world, st)
		ctx := &Context{R: r, World: world, FTI: f,
			Inject: fault.NewScheduleInjector(fault.Schedule{}), Params: Params{WorkScale: 1}}
		d := NewDecomp3D(r.Rank(world), size, gn, gn, gn)
		fld := NewField3D(d)
		for round := 0; round < 2; round++ {
			val := func(gx, gy, gz int) float64 {
				return float64(gx+100*gy+10000*gz) + 0.5*float64(round)
			}
			for z := 1; z <= d.LZ; z++ {
				for y := 1; y <= d.LY; y++ {
					for x := 1; x <= d.LX; x++ {
						fld.Set(x, y, z, val(d.OX+x-1, d.OY+y-1, d.OZ+z-1))
					}
				}
			}
			if err := fld.Exchange(ctx); err != nil {
				t.Errorf("exchange: %v", err)
				return
			}
			// Every ghost cell inside the global domain must hold the global
			// value — faces, edges, and corners alike.
			for z := 0; z <= d.LZ+1; z++ {
				for y := 0; y <= d.LY+1; y++ {
					for x := 0; x <= d.LX+1; x++ {
						gx, gy, gz := d.OX+x-1, d.OY+y-1, d.OZ+z-1
						if gx < 0 || gx >= gn || gy < 0 || gy >= gn || gz < 0 || gz >= gn {
							continue
						}
						if got := fld.At(x, y, z); got != val(gx, gy, gz) {
							fail = true
							t.Errorf("round %d rank %d ghost (%d,%d,%d) = %v, want %v",
								round, r.Rank(world), gx, gy, gz, got, val(gx, gy, gz))
							return
						}
					}
				}
			}
		}
	})
	c.Run()
	if fail {
		t.FailNow()
	}
}

func TestFieldInteriorRoundTrip(t *testing.T) {
	d := NewDecomp3D(0, 1, 3, 4, 5)
	f := NewField3D(d)
	vals := make([]float64, 3*4*5)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	f.SetInterior(vals)
	got := f.Interior()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("interior roundtrip mismatch at %d", i)
		}
	}
}

// layerIdx lists layer k of an axis through explicit nested loops, in the
// order the per-axis loop nests the plane walkers replaced used: x layers
// z-major over y, y layers z-major over x, z layers y-major over x.
func layerIdx(f *Field3D, axis, k int) (idx []int) {
	switch axis {
	case 0:
		for z := 0; z < f.SZ; z++ {
			for y := 0; y < f.SY; y++ {
				idx = append(idx, f.Idx(k, y, z))
			}
		}
	case 1:
		for z := 0; z < f.SZ; z++ {
			for x := 0; x < f.SX; x++ {
				idx = append(idx, f.Idx(x, k, z))
			}
		}
	default:
		for y := 0; y < f.SY; y++ {
			for x := 0; x < f.SX; x++ {
				idx = append(idx, f.Idx(x, y, k))
			}
		}
	}
	return idx
}

// The plane walkers visit a layer in layerIdx's order on a non-cubic
// field: encodePlane's payload is the bytes enc.Float64sToBytes makes of
// the nested-loop walk (the wire as it was before the walkers encoded in
// place), decodePlane inverts it touching only the layer, and CopyPlane
// is the nested-loop copy.
func TestPlaneMatchesNestedLoops(t *testing.T) {
	f := NewField3D(NewDecomp3D(0, 1, 3, 4, 5))
	for i := range f.V {
		f.V[i] = float64(i) + 0.25
	}
	for axis, n := range [3]int{f.SX, f.SY, f.SZ} {
		for k := 0; k < n; k++ {
			idx := layerIdx(f, axis, k)
			vals := make([]float64, len(idx))
			for i, at := range idx {
				vals[i] = f.V[at]
			}
			got := f.encodePlane(axis, k)
			if want := enc.Float64sToBytes(vals); !bytes.Equal(got, want) {
				t.Fatalf("axis %d layer %d: encoded %d bytes differ from the nested-loop walk's %d", axis, k, len(got), len(want))
			}

			g := NewField3D(f.D)
			g.decodePlane(axis, k, got)
			for i, at := range idx {
				if g.V[at] != vals[i] {
					t.Fatalf("axis %d layer %d: decode put value %d elsewhere", axis, k, i)
				}
				g.V[at] = 0
			}
			for i, v := range g.V {
				if v != 0 {
					t.Fatalf("axis %d layer %d: decode wrote V[%d] outside the layer", axis, k, i)
				}
			}

			for from := 0; from < n; from++ {
				if from == k {
					continue
				}
				want := append([]float64(nil), f.V...)
				for i, at := range layerIdx(f, axis, from) {
					want[idx[i]] = f.V[at]
				}
				h := &Field3D{D: f.D, SX: f.SX, SY: f.SY, SZ: f.SZ, V: append([]float64(nil), f.V...)}
				h.CopyPlane(axis, from, k)
				for i := range want {
					if h.V[i] != want[i] {
						t.Fatalf("axis %d CopyPlane(%d, %d): V[%d] = %v, want %v", axis, from, k, i, h.V[i], want[i])
					}
				}
			}
		}
	}
}

// A halo message costs the one payload it is encoded into; decoding it
// allocates nothing.
func TestPlaneWalkersAllocate(t *testing.T) {
	f := NewField3D(NewDecomp3D(0, 1, 6, 7, 8))
	for axis := 0; axis < 3; axis++ {
		b := f.encodePlane(axis, 1)
		if n := testing.AllocsPerRun(20, func() { b = f.encodePlane(axis, 1) }); n != 1 {
			t.Errorf("axis %d: encodePlane allocates %v times, want 1", axis, n)
		}
		if n := testing.AllocsPerRun(20, func() { f.decodePlane(axis, 0, b) }); n != 0 {
			t.Errorf("axis %d: decodePlane allocates %v times, want 0", axis, n)
		}
	}
}

// BenchmarkExchange is one halo exchange of a 16³ local block on each of
// 8 ranks over a 2x2x2 process grid; a round is every rank's Exchange.
func BenchmarkExchange(b *testing.B) {
	const size, gn = 8, 32
	c := simnet.NewCluster(simnet.Config{Nodes: size})
	mpi.Launch(c, size, 0, func(r *mpi.Rank) {
		world := r.Job().World()
		ctx := &Context{R: r, World: world}
		f := NewField3D(NewDecomp3D(r.Rank(world), size, gn, gn, gn))
		for i := range f.V {
			f.V[i] = float64(i)
		}
		for i := 0; i < b.N; i++ {
			if err := f.Exchange(ctx); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	c.Run()
}

// swapAll runs Swap once on every rank of an n-rank job, with each rank's
// neighbors given by nbrs, and returns what each rank received. Rank r
// sends "r>lo" toward lo and "r>hi" toward hi.
func swapAll(t *testing.T, n int, nbrs func(r int) (lo, hi int)) (fromLo, fromHi []string) {
	t.Helper()
	c := simnet.NewCluster(simnet.Config{Nodes: n})
	fromLo, fromHi = make([]string, n), make([]string, n)
	nilStr := func(b []byte) string {
		if b == nil {
			return "<nil>"
		}
		return string(b)
	}
	mpi.Launch(c, n, 0, func(r *mpi.Rank) {
		world := r.Job().World()
		me := r.Rank(world)
		lo, hi := nbrs(me)
		ctx := &Context{R: r, World: world}
		l, h, err := Swap(ctx, lo, hi, 7, 8, []byte(fmt.Sprintf("%d>lo", me)), []byte(fmt.Sprintf("%d>hi", me)))
		if err != nil {
			t.Errorf("rank %d: %v", me, err)
		}
		fromLo[me], fromHi[me] = nilStr(l), nilStr(h)
	})
	c.Run()
	return fromLo, fromHi
}

func TestSwapOpenStack(t *testing.T) {
	fromLo, fromHi := swapAll(t, 3, func(r int) (int, int) {
		hi := r + 1
		if hi == 3 {
			hi = -1
		}
		return r - 1, hi
	})
	wantLo := []string{"<nil>", "0>hi", "1>hi"}
	wantHi := []string{"1>lo", "2>lo", "<nil>"}
	for r := range wantLo {
		if fromLo[r] != wantLo[r] || fromHi[r] != wantHi[r] {
			t.Errorf("rank %d got (%s, %s), want (%s, %s)", r, fromLo[r], fromHi[r], wantLo[r], wantHi[r])
		}
	}
}

// On a two-rank periodic axis both neighbors are the same rank; the tags
// keep the two messages apart.
func TestSwapTwoRankRing(t *testing.T) {
	fromLo, fromHi := swapAll(t, 2, func(r int) (int, int) { return 1 - r, 1 - r })
	wantLo := []string{"1>hi", "0>hi"}
	wantHi := []string{"1>lo", "0>lo"}
	for r := range wantLo {
		if fromLo[r] != wantLo[r] || fromHi[r] != wantHi[r] {
			t.Errorf("rank %d got (%s, %s), want (%s, %s)", r, fromLo[r], fromHi[r], wantLo[r], wantHi[r])
		}
	}
}

// snapshotOracle is the Field3D.Snapshot that returned a fresh slice, kept
// as the oracle for AppendSnapshot's bytes.
func snapshotOracle(f *Field3D) []byte {
	b := make([]byte, 0, 8*f.D.LX*f.D.LY*f.D.LZ)
	for z := 1; z <= f.D.LZ; z++ {
		for y := 1; y <= f.D.LY; y++ {
			for _, v := range f.interiorRow(y, z) {
				b = enc.AppendFloat64(b, v)
			}
		}
	}
	return b
}

// A field checkpoints as its interior: AppendSnapshot appends, after any
// prefix, the oracle's bytes, which are byte for byte what protecting a
// flat copy of the interior stored; SnapshotLen is their length; Restore
// writes only the interior. The last block is empty: 4 ranks over a
// 1x1x2 mesh leave rank 3 no y layer.
func TestFieldSnapshotIsInteriorF64s(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []*Decomp3D{
		NewDecomp3D(0, 1, 3, 4, 5),
		NewDecomp3D(5, 8, 7, 6, 5),
		NewDecomp3D(3, 4, 1, 1, 2),
	} {
		f := NewField3D(d)
		for i := range f.V {
			f.V[i] = rng.NormFloat64()
		}
		want := snapshotOracle(f)
		interior := f.Interior()
		if flat := (fti.F64s{P: &interior}).AppendSnapshot(nil); !bytes.Equal(want, flat) {
			t.Fatalf("%dx%dx%d block: oracle differs from fti.F64s of the interior", d.LX, d.LY, d.LZ)
		}
		if f.SnapshotLen() != len(want) {
			t.Errorf("%dx%dx%d block: SnapshotLen %d, oracle %d bytes", d.LX, d.LY, d.LZ, f.SnapshotLen(), len(want))
		}
		prefix := []byte{7, 7, 7}
		if got := f.AppendSnapshot(prefix[:2:2]); !bytes.Equal(got, append(prefix[:2:2], want...)) {
			t.Errorf("%dx%dx%d block: AppendSnapshot is not prefix + oracle", d.LX, d.LY, d.LZ)
		}
		if got := f.AppendSnapshot(prefix[:1]); !bytes.Equal(got, append([]byte{7}, want...)) {
			t.Errorf("%dx%dx%d block: AppendSnapshot into spare capacity is not prefix + oracle", d.LX, d.LY, d.LZ)
		}
		g := NewField3D(d)
		for i := range g.V {
			g.V[i] = -1
		}
		g.Restore(want)
		for i, v := range g.Interior() {
			if v != interior[i] {
				t.Fatalf("restored interior value %d = %v, want %v", i, v, interior[i])
			}
		}
		if g.At(0, 0, 0) != -1 || g.At(d.LX+1, d.LY+1, d.LZ+1) != -1 {
			t.Fatal("Restore wrote a ghost")
		}
	}
}

func TestChargeAdvancesTime(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 1})
	var elapsed simnet.Time
	mpi.Launch(c, 1, 0, func(r *mpi.Rank) {
		ctx := &Context{R: r, Params: Params{WorkScale: 100}}
		start := r.Now()
		ctx.Charge(1000) // 1000 units x 100ns
		elapsed = r.Now() - start
	})
	c.Run()
	if elapsed != 100*simnet.Microsecond {
		t.Fatalf("charge advanced %v, want 100µs", elapsed)
	}
}
