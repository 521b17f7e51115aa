package appkit

import (
	"testing"
	"testing/quick"

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
// including edge/corner ghosts via the three-phase scheme.
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
		val := func(gx, gy, gz int) float64 {
			return float64(gx + 100*gy + 10000*gz)
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
						t.Errorf("rank %d ghost (%d,%d,%d) = %v, want %v",
							r.Rank(world), gx, gy, gz, got, val(gx, gy, gz))
						return
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
