package comd

import (
	"math"
	"math/rand"
	"testing"

	"match/internal/apps/appkit"
	"match/internal/apps/apptest"
)

// minImage wraps a displacement to the nearest periodic image.
func (a *App) minImage(d float64, ax int) float64 {
	L := a.glob[ax]
	if d > L/2 {
		d -= L
	} else if d < -L/2 {
		d += L
	}
	return d
}

// oracleForces is the all-pairs scan forces was before PR 23 — every local
// atom against every other atom through a closure — kept verbatim (less
// the ctx.Charge that followed it) as the reference pairForces is compared
// against bit for bit.
func (a *App) oracleForces() {
	n := len(a.x)
	a.fx = appkit.Grow(a.fx, n)
	a.fy = appkit.Grow(a.fy, n)
	a.fz = appkit.Grow(a.fz, n)
	for i := 0; i < n; i++ {
		a.fx[i], a.fy[i], a.fz[i] = 0, 0, 0
	}
	a.pe = 0
	rc2 := cutoff * cutoff
	// Shifted potential so e(cutoff)=0.
	s6 := math.Pow(sigma/cutoff, 6)
	eShift := 4 * epsilon * (s6*s6 - s6)
	pairs := 0
	pair := func(i int, xj, yj, zj float64, half bool) {
		dx := a.minImage(a.x[i]-xj, 0)
		dy := a.minImage(a.y[i]-yj, 1)
		dz := a.minImage(a.z[i]-zj, 2)
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= rc2 || r2 == 0 {
			return
		}
		inv2 := sigma * sigma / r2
		inv6 := inv2 * inv2 * inv2
		f := 24 * epsilon * inv6 * (2*inv6 - 1) / r2
		a.fx[i] += f * dx
		a.fy[i] += f * dy
		a.fz[i] += f * dz
		e := 4*epsilon*inv6*(inv6-1) - eShift
		if half {
			a.pe += e / 2
		} else {
			a.pe += e
		}
		pairs++
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				pair(i, a.x[j], a.y[j], a.z[j], true)
			}
		}
		for g := range a.gx {
			pair(i, a.gx[g], a.gy[g], a.gz[g], true)
		}
	}
	_ = pairs
}

// requireSameForces runs both kernels on copies of a's atoms and fails on
// the first bit that differs.
func requireSameForces(t *testing.T, a *App) {
	t.Helper()
	ref := &App{glob: a.glob, x: a.x, y: a.y, z: a.z, gx: a.gx, gy: a.gy, gz: a.gz}
	ref.oracleForces()
	a.pairForces()
	same := func(what string, i int, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s[%d] = %v, oracle %v (n=%d ghosts=%d box=%v cells=%v)",
				what, i, got, want, len(a.x), len(a.gx), a.glob, a.cells.nc)
		}
	}
	same("pe", 0, a.pe, ref.pe)
	for i := range ref.fx {
		same("fx", i, a.fx[i], ref.fx[i])
		same("fy", i, a.fy[i], ref.fy[i])
		same("fz", i, a.fz[i], ref.fz[i])
	}
}

// cloud scatters n locals over one rank's box of a boxCells³-lattice-cell
// periodic domain and g ghosts over the cutoff shell around it. The seed
// also picks how many ranks share each axis and plants the degenerate
// pairs: two atoms at one position, and two exactly a cutoff apart.
func cloud(n, g, boxCells int, seed int64) *App {
	rng := rand.New(rand.NewSource(seed))
	a := &App{}
	var lo, hi [3]float64
	for ax := range lo {
		a.glob[ax] = float64(boxCells) * lat
		parts := 1 << rng.Intn(3) // 1, 2 or 4 ranks along this axis
		lo[ax] = a.glob[ax] / float64(parts) * float64(rng.Intn(parts))
		hi[ax] = lo[ax] + a.glob[ax]/float64(parts)
	}
	in := func(ax int, pad float64) float64 {
		return lo[ax] - pad + rng.Float64()*(hi[ax]-lo[ax]+2*pad)
	}
	for i := 0; i < n; i++ {
		a.x, a.y, a.z = append(a.x, in(0, 0)), append(a.y, in(1, 0)), append(a.z, in(2, 0))
	}
	for i := 0; i < g; i++ {
		a.gx, a.gy, a.gz = append(a.gx, in(0, cutoff)), append(a.gy, in(1, cutoff)), append(a.gz, in(2, cutoff))
	}
	if n > 0 && g > 0 {
		i, j := rng.Intn(n), rng.Intn(g)
		if seed&1 != 0 {
			a.gx[j], a.gy[j], a.gz[j] = a.x[i], a.y[i], a.z[i]
		}
		if seed&2 != 0 {
			k := rng.Intn(n)
			a.x[k], a.y[k], a.z[k] = a.x[i]+cutoff, a.y[i], a.z[i]
		}
	}
	return a
}

func FuzzForcesMatchesOracle(f *testing.F) {
	f.Add(uint16(108), uint16(256), uint8(12), int64(3)) // the 64-rank Small shape
	f.Add(uint16(40), uint16(30), uint8(1), int64(4))    // glob < 2*cutoff
	f.Add(uint16(40), uint16(30), uint8(2), int64(8))    // one link cell per axis
	f.Add(uint16(60), uint16(60), uint8(6), int64(1))    // r2 == 0
	f.Add(uint16(60), uint16(60), uint8(6), int64(2))    // a pair exactly a cutoff apart
	f.Add(uint16(60), uint16(60), uint8(4), int64(7))    // both
	f.Add(uint16(0), uint16(50), uint8(6), int64(5))     // no locals
	f.Add(uint16(50), uint16(0), uint8(6), int64(6))     // no ghosts
	f.Add(uint16(0), uint16(0), uint8(3), int64(9))
	f.Add(uint16(1), uint16(0), uint8(3), int64(10))
	f.Add(uint16(300), uint16(300), uint8(16), int64(11))
	f.Fuzz(func(t *testing.T, n, g uint16, boxCells uint8, seed int64) {
		// The oracle is O(n*(n+g)); keep one execution in the millisecond range.
		box := int(boxCells % 16)
		if box == 0 {
			box = 16
		}
		a := cloud(int(n%400), int(g%600), box, seed)
		requireSameForces(t, a)
		requireSameForces(t, a) // again, on reused scratch
	})
}

// The clouds above are uniform; this one is what the app itself produces:
// the lattice after a few steps, with the ghosts of the last exchange.
func TestForcesMatchOracleOnRunState(t *testing.T) {
	for _, shape := range []struct{ ranks, cells int }{{1, 2}, {1, 4}, {2, 4}, {4, 6}, {8, 6}, {8, 8}} {
		res := apptest.Run(t, shape.ranks,
			appkit.Params{NX: shape.cells, NY: shape.cells, NZ: shape.cells, MaxIter: 3},
			func() appkit.App { return New() })
		for _, app := range res.Apps {
			requireSameForces(t, app.(*App))
		}
	}
}

func TestForcesAllocateNothingWhenWarm(t *testing.T) {
	a := cloud(108, 256, 12, 3)
	a.pairForces()
	if n := testing.AllocsPerRun(10, a.pairForces); n != 0 {
		t.Fatalf("pairForces allocates %v times per call on warm scratch", n)
	}
}

// latticeRank is the rank owning lattice cells [first, first+width)³ of a
// cells³ FCC domain at step 0: its atoms as locals, the lattice sites
// within a cutoff of its box as ghosts.
func latticeRank(cells, first, width int) *App {
	a := &App{glob: [3]float64{float64(cells) * lat, float64(cells) * lat, float64(cells) * lat}}
	lo, hi := float64(first)*lat, float64(first+width)*lat
	basis := [4][3]float64{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	for cz := first - 1; cz <= first+width; cz++ {
		for cy := first - 1; cy <= first+width; cy++ {
			for cx := first - 1; cx <= first+width; cx++ {
				for _, off := range basis {
					p := [3]float64{(float64(cx) + off[0]) * lat, (float64(cy) + off[1]) * lat, (float64(cz) + off[2]) * lat}
					local, near := true, true
					for _, c := range p {
						local = local && c >= lo && c < hi
						near = near && c >= lo-cutoff && c < hi+cutoff
					}
					switch {
					case local:
						a.x, a.y, a.z = append(a.x, p[0]), append(a.y, p[1]), append(a.z, p[2])
					case near:
						a.gx, a.gy, a.gz = append(a.gx, p[0]), append(a.gy, p[1]), append(a.gz, p[2])
					}
				}
			}
		}
	}
	return a
}

// BenchmarkForces108x256 is one rank's force evaluation in the 64-rank
// Small cell: 108 local atoms, 256 ghosts.
func BenchmarkForces108x256(b *testing.B) {
	a := latticeRank(12, 3, 3)
	if len(a.x) != 108 || len(a.gx) != 256 {
		b.Fatalf("shape is %d locals, %d ghosts", len(a.x), len(a.gx))
	}
	a.pairForces() // the first call sizes the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.pairForces()
	}
}
