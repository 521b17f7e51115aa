package comd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// checkForces compares a's forces and energy, as its last pairForces left
// them, with the oracle's on a's atoms, and reports the first bit that
// differs.
func checkForces(a *App) error {
	ref := &App{glob: a.glob, x: a.x, y: a.y, z: a.z, gx: a.gx, gy: a.gy, gz: a.gz}
	ref.oracleForces()
	same := func(what string, i int, got, want float64) error {
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("%s[%d] = %v, oracle %v (n=%d ghosts=%d box=%v cells=%v builds=%d)",
				what, i, got, want, len(a.x), len(a.gx), a.glob, a.list.cells.nc, a.list.builds)
		}
		return nil
	}
	if err := same("pe", 0, a.pe, ref.pe); err != nil {
		return err
	}
	for i := range ref.fx {
		err := errors.Join(same("fx", i, a.fx[i], ref.fx[i]), same("fy", i, a.fy[i], ref.fy[i]), same("fz", i, a.fz[i], ref.fz[i]))
		if err != nil {
			return err
		}
	}
	return nil
}

// requireSameForces runs pairForces on a's atoms and fails on the first
// bit that differs from the oracle.
func requireSameForces(t *testing.T, a *App) {
	t.Helper()
	a.pairForces()
	if err := checkForces(a); err != nil {
		t.Fatal(err)
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
	// The first jostle of each of these keeps every slot within drift and
	// then moves slots, so the second call follows the list through:
	f.Add(uint16(60), uint16(60), uint8(6), int64(34))   // a local leaving to the end of the ghosts
	f.Add(uint16(60), uint16(60), uint8(6), int64(18))   // a ghost joining the end of the locals
	f.Add(uint16(60), uint16(60), uint8(6), int64(32))   // the ghost block rotating by one
	f.Add(uint16(40), uint16(99), uint8(16), int64(-41)) // a ghost on a local: one build slot, two atoms near it
	f.Fuzz(func(t *testing.T, n, g uint16, boxCells uint8, seed int64) {
		// The oracle is O(n*(n+g)); keep one execution in the millisecond range.
		box := int(boxCells % 16)
		if box == 0 {
			box = 16
		}
		a := cloud(int(n%400), int(g%600), box, seed)
		requireSameForces(t, a)
		rng := rand.New(rand.NewSource(^seed))
		for call := 0; call < 5; call++ {
			jostle(a, rng)
			requireSameForces(t, a)
		}
	})
}

// jostle changes a cloud the way a step and the exchanges around it may
// between two force calls: it moves every slot, mostly by less than drift
// and now and then by more, and sometimes swaps two local slots, appends a
// ghost or drops one, moves a local to the end of the ghosts or a ghost to
// the end of the locals, or rotates the ghost block by one.
func jostle(a *App, rng *rand.Rand) {
	step := []float64{0, drift / 100, drift / 2, 2 * drift}[rng.Intn(4)] / math.Sqrt(3)
	move := func(v []float64) {
		for k := range v {
			v[k] += (2*rng.Float64() - 1) * step
		}
	}
	for _, v := range [][]float64{a.x, a.y, a.z, a.gx, a.gy, a.gz} {
		move(v)
	}
	n, g := len(a.x), len(a.gx)
	switch rng.Intn(9) {
	case 0: // swap two locals
		if n >= 2 {
			i, j := rng.Intn(n), rng.Intn(n)
			a.x[i], a.x[j] = a.x[j], a.x[i]
			a.y[i], a.y[j] = a.y[j], a.y[i]
			a.z[i], a.z[j] = a.z[j], a.z[i]
		}
	case 1: // a ghost arrives within a cutoff of a local
		if n > 0 {
			i := rng.Intn(n)
			off := func() float64 { return (2*rng.Float64() - 1) * cutoff / math.Sqrt(3) }
			a.gx, a.gy, a.gz = append(a.gx, a.x[i]+off()), append(a.gy, a.y[i]+off()), append(a.gz, a.z[i]+off())
		}
	case 2: // a ghost leaves, and the ones after it shift down a slot
		if g > 0 {
			k := rng.Intn(g)
			a.gx, a.gy, a.gz = slices.Delete(a.gx, k, k+1), slices.Delete(a.gy, k, k+1), slices.Delete(a.gz, k, k+1)
		}
	case 3: // a local leaves to the end of the ghosts
		if n > 0 {
			i := rng.Intn(n)
			a.gx, a.gy, a.gz = append(a.gx, a.x[i]), append(a.gy, a.y[i]), append(a.gz, a.z[i])
			a.x, a.y, a.z = slices.Delete(a.x, i, i+1), slices.Delete(a.y, i, i+1), slices.Delete(a.z, i, i+1)
		}
	case 4: // a ghost joins the end of the locals
		if g > 0 {
			k := rng.Intn(g)
			a.x, a.y, a.z = append(a.x, a.gx[k]), append(a.y, a.gy[k]), append(a.z, a.gz[k])
			a.gx, a.gy, a.gz = slices.Delete(a.gx, k, k+1), slices.Delete(a.gy, k, k+1), slices.Delete(a.gz, k, k+1)
		}
	case 5: // the ghost block rotates by one
		if g > 0 {
			a.gx, a.gy, a.gz = append(a.gx[1:], a.gx[0]), append(a.gy[1:], a.gy[0]), append(a.gz[1:], a.gz[0])
		}
	}
}

// checked is CoMD with the oracle looking over its shoulder: every step's
// forces, as the step's own list produced them, are compared with the
// all-pairs scan before the atoms move.
type checked struct {
	*App
	calls int
}

func (c *checked) Step(ctx *appkit.Context, iter int) error {
	if err := c.exchangeGhosts(ctx); err != nil {
		return err
	}
	c.forces(ctx)
	c.calls++
	if err := checkForces(c.App); err != nil {
		return fmt.Errorf("step %d: %w", iter, err)
	}
	return c.advance(ctx)
}

// The clouds above are uniform; this is what the app itself produces: the
// lattice as it moves, with the ghosts of each step's exchange and the
// slots that migration reshuffles.
func TestForcesMatchOracleOnRunState(t *testing.T) {
	for _, shape := range []struct{ ranks, cells, steps int }{{1, 2, 3}, {1, 4, 3}, {2, 4, 3}, {4, 6, 3}, {8, 6, 3}, {8, 8, 24}} {
		res := apptest.Run(t, shape.ranks,
			appkit.Params{NX: shape.cells, NY: shape.cells, NZ: shape.cells, MaxIter: shape.steps},
			func() appkit.App { return &checked{App: New()} })
		if shape.steps < 20 {
			continue
		}
		// A rank builds its list on its first step. With the atoms near
		// their lattice sites it then follows that list through every
		// migration and ghost exchange, and those reorder its slots.
		for r, app := range res.Apps {
			l := &app.(*checked).list
			if l.builds > 1 || l.remaps == 0 {
				t.Fatalf("%d ranks, %d cells: rank %d built %d lists and remapped %d times in %d force calls, want 1 build and some remaps",
					shape.ranks, shape.cells, r, l.builds, l.remaps, app.(*checked).calls)
			}
		}
	}
}

func TestForcesAllocateNothingWhenWarm(t *testing.T) {
	a := cloud(108, 256, 12, 3)
	a.pairForces()
	builds := a.list.builds
	if n := testing.AllocsPerRun(10, a.pairForces); n != 0 {
		t.Fatalf("pairForces allocates %v times per call reusing its list", n)
	}
	if a.list.builds != builds {
		t.Fatalf("%d builds on unchanged atoms", a.list.builds-builds)
	}
	remaps := a.list.remaps
	if n := testing.AllocsPerRun(10, migrated(a)); n != 0 {
		t.Fatalf("pairForces allocates %v times per call following its list through migrants", n)
	}
	if got := a.list.remaps - remaps; a.list.builds != builds || got != 11 {
		t.Fatalf("%d builds and %d remaps in 11 calls on a permuted slot set", a.list.builds-builds, got)
	}
	builds = a.list.builds
	if n := testing.AllocsPerRun(10, rebuild(a)); n != 0 {
		t.Fatalf("pairForces allocates %v times per call rebuilding its list", n)
	}
	if got := a.list.builds - builds; got != 11 {
		t.Fatalf("%d builds in 11 calls that each moved an atom by a skin", got)
	}
}

// migrated moves a's first local to the end of the ghosts and its first
// ghost to the end of the locals, as a step's migration and the ghost
// exchange after it do, and returns a.pairForces: every call then follows
// the list built before the move, and the list of the atom that migrated
// in is made by the first.
func migrated(a *App) func() {
	x, y, z := a.x[0], a.y[0], a.z[0]
	a.x, a.y, a.z = append(a.x[1:], a.gx[0]), append(a.y[1:], a.gy[0]), append(a.z[1:], a.gz[0])
	a.gx, a.gy, a.gz = append(a.gx[1:], x), append(a.gy[1:], y), append(a.gz[1:], z)
	return a.pairForces
}

// rebuild returns a call of a.pairForces that first moves atom 0 by a skin,
// alternately up and down, so that every call rebuilds the list.
func rebuild(a *App) func() {
	kick := skin
	return func() {
		a.x[0] += kick
		kick = -kick
		a.pairForces()
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
// Small cell: 108 local atoms, 256 ghosts, on a list it reuses.
func BenchmarkForces108x256(b *testing.B) {
	benchForces(b, func(a *App) func() { return a.pairForces })
}

// BenchmarkForces108x256Follow is the same evaluation after one atom has
// migrated out and one in since the list was built: the list is followed
// through the new slots.
func BenchmarkForces108x256Follow(b *testing.B) { benchForces(b, migrated) }

// BenchmarkForces108x256Rebuild is the same evaluation when the list must
// be rebuilt first.
func BenchmarkForces108x256Rebuild(b *testing.B) { benchForces(b, rebuild) }

func benchForces(b *testing.B, calls func(*App) func()) {
	a := latticeRank(12, 3, 3)
	if len(a.x) != 108 || len(a.gx) != 256 {
		b.Fatalf("shape is %d locals, %d ghosts", len(a.x), len(a.gx))
	}
	a.pairForces()
	call := calls(a)
	call() // the first calls size the scratch
	call()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}
