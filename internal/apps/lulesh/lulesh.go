// Package lulesh reproduces the LULESH proxy application's problem and
// execution structure: an explicit shock-hydrodynamics solve of the Sedov
// blast on a 3D structured mesh with cube process counts, face halo
// exchanges every step, and the global Courant timestep reduction that
// dominates LULESH's collective traffic.
//
// Substitution note (DESIGN.md): the original integrates Lagrangian hex
// elements with hourglass control; this implementation solves the same
// Sedov problem with a finite-volume Euler scheme (Rusanov fluxes, ideal
// gas EOS). The iteration structure, data volumes, communication pattern,
// and checkpointable state (the five conserved fields) are preserved,
// which is what the fault-tolerance benchmark exercises.
package lulesh

import (
	"fmt"
	"math"

	"match/internal/apps/appkit"
	"match/internal/fti"
)

const (
	gamma  = 1.4
	cfl    = 0.3
	eBase  = 1e-4 // background specific total energy
	eBlast = 50.0
)

// App is the hydro state for one rank.
type App struct {
	d    *appkit.Decomp3D
	h    float64            // cell size
	flds [5]*appkit.Field3D // rho, mx, my, mz, E (protected)
	t    float64            // simulated physical time (protected)
	news [5][]float64       // scratch updates
}

// New returns a LULESH instance.
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "LULESH" }

// Init implements appkit.App. Params.S is the per-process edge (LULESH -s).
func (a *App) Init(ctx *appkit.Context) error {
	s := ctx.Params.S
	if s <= 0 {
		return fmt.Errorf("lulesh: bad -s %d", s)
	}
	size := ctx.Size()
	px, py, pz := appkit.Factor3D(size)
	if px != py || py != pz {
		return fmt.Errorf("lulesh: needs a cube process count, got %d (=%dx%dx%d)", size, px, py, pz)
	}
	g := s * px
	a.d = appkit.NewDecomp3D(ctx.Rank(), size, g, g, g)
	a.h = 1.0 / float64(g)
	for i := range a.flds {
		a.flds[i] = appkit.NewField3D(a.d)
	}
	d := a.d
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				a.flds[0].Set(x, y, z, 1.0)   // density
				a.flds[4].Set(x, y, z, eBase) // energy
			}
		}
	}
	// Sedov: deposit blast energy in the global origin cell.
	if d.OX == 0 && d.OY == 0 && d.OZ == 0 {
		a.flds[4].Set(1, 1, 1, eBlast)
	}
	a.t = 0
	for i, f := range a.flds {
		ctx.FTI.Protect(1+i, f)
	}
	ctx.FTI.Protect(6, fti.F64{P: &a.t})
	return nil
}

// pressure computes p from conserved values.
func pressure(rho, mx, my, mz, e float64) float64 {
	if rho <= 0 {
		return 0
	}
	kin := 0.5 * (mx*mx + my*my + mz*mz) / rho
	p := (gamma - 1) * (e - kin)
	if p < 0 {
		p = 0
	}
	return p
}

// reflectBoundaries fills domain-boundary ghosts with outflow copies of
// the adjacent interior layer, x then y then z, so later axes copy the
// ghost rims earlier ones filled.
func (a *App) reflectBoundaries() {
	d := a.d
	l := [3]int{d.LX, d.LY, d.LZ}
	lo := [3]bool{d.CX == 0, d.CY == 0, d.CZ == 0}
	hi := [3]bool{d.CX == d.PX-1, d.CY == d.PY-1, d.CZ == d.PZ-1}
	for _, f := range a.flds {
		for ax := range l {
			if lo[ax] {
				f.CopyPlane(ax, 1, 0)
			}
			if hi[ax] {
				f.CopyPlane(ax, l[ax], l[ax]+1)
			}
		}
	}
}

// wavespeed returns |u|+c for a cell.
func (a *App) wavespeed(x, y, z int) float64 {
	rho := a.flds[0].At(x, y, z)
	if rho <= 0 {
		return 0
	}
	mx, my, mz := a.flds[1].At(x, y, z), a.flds[2].At(x, y, z), a.flds[3].At(x, y, z)
	e := a.flds[4].At(x, y, z)
	p := pressure(rho, mx, my, mz, e)
	u := math.Sqrt(mx*mx+my*my+mz*mz) / rho
	c := math.Sqrt(gamma * p / rho)
	return u + c
}

// flux computes the Rusanov flux across the face between cells L and R in
// direction dir (0,1,2), returning the 5 components.
func (a *App) flux(lx, ly, lz, rx, ry, rz, dir int, smax float64) [5]float64 {
	var out [5]float64
	side := func(x, y, z int) ([5]float64, [5]float64) {
		var u, f [5]float64
		u[0] = a.flds[0].At(x, y, z)
		u[1] = a.flds[1].At(x, y, z)
		u[2] = a.flds[2].At(x, y, z)
		u[3] = a.flds[3].At(x, y, z)
		u[4] = a.flds[4].At(x, y, z)
		p := pressure(u[0], u[1], u[2], u[3], u[4])
		vel := 0.0
		if u[0] > 0 {
			vel = u[1+dir] / u[0]
		}
		f[0] = u[1+dir]
		for k := 0; k < 3; k++ {
			f[1+k] = u[1+k] * vel
		}
		f[1+dir] += p
		f[4] = (u[4] + p) * vel
		return u, f
	}
	ul, fl := side(lx, ly, lz)
	ur, fr := side(rx, ry, rz)
	for k := 0; k < 5; k++ {
		out[k] = 0.5*(fl[k]+fr[k]) - 0.5*smax*(ur[k]-ul[k])
	}
	return out
}

// Step implements appkit.App: halo exchange, global Courant dt, one
// finite-volume update.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	for i := range a.flds {
		if err := a.flds[i].Exchange(ctx); err != nil {
			return err
		}
	}
	a.reflectBoundaries()
	d := a.d
	// Courant condition: global max wavespeed (LULESH's per-step allreduce).
	smax := 1e-12
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				if s := a.wavespeed(x, y, z); s > smax {
					smax = s
				}
			}
		}
	}
	gmax, err := appkit.MaxAll(ctx, smax)
	if err != nil {
		return err
	}
	dt := cfl * a.h / gmax

	n := d.LX * d.LY * d.LZ
	for i := range a.news {
		a.news[i] = appkit.Grow(a.news[i], n)
	}
	li := 0
	dirs := [3][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				var u [5]float64
				for k := 0; k < 5; k++ {
					u[k] = a.flds[k].At(x, y, z)
				}
				for dir := 0; dir < 3; dir++ {
					dx, dy, dz := dirs[dir][0], dirs[dir][1], dirs[dir][2]
					fp := a.flux(x, y, z, x+dx, y+dy, z+dz, dir, gmax)
					fm := a.flux(x-dx, y-dy, z-dz, x, y, z, dir, gmax)
					for k := 0; k < 5; k++ {
						u[k] -= dt / a.h * (fp[k] - fm[k])
					}
				}
				if u[0] < 1e-10 {
					u[0] = 1e-10
				}
				for k := 0; k < 5; k++ {
					a.news[k][li] = u[k]
				}
				li++
			}
		}
	}
	ctx.Charge(float64(n) * 180)
	for k, f := range a.flds {
		f.SetInterior(a.news[k])
	}
	a.t += dt
	return nil
}

// Signature implements appkit.App: conserved total energy plus the maximum
// density (shock position proxy) plus elapsed physical time.
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	localE, localRhoMax := 0.0, 0.0
	rho := a.flds[0].Interior()
	for i, e := range a.flds[4].Interior() {
		localE += e
		if rho[i] > localRhoMax {
			localRhoMax = rho[i]
		}
	}
	totE, err := appkit.SumAll(ctx, localE)
	if err != nil {
		return 0, err
	}
	rhoMax, err := appkit.MaxAll(ctx, localRhoMax)
	if err != nil {
		return 0, err
	}
	return totE + rhoMax + a.t, nil
}

// Time returns the simulated physical time.
func (a *App) Time() float64 { return a.t }
