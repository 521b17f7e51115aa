// Package amg reproduces the AMG proxy application: a multigrid solver for
// the paper's default problem (-problem 2), an anisotropic diffusion
// problem in the Laplace domain. Where the original applies algebraic
// multigrid through HYPRE's BoomerAMG, this implementation uses geometric
// multigrid on the structured grid — same V-cycle structure, smoothers,
// transfer operators, and halo-exchange communication pattern, with the
// anisotropy expressed in the 7-point operator coefficients
// (cz << cx = cy, the classic hard case for point smoothers).
//
// Each process owns an NX x NY x NZ block (AMG's -n semantics); one Step is
// one V-cycle.
package amg

import (
	"fmt"
	"math"

	"match/internal/apps/appkit"
	"match/internal/fti"
)

// Anisotropy coefficients for -problem 2.
const (
	cx = 1.0
	cy = 1.0
	cz = 0.001
)

// jacobiOmega is the damped-Jacobi relaxation weight.
const jacobiOmega = 0.8

type level struct {
	d       *appkit.Decomp3D
	x, b, r *appkit.Field3D
	czEff   float64 // effective z coupling: grows 4x per semicoarsened level
}

// App is the AMG solver state for one rank.
type App struct {
	levels []*level // levels[0].x, the finest solution, is protected
	rho    float64  // latest global residual norm^2
}

// New returns an AMG instance.
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "AMG" }

// Init implements appkit.App: build the grid hierarchy and the right-hand
// side, and protect the finest-level solution.
func (a *App) Init(ctx *appkit.Context) error {
	p := ctx.Params
	if p.NX <= 0 || p.NX%2 != 0 {
		return fmt.Errorf("amg: local dims must be positive and even, got %d", p.NX)
	}
	rank, size := ctx.Rank(), ctx.Size()
	px, py, pz := appkit.Factor3D(size)
	gx, gy, gz := p.NX*px, p.NY*py, p.NZ*pz

	// Semicoarsening in x and y only: with cz << cx the point smoother
	// cannot damp z-oscillatory error, so z stays fine — the standard
	// multigrid treatment of this anisotropy (what BoomerAMG's strength-of-
	// connection coarsening finds algebraically).
	a.levels = nil
	czEff := cz
	lx, ly, lz := gx, gy, gz
	for {
		d := appkit.NewDecomp3D(rank, size, lx, ly, lz)
		lv := &level{d: d, x: appkit.NewField3D(d), b: appkit.NewField3D(d), r: appkit.NewField3D(d), czEff: czEff}
		a.levels = append(a.levels, lv)
		if lx%(2*px) != 0 || ly%(2*py) != 0 {
			break
		}
		if d.LX <= 2 || d.LY <= 2 || len(a.levels) >= 6 {
			break
		}
		lx, ly = lx/2, ly/2
		czEff *= 4 // x/y spacing doubled: z coupling strengthens relatively
	}

	// RHS: a smooth deterministic source plus a point load, mirroring the
	// anisotropy test's forcing.
	fine := a.levels[0]
	d := fine.d
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				gxp := float64(d.OX+x-1) / float64(gx)
				gyp := float64(d.OY+y-1) / float64(gy)
				gzp := float64(d.OZ+z-1) / float64(gz)
				fine.b.Set(x, y, z, math.Sin(math.Pi*gxp)*math.Sin(math.Pi*gyp)+0.3*gzp)
			}
		}
	}
	ctx.FTI.Protect(1, fine.x)
	ctx.FTI.Protect(2, fti.F64{P: &a.rho})
	return nil
}

// applyResidual computes r = b - A*x at a level (x ghosts must be current).
// Each x row of the stencil is read as five ghosted rows of x: its own,
// the y and the z neighbours.
func (lv *level) applyResidual() {
	d := lv.d
	czEff := lv.czEff
	diag := 2 * (cx + cy + czEff)
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			xc := lv.x.Row(y, z)
			ys, yn := lv.x.Row(y-1, z), lv.x.Row(y+1, z)
			zb, zt := lv.x.Row(y, z-1), lv.x.Row(y, z+1)
			b, r := lv.b.Row(y, z), lv.r.Row(y, z)
			for x := 1; x <= d.LX; x++ {
				ax := diag*xc[x] -
					cx*(xc[x-1]+xc[x+1]) -
					cy*(ys[x]+yn[x]) -
					czEff*(zb[x]+zt[x])
				r[x] = b[x] - ax
			}
		}
	}
}

// smooth runs one damped-Jacobi sweep (x ghosts must be current).
func (lv *level) smooth() {
	d := lv.d
	diag := 2 * (cx + cy + lv.czEff)
	lv.applyResidual()
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			xr, r := lv.x.Row(y, z), lv.r.Row(y, z)
			for x := 1; x <= d.LX; x++ {
				xr[x] = xr[x] + jacobiOmega*r[x]/diag
			}
		}
	}
}

// sumSquares is the sum of v*v over f's interior, in x-fastest order.
func sumSquares(f *appkit.Field3D) float64 {
	d := f.D
	s := 0.0
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for _, v := range f.Row(y, z)[1 : d.LX+1] {
				s += v * v
			}
		}
	}
	return s
}

func (lv *level) cells() float64 {
	return float64(lv.d.LX * lv.d.LY * lv.d.LZ)
}

// vcycle runs the multigrid V-cycle from level i downward.
func (a *App) vcycle(ctx *appkit.Context, i int) error {
	lv := a.levels[i]
	if i == len(a.levels)-1 {
		// Coarsest: a handful of smoothing sweeps.
		for s := 0; s < 8; s++ {
			if err := lv.x.Exchange(ctx); err != nil {
				return err
			}
			lv.smooth()
			ctx.Charge(lv.cells() * 14)
		}
		return nil
	}
	// Pre-smooth.
	if err := lv.x.Exchange(ctx); err != nil {
		return err
	}
	lv.smooth()
	ctx.Charge(lv.cells() * 14)
	// Residual and full-weighting restriction to the coarse level.
	if err := lv.x.Exchange(ctx); err != nil {
		return err
	}
	lv.applyResidual()
	ctx.Charge(lv.cells() * 10)
	coarse := a.levels[i+1]
	for z := 1; z <= coarse.d.LZ; z++ {
		for y := 1; y <= coarse.d.LY; y++ {
			for x := 1; x <= coarse.d.LX; x++ {
				sum := 0.0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						sum += lv.r.At(2*x-1+dx, 2*y-1+dy, z)
					}
				}
				coarse.b.Set(x, y, z, sum) // 2x2x1 FW restriction with h^2 rescale (x4/4)
				coarse.x.Set(x, y, z, 0)
			}
		}
	}
	ctx.Charge(coarse.cells() * 5)
	if err := a.vcycle(ctx, i+1); err != nil {
		return err
	}
	// Prolongate bilinearly in the coarsened (x,y) axes and correct.
	// Piecewise-constant interpolation is insufficient for cell-centered
	// multigrid (interpolation + restriction orders must exceed the
	// operator order); bilinear weights (9,3,3,1)/16 restore convergence.
	// Coarse ghosts are refreshed first; domain-boundary ghosts stay zero,
	// which is exactly the homogeneous Dirichlet extension.
	if err := coarse.x.Exchange(ctx); err != nil {
		return err
	}
	for fz := 1; fz <= lv.d.LZ; fz++ {
		for fy := 1; fy <= lv.d.LY; fy++ {
			cy0 := (fy + 1) / 2
			sy := 1
			if fy == 2*cy0-1 {
				sy = -1
			}
			for fx := 1; fx <= lv.d.LX; fx++ {
				cx0 := (fx + 1) / 2
				sx := 1
				if fx == 2*cx0-1 {
					sx = -1
				}
				c := (9*coarse.x.At(cx0, cy0, fz) +
					3*coarse.x.At(cx0+sx, cy0, fz) +
					3*coarse.x.At(cx0, cy0+sy, fz) +
					coarse.x.At(cx0+sx, cy0+sy, fz)) / 16
				lv.x.Set(fx, fy, fz, lv.x.At(fx, fy, fz)+c)
			}
		}
	}
	ctx.Charge(lv.cells())
	// Post-smooth.
	if err := lv.x.Exchange(ctx); err != nil {
		return err
	}
	lv.smooth()
	ctx.Charge(lv.cells() * 14)
	return nil
}

// Step implements appkit.App: one V-cycle plus the global residual check
// AMG performs each iteration.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	fine := a.levels[0]
	if err := a.vcycle(ctx, 0); err != nil {
		return err
	}
	if err := fine.x.Exchange(ctx); err != nil {
		return err
	}
	fine.applyResidual()
	local := sumSquares(fine.r)
	ctx.Charge(fine.cells() * 12)
	rho, err := appkit.SumAll(ctx, local)
	if err != nil {
		return err
	}
	a.rho = rho
	return nil
}

// Signature implements appkit.App.
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	xx, err := appkit.SumAll(ctx, sumSquares(a.levels[0].x))
	if err != nil {
		return 0, err
	}
	return a.rho + xx, nil
}

// Residual returns the latest global squared residual.
func (a *App) Residual() float64 { return a.rho }
