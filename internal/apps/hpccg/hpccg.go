// Package hpccg reproduces the HPCCG proxy application: a conjugate
// gradient solver on a 27-point stencil over a 3D grid in a chimney
// domain. As in the original, each process owns an NX x NY x NZ local grid
// and processes are stacked along z (1D decomposition), so only the top
// and bottom XY planes are exchanged.
//
// The stencil (spmv) copies its operand and the two ghost planes into a
// frame of zeros and walks that copy one x row at a time over the nine
// neighbouring rows, two points per pass, every point alike. Host speed is
// free to change, the answer is not: virtual time comes from ctx.Charge
// alone, and the Signature keeps its bits only while every point subtracts
// its neighbours in (dk,dj,di) order. Points may be computed side by side
// in any grouping, since each has its own accumulator; within one point a
// rewrite may add or drop an exact zero term, never reassociate.
package hpccg

import (
	"errors"
	"fmt"

	"match/internal/apps/appkit"
	"match/internal/enc"
	"match/internal/fti"
)

// App is the HPCCG solver state for one rank.
type App struct {
	nx, ny, nz int
	n          int // local unknowns
	rank, size int

	x, r, p, ap []float64
	b           []float64
	rho         float64

	loGhost, hiGhost []float64 // z ghost planes of p
	pad              []float64 // spmv's zero-framed copy of its operand
}

// New returns an HPCCG instance; dimensions are the per-process local grid
// (the meaning of HPCCG's command-line triplet, as in Table I).
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "HPCCG" }

// Init implements appkit.App: allocate CG state and protect it.
func (a *App) Init(ctx *appkit.Context) error {
	p := ctx.Params
	a.nx, a.ny, a.nz = p.NX, p.NY, p.NZ
	if a.nx <= 0 || a.ny <= 0 || a.nz <= 0 {
		return fmt.Errorf("hpccg: bad local grid %dx%dx%d", a.nx, a.ny, a.nz)
	}
	a.rank, a.size = ctx.Rank(), ctx.Size()
	a.n = a.nx * a.ny * a.nz
	a.x = make([]float64, a.n)
	a.b = make([]float64, a.n)
	a.ap = make([]float64, a.n)
	a.loGhost = make([]float64, a.nx*a.ny)
	a.hiGhost = make([]float64, a.nx*a.ny)

	// b = A * ones: the canonical HPCCG right-hand side.
	ones := make([]float64, a.n)
	for i := range ones {
		ones[i] = 1
	}
	loOnes := make([]float64, a.nx*a.ny)
	hiOnes := make([]float64, a.nx*a.ny)
	if a.rank > 0 {
		for i := range loOnes {
			loOnes[i] = 1
		}
	}
	if a.rank < a.size-1 {
		for i := range hiOnes {
			hiOnes[i] = 1
		}
	}
	a.spmv(a.b, ones, loOnes, hiOnes)

	// CG start: x=0, r=b, p=r.
	a.r = append([]float64(nil), a.b...)
	a.p = append([]float64(nil), a.b...)
	rho := 0.0
	for _, v := range a.r {
		rho += v * v
	}
	var err error
	a.rho, err = appkit.SumAll(ctx, rho)
	if err != nil {
		return err
	}

	ctx.FTI.Protect(1, fti.F64s{P: &a.x})
	ctx.FTI.Protect(2, fti.F64s{P: &a.r})
	ctx.FTI.Protect(3, fti.F64s{P: &a.p})
	ctx.FTI.Protect(4, fti.F64{P: &a.rho})
	return nil
}

// spmv computes out = A*v for the 27-point operator with the given z ghost
// planes. Diagonal 27, off-diagonals -1 (rows at domain boundaries have
// fewer neighbors, keeping A diagonally dominant and SPD).
func (a *App) spmv(out, v, lo, hi []float64) {
	nx, ny, nz := a.nx, a.ny, a.nz
	// pad is v between its ghost planes inside a frame of zeros one point
	// wide in x and y: every point then has all 26 neighbours, and the ones
	// outside the domain subtract an exact zero. Only the inside is ever
	// written, so the frame stays zero from call to call.
	sx, sy := nx+2, ny+2
	dz := sx * sy
	if len(a.pad) != dz*(nz+2) {
		a.pad = make([]float64, dz*(nz+2))
	}
	pad := a.pad
	for k := 0; k < nz+2; k++ {
		plane := lo
		switch {
		case k == nz+1:
			plane = hi
		case k > 0:
			plane = v[nx*ny*(k-1) : nx*ny*k]
		}
		for j := 0; j < ny; j++ {
			copy(pad[dz*k+sx*(j+1)+1:], plane[nx*j:nx*(j+1)])
		}
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			// The nine x rows around row (j,k), in (dk,dj) order; cut to one
			// length, they are indexed below without bounds checks.
			c := sx * (j + 1 + sy*(k+1))
			r0, r1, r2 := pad[c-dz-sx:][:sx], pad[c-dz:][:sx], pad[c-dz+sx:][:sx]
			r3, r4, r5 := pad[c-sx:][:sx], pad[c:][:sx], pad[c+sx:][:sx]
			r6, r7, r8 := pad[c+dz-sx:][:sx], pad[c+dz:][:sx], pad[c+dz+sx:][:sx]
			base := nx * (j + ny*k)
			o := out[base : base+nx]
			// Two points per pass, i and i+1, each with its own accumulator
			// and its own 26 subtractions in (dk,dj,di) order; an odd nx
			// leaves one point for the tail below.
			i := 1
			for ; i < sx-2; i += 2 {
				s, t := 27*r4[i], 27*r4[i+1]
				s = s - r0[i-1] - r0[i] - r0[i+1]
				t = t - r0[i] - r0[i+1] - r0[i+2]
				s = s - r1[i-1] - r1[i] - r1[i+1]
				t = t - r1[i] - r1[i+1] - r1[i+2]
				s = s - r2[i-1] - r2[i] - r2[i+1]
				t = t - r2[i] - r2[i+1] - r2[i+2]
				s = s - r3[i-1] - r3[i] - r3[i+1]
				t = t - r3[i] - r3[i+1] - r3[i+2]
				s = s - r4[i-1] - r4[i+1]
				t = t - r4[i] - r4[i+2]
				s = s - r5[i-1] - r5[i] - r5[i+1]
				t = t - r5[i] - r5[i+1] - r5[i+2]
				s = s - r6[i-1] - r6[i] - r6[i+1]
				t = t - r6[i] - r6[i+1] - r6[i+2]
				s = s - r7[i-1] - r7[i] - r7[i+1]
				t = t - r7[i] - r7[i+1] - r7[i+2]
				s = s - r8[i-1] - r8[i] - r8[i+1]
				t = t - r8[i] - r8[i+1] - r8[i+2]
				o[i-1], o[i] = s, t
			}
			if i < sx-1 {
				s := 27 * r4[i]
				s = s - r0[i-1] - r0[i] - r0[i+1]
				s = s - r1[i-1] - r1[i] - r1[i+1]
				s = s - r2[i-1] - r2[i] - r2[i+1]
				s = s - r3[i-1] - r3[i] - r3[i+1]
				s = s - r4[i-1] - r4[i+1]
				s = s - r5[i-1] - r5[i] - r5[i+1]
				s = s - r6[i-1] - r6[i] - r6[i+1]
				s = s - r7[i-1] - r7[i] - r7[i+1]
				s = s - r8[i-1] - r8[i] - r8[i+1]
				o[i-1] = s
			}
		}
	}
}

const (
	tagDown = 2001
	tagUp   = 2002
)

// exchange refreshes the z ghost planes of vec from the stack neighbors.
// The end of the stack has no neighbor on one side; that ghost plane keeps
// the zeros it was allocated with.
func (a *App) exchange(ctx *appkit.Context, vec []float64) error {
	plane := a.nx * a.ny
	lo, hi := a.rank-1, a.rank+1
	if hi == a.size {
		hi = -1
	}
	fromLo, fromHi, err := appkit.Swap(ctx, lo, hi, tagDown, tagUp,
		enc.Float64sToBytes(vec[:plane]), enc.Float64sToBytes(vec[a.n-plane:]))
	if err != nil {
		return err
	}
	if lo >= 0 {
		enc.FillFloat64s(a.loGhost, fromLo)
	}
	if hi >= 0 {
		enc.FillFloat64s(a.hiGhost, fromHi)
	}
	return nil
}

// ErrBreakdown indicates CG breakdown (should not happen on this SPD
// operator; kept as a guard).
var ErrBreakdown = errors.New("hpccg: pAp vanished, CG breakdown")

// Step implements appkit.App: one CG iteration.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	if err := a.exchange(ctx, a.p); err != nil {
		return err
	}
	a.spmv(a.ap, a.p, a.loGhost, a.hiGhost)
	ctx.Charge(float64(a.n) * 54) // 27-pt stencil: ~2 flops per nonzero
	pap, err := appkit.Dot(ctx, a.p, a.ap)
	if err != nil {
		return err
	}
	if pap == 0 {
		return ErrBreakdown
	}
	alpha := a.rho / pap
	// Cut to one length, the vectors are indexed without bounds checks or
	// reloads through a.
	x := a.x
	r, p, ap := a.r[:len(x)], a.p[:len(x)], a.ap[:len(x)]
	localRho := 0.0
	for i := range x {
		x[i] += alpha * p[i]
		r[i] -= alpha * ap[i]
		localRho += r[i] * r[i]
	}
	ctx.Charge(float64(a.n) * 6)
	rhoNew, err := appkit.SumAll(ctx, localRho)
	if err != nil {
		return err
	}
	beta := rhoNew / a.rho
	a.rho = rhoNew
	for i := range p {
		p[i] = r[i] + beta*p[i]
	}
	ctx.Charge(float64(a.n) * 2)
	return nil
}

// Signature implements appkit.App: the final residual plus solution norm,
// both computed with deterministic reductions, so recovered runs must match
// failure-free runs exactly.
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	xx, err := appkit.Dot(ctx, a.x, a.x)
	if err != nil {
		return 0, err
	}
	return a.rho + xx, nil
}

// Residual returns the current global squared residual.
func (a *App) Residual() float64 { return a.rho }
