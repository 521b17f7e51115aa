// Package minife reproduces the miniFE proxy application: assembly of an
// unstructured-implicit finite-element system (trilinear hex-8 elements,
// Poisson operator, 2x2x2 Gauss quadrature) over a global NX x NY x NZ
// element mesh, followed by a conjugate-gradient solve. Nodes are
// decomposed in 3D; each rank assembles the rows of its owned nodes from
// all adjacent elements (ghost-element redundant assembly, a standard
// distributed FE technique that needs no assembly communication) and the
// solve exchanges node halos per SpMV through the corner-aware three-phase
// exchange.
package minife

import (
	"fmt"

	"match/internal/apps/appkit"
	"match/internal/fti"
)

// App is the miniFE state for one rank.
type App struct {
	d          *appkit.Decomp3D // decomposition of the node grid
	gx, gy, gz int              // global node dims

	stencil [][]float64 // per-node 27 coefficients (local node-major)
	xb      []float64   // rhs per local node

	p, ap *appkit.Field3D
	xFlat []float64
	rFlat []float64
	pFlat []float64
	rho   float64
}

// New returns a miniFE instance.
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "miniFE" }

// elementK returns the 8x8 element stiffness matrix for the Poisson
// operator on a unit cube trilinear element, via 2x2x2 Gauss quadrature.
func elementK() [8][8]float64 {
	// Reference nodes at (+-1)^3 order: x fastest.
	var nodes [8][3]float64
	for i := 0; i < 8; i++ {
		nodes[i] = [3]float64{float64(2*(i&1) - 1), float64(2*((i>>1)&1) - 1), float64(2*((i>>2)&1) - 1)}
	}
	g := 1.0 / 1.7320508075688772 // 1/sqrt(3)
	var K [8][8]float64
	for gp := 0; gp < 8; gp++ {
		q := [3]float64{g * float64(2*(gp&1)-1), g * float64(2*((gp>>1)&1)-1), g * float64(2*((gp>>2)&1)-1)}
		// Shape function gradients on the reference element; the physical
		// element is a unit cube, so the Jacobian is diag(1/2) each axis.
		var grad [8][3]float64
		for i := 0; i < 8; i++ {
			nx, ny, nz := nodes[i][0], nodes[i][1], nodes[i][2]
			grad[i][0] = nx * (1 + ny*q[1]) * (1 + nz*q[2]) / 8 * 2
			grad[i][1] = ny * (1 + nx*q[0]) * (1 + nz*q[2]) / 8 * 2
			grad[i][2] = nz * (1 + nx*q[0]) * (1 + ny*q[1]) / 8 * 2
		}
		w := 1.0 / 8 // det(J) = 1/8, unit weights
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				K[i][j] += w * (grad[i][0]*grad[j][0] + grad[i][1]*grad[j][1] + grad[i][2]*grad[j][2])
			}
		}
	}
	return K
}

// Init implements appkit.App: assemble the stiffness stencils and start CG.
func (a *App) Init(ctx *appkit.Context) error {
	p := ctx.Params
	if p.NX <= 0 {
		return fmt.Errorf("minife: bad mesh %dx%dx%d", p.NX, p.NY, p.NZ)
	}
	// Node grid is elements+1 per axis.
	a.gx, a.gy, a.gz = p.NX+1, p.NY+1, p.NZ+1
	a.d = appkit.NewDecomp3D(ctx.Rank(), ctx.Size(), a.gx, a.gy, a.gz)
	d := a.d
	nLocal := d.LX * d.LY * d.LZ

	K := elementK()
	a.stencil = make([][]float64, nLocal)
	a.xb = make([]float64, nLocal)
	li := 0
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				coeff := make([]float64, 27)
				gxp, gyp, gzp := d.OX+x-1, d.OY+y-1, d.OZ+z-1
				onBoundary := gxp == 0 || gxp == a.gx-1 || gyp == 0 || gyp == a.gy-1 || gzp == 0 || gzp == a.gz-1
				if onBoundary {
					// Dirichlet row: identity.
					coeff[13] = 1
					a.stencil[li] = coeff
					a.xb[li] = 0
					li++
					continue
				}
				// Assemble from the 8 adjacent elements: element at corner
				// (ex,ey,ez) in {-1,0} offset; within it, this node is local
				// corner (cx,cy,cz) = -(offset).
				for ez := -1; ez <= 0; ez++ {
					for ey := -1; ey <= 0; ey++ {
						for ex := -1; ex <= 0; ex++ {
							// Element exists iff within the element mesh.
							if gxp+ex < 0 || gxp+ex >= p.NX || gyp+ey < 0 || gyp+ey >= p.NY || gzp+ez < 0 || gzp+ez >= p.NZ {
								continue
							}
							ci := (-ex) + 2*(-ey) + 4*(-ez) // this node's corner index
							for cj := 0; cj < 8; cj++ {
								// Neighbor node offset relative to this node.
								dx := (cj & 1) + ex
								dy := ((cj >> 1) & 1) + ey
								dz := ((cj >> 2) & 1) + ez
								coeff[(dx+1)+3*(dy+1)+9*(dz+1)] += K[ci][cj]
							}
						}
					}
				}
				a.stencil[li] = coeff
				a.xb[li] = 1 // unit body load, as miniFE's default
				li++
			}
		}
	}
	ctx.Charge(float64(nLocal) * 8 * 64 * 3) // assembly flops

	a.p = appkit.NewField3D(d)
	a.ap = appkit.NewField3D(d)
	// x=0, r=b, p=r.
	a.rFlat = append([]float64(nil), a.xb...)
	a.pFlat = append([]float64(nil), a.xb...)
	a.xFlat = make([]float64, nLocal)
	local := 0.0
	for _, v := range a.rFlat {
		local += v * v
	}
	var err error
	a.rho, err = appkit.SumAll(ctx, local)
	if err != nil {
		return err
	}

	ctx.FTI.Protect(1, fti.F64s{P: &a.xFlat})
	ctx.FTI.Protect(2, fti.F64s{P: &a.rFlat})
	ctx.FTI.Protect(3, fti.F64s{P: &a.pFlat})
	ctx.FTI.Protect(4, fti.F64{P: &a.rho})
	return nil
}

// spmv computes ap = A*p using the assembled stencils; p's ghosts must be
// current. The 27 products of a row are added in (dz,dy,dx) order.
func (a *App) spmv() {
	d := a.d
	p, ap := a.p.V, a.ap.V
	// Where the 27 neighbours sit in p relative to a node, in that order.
	var offs [27]int
	for k := range offs {
		offs[k] = (k%3 - 1) + a.p.SX*((k/3%3-1)+a.p.SY*(k/9-1))
	}
	li := 0
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			at := a.p.Idx(1, y, z)
			for x := 1; x <= d.LX; x++ {
				sum := 0.0
				for k, c := range a.stencil[li] {
					if c != 0 {
						sum += c * p[at+offs[k]]
					}
				}
				ap[at] = sum
				at++
				li++
			}
		}
	}
}

// Step implements appkit.App: one CG iteration on the assembled system.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	n := float64(len(a.xb))
	a.p.SetInterior(a.pFlat)
	if err := a.p.Exchange(ctx); err != nil {
		return err
	}
	a.spmv()
	ctx.Charge(n * 54)
	apFlat := a.ap.Interior()
	pap := 0.0
	for i := range a.pFlat {
		pap += a.pFlat[i] * apFlat[i]
	}
	ctx.Charge(n * 2)
	papG, err := appkit.SumAll(ctx, pap)
	if err != nil {
		return err
	}
	if papG == 0 {
		return fmt.Errorf("minife: CG breakdown at iter %d", iter)
	}
	alpha := a.rho / papG
	local := 0.0
	for i := range a.xFlat {
		a.xFlat[i] += alpha * a.pFlat[i]
		a.rFlat[i] -= alpha * apFlat[i]
		local += a.rFlat[i] * a.rFlat[i]
	}
	ctx.Charge(n * 6)
	rhoNew, err := appkit.SumAll(ctx, local)
	if err != nil {
		return err
	}
	beta := rhoNew / a.rho
	a.rho = rhoNew
	for i := range a.pFlat {
		a.pFlat[i] = a.rFlat[i] + beta*a.pFlat[i]
	}
	ctx.Charge(n * 2)
	return nil
}

// Signature implements appkit.App.
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	local := 0.0
	for _, v := range a.xFlat {
		local += v * v
	}
	xx, err := appkit.SumAll(ctx, local)
	if err != nil {
		return 0, err
	}
	return a.rho + xx, nil
}

// Residual returns the current global squared residual.
func (a *App) Residual() float64 { return a.rho }
