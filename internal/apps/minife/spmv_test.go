package minife

import (
	"math"
	"math/rand"
	"testing"

	"match/internal/apps/appkit"
	"match/internal/apps/apptest"
)

// oracleSpmv is spmv as it was before PR 23 — 27 Field3D.At calls per row —
// kept verbatim as the reference spmv is compared against bit for bit.
func (a *App) oracleSpmv() {
	d := a.d
	li := 0
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				coeff := a.stencil[li]
				sum := 0.0
				ci := 0
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							c := coeff[ci]
							ci++
							if c != 0 {
								sum += c * a.p.At(x+dx, y+dy, z+dz)
							}
						}
					}
				}
				a.ap.Set(x, y, z, sum)
				li++
			}
		}
	}
}

// Every rank of a few decompositions — boundary rows, interior rows, a
// one-node-thick block — applied to a random p, ghosts included.
func TestSpmvMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct{ ranks, mesh int }{{1, 3}, {2, 4}, {8, 5}, {12, 6}} {
		res := apptest.Run(t, shape.ranks,
			appkit.Params{NX: shape.mesh, NY: shape.mesh, NZ: shape.mesh, MaxIter: 1},
			func() appkit.App { return New() })
		for r, app := range res.Apps {
			a := app.(*App)
			for i := range a.p.V {
				a.p.V[i] = rng.NormFloat64()
			}
			a.oracleSpmv()
			want := a.ap.Interior()
			for i := range a.ap.V {
				a.ap.V[i] = math.NaN()
			}
			a.spmv()
			for i, got := range a.ap.Interior() {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("%d ranks, mesh %d, rank %d: node %d: ap = %v, oracle %v", shape.ranks, shape.mesh, r, i, got, want[i])
				}
			}
		}
	}
}
