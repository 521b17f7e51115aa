package amg

import (
	"math"
	"math/rand"
	"testing"

	"match/internal/apps/appkit"
)

// oracleApplyResidual is applyResidual as it was before the row kernels —
// At/Set per cell — kept verbatim as the reference the row kernel is
// compared against bit for bit.
func (lv *level) oracleApplyResidual() {
	d := lv.d
	diag := 2 * (cx + cy + lv.czEff)
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				ax := diag*lv.x.At(x, y, z) -
					cx*(lv.x.At(x-1, y, z)+lv.x.At(x+1, y, z)) -
					cy*(lv.x.At(x, y-1, z)+lv.x.At(x, y+1, z)) -
					lv.czEff*(lv.x.At(x, y, z-1)+lv.x.At(x, y, z+1))
				lv.r.Set(x, y, z, lv.b.At(x, y, z)-ax)
			}
		}
	}
}

// oracleSmooth is smooth as it was before the row kernels.
func (lv *level) oracleSmooth() {
	d := lv.d
	diag := 2 * (cx + cy + lv.czEff)
	lv.oracleApplyResidual()
	for z := 1; z <= d.LZ; z++ {
		for y := 1; y <= d.LY; y++ {
			for x := 1; x <= d.LX; x++ {
				lv.x.Set(x, y, z, lv.x.At(x, y, z)+jacobiOmega*lv.r.At(x, y, z)/diag)
			}
		}
	}
}

// oracleSumSquares is the residual norm and Signature loop as it was:
// over a copy of the interior.
func oracleSumSquares(f *appkit.Field3D) float64 {
	local := 0.0
	for _, v := range f.Interior() {
		local += v * v
	}
	return local
}

// randomLevel is a level on a non-cubic block whose three fields, ghosts
// included, hold random values of mixed sign and magnitude.
func randomLevel(rng *rand.Rand, czEff float64) *level {
	d := appkit.NewDecomp3D(0, 1, 5, 6, 7)
	lv := &level{d: d, x: appkit.NewField3D(d), b: appkit.NewField3D(d), r: appkit.NewField3D(d), czEff: czEff}
	for _, f := range []*appkit.Field3D{lv.x, lv.b, lv.r} {
		for i := range f.V {
			f.V[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(20)-10))
		}
	}
	return lv
}

func (lv *level) clone() *level {
	cp := func(f *appkit.Field3D) *appkit.Field3D {
		g := appkit.NewField3D(f.D)
		copy(g.V, f.V)
		return g
	}
	return &level{d: lv.d, x: cp(lv.x), b: cp(lv.b), r: cp(lv.r), czEff: lv.czEff}
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: V[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// The row kernels keep the oracle's operands and order, so every value
// they write, and the norms, keep their bits — at the finest level's
// coupling and at a semicoarsened one.
func TestRowKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, czEff := range []float64{cz, cz * 4 * 4 * 4} {
		for trial := 0; trial < 20; trial++ {
			lv := randomLevel(rng, czEff)
			ref := lv.clone()
			lv.applyResidual()
			ref.oracleApplyResidual()
			requireSameBits(t, "applyResidual r", lv.r.V, ref.r.V)

			lv.smooth()
			ref.oracleSmooth()
			requireSameBits(t, "smooth x", lv.x.V, ref.x.V)
			requireSameBits(t, "smooth r", lv.r.V, ref.r.V)

			for _, f := range [][2]*appkit.Field3D{{lv.x, ref.x}, {lv.r, ref.r}} {
				got, want := sumSquares(f[0]), oracleSumSquares(f[1])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("sumSquares = %v, oracle %v", got, want)
				}
			}
		}
	}
}
