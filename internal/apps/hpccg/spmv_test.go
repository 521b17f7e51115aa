package hpccg

import (
	"math"
	"math/rand"
	"testing"
)

// oracleSpmv is spmv as it was before PR 23 — a closure call per nonzero,
// zero returned for a neighbour outside the domain — kept verbatim (idx
// inlined as a closure) as the reference spmv is compared against bit for
// bit.
func (a *App) oracleSpmv(out, v, lo, hi []float64) {
	idx := func(i, j, k int) int { return i + a.nx*(j+a.ny*k) }
	at := func(i, j, k int) float64 {
		if i < 0 || i >= a.nx || j < 0 || j >= a.ny {
			return 0
		}
		switch {
		case k < 0:
			return lo[i+a.nx*j]
		case k >= a.nz:
			return hi[i+a.nx*j]
		default:
			return v[idx(i, j, k)]
		}
	}
	for k := 0; k < a.nz; k++ {
		for j := 0; j < a.ny; j++ {
			for i := 0; i < a.nx; i++ {
				sum := 27 * v[idx(i, j, k)]
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							sum -= at(i+di, j+dj, k+dk)
						}
					}
				}
				out[idx(i, j, k)] = sum
			}
		}
	}
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func newGrid(nx, ny, nz int) *App {
	return &App{nx: nx, ny: ny, nz: nz, n: nx * ny * nz}
}

func TestSpmvMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{1, 2, 3, 5}
	for _, nx := range dims {
		for _, ny := range dims {
			for _, nz := range dims {
				a := newGrid(nx, ny, nz)
				v := randomVec(rng, a.n)
				for _, edge := range []string{"interior", "bottom", "top", "alone"} {
					lo, hi := randomVec(rng, nx*ny), randomVec(rng, nx*ny)
					if edge == "bottom" || edge == "alone" {
						lo = make([]float64, nx*ny)
					}
					if edge == "top" || edge == "alone" {
						hi = make([]float64, nx*ny)
					}
					got, want := make([]float64, a.n), make([]float64, a.n)
					a.spmv(got, v, lo, hi)
					a.oracleSpmv(want, v, lo, hi)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%dx%dx%d %s rank: out[%d] = %v, oracle %v", nx, ny, nz, edge, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestSpmvAllocatesNothing(t *testing.T) {
	a := newGrid(5, 4, 3)
	rng := rand.New(rand.NewSource(2))
	v, lo, hi := randomVec(rng, a.n), randomVec(rng, 20), randomVec(rng, 20)
	out := make([]float64, a.n)
	a.spmv(out, v, lo, hi)
	if n := testing.AllocsPerRun(10, func() { a.spmv(out, v, lo, hi) }); n != 0 {
		t.Fatalf("spmv allocates %v times per call", n)
	}
}

// BenchmarkSpmv16 is one rank's stencil application on the Large input's
// 16x16x16 local grid, between two neighbours.
func BenchmarkSpmv16(b *testing.B) {
	a := newGrid(16, 16, 16)
	rng := rand.New(rand.NewSource(3))
	v, lo, hi := randomVec(rng, a.n), randomVec(rng, 256), randomVec(rng, 256)
	out := make([]float64, a.n)
	a.spmv(out, v, lo, hi) // the first call allocates pad
	b.SetBytes(int64(8 * a.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.spmv(out, v, lo, hi)
	}
}
