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

// requireSameSpmv fails t unless spmv and the oracle agree bit for bit.
func requireSameSpmv(t *testing.T, a *App, v, lo, hi []float64, what string) {
	t.Helper()
	got, want := make([]float64, a.n), make([]float64, a.n)
	a.spmv(got, v, lo, hi)
	a.oracleSpmv(want, v, lo, hi)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%dx%dx%d %s: out[%d] = %v, oracle %v", a.nx, a.ny, a.nz, what, i, got[i], want[i])
		}
	}
}

// Every shape up to 5 and the Table I sizes 7 (odd, so spmv's tail runs
// after its two-point passes), 12, 14 and 16, at every place in the stack.
func TestSpmvMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{1, 2, 3, 5, 7, 12, 14, 16}
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
					requireSameSpmv(t, a, v, lo, hi, edge+" rank")
				}
			}
		}
	}
}

// fuzzSpmvInput decodes a fuzz input: three bytes of dimensions in 1..18,
// then a ring of bytes that v, lo and hi are drawn from, a selector byte
// per value, so ±0, subnormals, huge magnitudes (whose sums overflow), raw
// bit patterns (Inf and NaN among them) and plain numbers all occur.
func fuzzSpmvInput(data []byte) (a *App, v, lo, hi []float64) {
	dim := func(i int) int {
		if i < len(data) {
			return 1 + int(data[i])%18
		}
		return 1
	}
	a = newGrid(dim(0), dim(1), dim(2))
	ring := []byte{0}
	if len(data) > 3 {
		ring = data[3:]
	}
	next := 0
	value := func() float64 {
		i := next
		next++
		at := func(k int) byte { return ring[(i+k)%len(ring)] }
		m := float64(int8(at(1)))
		switch at(0) % 8 {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return m * math.SmallestNonzeroFloat64
		case 3:
			return m * 0x1p-1030 // subnormal
		case 4:
			return m * 0x1p1016 // up to 2^1023
		case 5:
			var bits uint64
			for k := 1; k <= 8; k++ {
				bits = bits<<8 | uint64(at(k))
			}
			return math.Float64frombits(bits)
		default:
			return m / 8
		}
	}
	fill := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = value()
		}
		return out
	}
	v = fill(a.n)
	lo, hi = fill(a.nx*a.ny), fill(a.nx*a.ny)
	return a, v, lo, hi
}

func FuzzSpmvMatchesOracle(f *testing.F) {
	f.Add([]byte{11, 11, 11, 6, 200, 4, 127, 4, 129, 1, 7, 2, 3, 3, 255}) // 12^3, Table I Small: even nx
	f.Add([]byte{6, 4, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})      // nx 7: two-point passes and the tail
	f.Add([]byte{0, 17, 3, 5, 255, 255, 255, 255, 255, 255, 255, 255})    // nx 1: the tail alone; NaN
	f.Add([]byte{17, 0, 0, 4, 127, 4, 127, 4, 128})                       // nx 18: overflow to ±Inf
	f.Add([]byte{13, 13, 1, 2, 1, 3, 255, 1, 0})                          // nx 14: subnormals and ±0
	f.Fuzz(func(t *testing.T, data []byte) {
		a, v, lo, hi := fuzzSpmvInput(data)
		requireSameSpmv(t, a, v, lo, hi, "fuzz")
	})
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

// BenchmarkSpmv12 is one rank's stencil application on the Small input's
// 12x12x12 local grid, between two neighbours.
func BenchmarkSpmv12(b *testing.B) { benchSpmv(b, 12) }

// BenchmarkSpmv16 is the same on the Large input's 16x16x16 local grid.
func BenchmarkSpmv16(b *testing.B) { benchSpmv(b, 16) }

func benchSpmv(b *testing.B, n int) {
	a := newGrid(n, n, n)
	rng := rand.New(rand.NewSource(3))
	v, lo, hi := randomVec(rng, a.n), randomVec(rng, n*n), randomVec(rng, n*n)
	out := make([]float64, a.n)
	a.spmv(out, v, lo, hi) // the first call allocates pad
	b.SetBytes(int64(8 * a.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.spmv(out, v, lo, hi)
	}
}
