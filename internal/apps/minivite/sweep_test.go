package minivite

import (
	"math"
	"testing"

	"match/internal/apps/appkit"
	"match/internal/apps/apptest"
)

// oracleSweep is the move loop of Step as it was before PR 23 — a links
// map allocated per vertex, sigma and deltas in maps, labels looked up by
// global vertex id — kept verbatim as the reference sweep is compared
// against. It returns the labels after the moves and the sigmaTot deltas.
func oracleSweep(lo int, adj [][]int, deg []float64, m2 float64, iter int,
	snapshot []int64, commAt func(v int) int64, sigma map[int64]float64) ([]int64, map[int64]float64) {
	comm := append([]int64(nil), snapshot...)
	// Best-gain moves. Only even (odd) vertices move on even (odd)
	// iterations, the standard trick against label oscillation.
	deltas := make(map[int64]float64) // community -> sigmaTot delta
	moves := 0
	for i, nb := range adj {
		v := lo + i
		if v%2 != iter%2 {
			continue
		}
		cur := snapshot[i]
		// Links from v to each candidate community.
		links := make(map[int64]float64)
		for _, u := range nb {
			links[commAt(u)]++
		}
		ki := deg[i]
		best, bestGain := cur, 0.0
		for c, kin := range links {
			if c == cur {
				continue
			}
			sc := sigma[c]
			scur := sigma[cur] - ki // community totals without v
			gain := kin - links[cur] - ki*(sc-scur)/m2
			if gain > bestGain || (gain == bestGain && gain > 0 && c < best) {
				best, bestGain = c, gain
			}
		}
		if best != cur {
			deltas[cur] -= ki
			deltas[best] += ki
			comm[i] = best
			moves++
		}
	}
	return comm, deltas
}

// sweepFixture runs the generator's graph for iters sweeps over ranks
// ranks and leaves every rank ready for its next sweep: labels indexed,
// sigma filled with the true community totals.
func sweepFixture(t testing.TB, ranks, verts, iters int) []*App {
	res := apptest.Run(t, ranks, appkit.Params{NVerts: verts, MaxIter: iters},
		func() appkit.App { return New() })
	apps := make([]*App, ranks)
	totals := make(map[int64]float64)
	for r, app := range res.Apps {
		apps[r] = app.(*App)
		for i, c := range apps[r].comm {
			totals[c] += apps[r].deg[i]
		}
	}
	for _, a := range apps {
		a.indexLabels()
		a.sigma = appkit.Grow(a.sigma, len(a.need))
		for p, c := range a.need {
			a.sigma[p] = totals[c]
		}
	}
	return apps
}

func TestSweepMatchesOracle(t *testing.T) {
	for _, ranks := range []int{1, 3, 8} {
		for _, iters := range []int{1, 4, 9} {
			for _, a := range sweepFixture(t, ranks, 512, iters) {
				nLocal := a.hi - a.lo
				global := func(k int32) int {
					if int(k) < nLocal {
						return a.lo + int(k)
					}
					return a.ghosts[int(k)-nLocal]
				}
				adj := make([][]int, nLocal)
				remote := make(map[int]int64)
				for i, nb := range a.adj {
					for _, k := range nb {
						adj[i] = append(adj[i], global(k))
						remote[global(k)] = a.label[k]
					}
				}
				snapshot := append([]int64(nil), a.comm...)
				commAt := func(v int) int64 {
					if v >= a.lo && v < a.hi {
						return snapshot[v-a.lo]
					}
					return remote[v]
				}
				sigma := make(map[int64]float64)
				for p, c := range a.need {
					sigma[c] = a.sigma[p]
				}
				for parity := 0; parity < 2; parity++ {
					wantComm, wantDeltas := oracleSweep(a.lo, adj, a.deg, a.m2, parity, snapshot, commAt, sigma)
					a.sweep(parity)
					moves := 0
					for i := range wantComm {
						if a.comm[i] != wantComm[i] {
							t.Fatalf("%d ranks, sweep %d, parity %d: vertex %d moved to %d, oracle %d",
								ranks, iters, parity, a.lo+i, a.comm[i], wantComm[i])
						}
						if wantComm[i] != snapshot[i] {
							moves++
						}
					}
					touched := 0
					for p, c := range a.need {
						want, ok := wantDeltas[c]
						if ok != a.moved[p] || math.Float64bits(want) != math.Float64bits(a.delta[p]) {
							t.Fatalf("%d ranks, sweep %d, parity %d: community %d delta %v (moved %v), oracle %v (%v)",
								ranks, iters, parity, c, a.delta[p], a.moved[p], want, ok)
						}
						if ok {
							touched++
						}
					}
					if touched != len(wantDeltas) {
						t.Fatalf("oracle moved %d communities, %d of them in need", len(wantDeltas), touched)
					}
					if iters == 1 && moves == 0 {
						t.Fatalf("%d ranks, parity %d: no vertex moved; the comparison is vacuous", ranks, parity)
					}
					copy(a.comm, snapshot)
				}
			}
		}
	}
}

// ownedRange's closed form must be the block owner() defines.
func TestOwnedRangeMatchesOwner(t *testing.T) {
	for _, n := range []int{16, 100, 1000} {
		for _, size := range []int{1, 3, 7, 16} {
			a := &App{n: n, size: size}
			for rank := 0; rank < size; rank++ {
				lo, hi := a.ownedRange(rank)
				for v := 0; v < n; v++ {
					if owned := v >= lo && v < hi; owned != (a.owner(v) == rank) {
						t.Fatalf("n=%d size=%d: rank %d range [%d,%d) but owner(%d)=%d", n, size, rank, lo, hi, v, a.owner(v))
					}
				}
			}
		}
	}
}

// BenchmarkLouvainSweep is one rank's share of a sweep in the 16-rank
// Small cell (512 owned vertices), communication excluded: index the
// labels, then move every vertex of one parity.
func BenchmarkLouvainSweep(b *testing.B) {
	a := sweepFixture(b, 16, 8192, 3)[5]
	snapshot := append([]int64(nil), a.comm...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.indexLabels()
		a.sweep(i)
		copy(a.comm, snapshot)
	}
}
