// Package minivite reproduces the miniVite proxy application: the first
// phase of the distributed Louvain method for graph community detection.
// Vertices are block-distributed; every iteration exchanges boundary
// community labels and community weight aggregates with alltoallv-style
// traffic, applies the best modularity-gain moves, and reduces the global
// modularity — the structure of miniVite's main loop.
//
// The input graph is a deterministic synthetic generator (ring plus seeded
// random long-range edges), standing in for miniVite's -l (random
// geometric) generator at reduced scale.
package minivite

import (
	"fmt"
	"slices"

	"match/internal/apps/appkit"
	"match/internal/enc"
	"match/internal/fti"
	"match/internal/mpi"
)

const extraDegree = 4 // random edges added per vertex

// App is the miniVite state for one rank.
type App struct {
	n          int // global vertices
	lo, hi     int // owned range [lo, hi)
	rank, size int

	adj [][]int // local adjacency (global vertex ids)
	deg []float64
	m2  float64 // 2m: total edge weight doubled

	comm     []int64   // community label per owned vertex (protected)
	sigmaTot []float64 // per owned *community label*: sum of member degrees (protected)
	mod      float64   // last modularity (protected)

	// plan: for each peer rank, which of our owned vertices they need
	// labels for (their boundary neighbors), precomputed in Init.
	pushPlan [][]int64
	// remote neighbor labels cache: global id -> community.
	remote map[int]int64
}

// New returns a miniVite instance.
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "miniVite" }

func (a *App) owner(v int) int {
	return v * a.size / a.n
}

func (a *App) ownedRange(rank int) (int, int) {
	lo := (rank*a.n + a.size - 1) / a.size
	_ = lo
	// Block partition consistent with owner().
	loV := 0
	for v := 0; v < a.n; v++ {
		if a.owner(v) == rank {
			loV = v
			break
		}
	}
	hiV := loV
	for v := loV; v < a.n && a.owner(v) == rank; v++ {
		hiV = v + 1
	}
	return loV, hiV
}

func hash64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Init implements appkit.App: build the distributed graph and initial
// singleton communities.
func (a *App) Init(ctx *appkit.Context) error {
	p := ctx.Params
	a.n = p.NVerts
	if a.n <= 0 {
		return fmt.Errorf("minivite: bad vertex count %d", a.n)
	}
	a.rank, a.size = ctx.Rank(), ctx.Size()
	a.lo, a.hi = a.ownedRange(a.rank)
	nLocal := a.hi - a.lo

	// Generate edges: ring + extraDegree seeded random per vertex, drawn
	// from a local window around the vertex — the spatial locality of
	// miniVite's -l random geometric graphs, which also gives the graph
	// community structure for Louvain to find. Each rank generates draws
	// for its owned vertices and ships the mirror endpoints to their
	// owners so adjacency is symmetric.
	window := a.n / 16
	if window < 8 {
		window = 8
	}
	outbound := make(map[int][]int64)
	addLocal := func(v, u int) {
		a.adj[v-a.lo] = append(a.adj[v-a.lo], u)
	}
	a.adj = make([][]int, nLocal)
	for v := a.lo; v < a.hi; v++ {
		next := (v + 1) % a.n
		prev := (v - 1 + a.n) % a.n
		addLocal(v, next)
		addLocal(v, prev)
		for t := 0; t < extraDegree; t++ {
			off := int(hash64(uint64(v)*31+uint64(t)+uint64(p.Seed)*1e6)%uint64(window)) - window/2
			u := ((v+off)%a.n + a.n) % a.n
			if u == v {
				continue
			}
			addLocal(v, u)
			o := a.owner(u)
			outbound[o] = append(outbound[o], int64(u), int64(v))
		}
	}
	recv, err := mpi.SparseExchangeI64(ctx.R, ctx.World, outbound)
	if err != nil {
		return err
	}
	for _, src := range sortedKeys(recv) {
		vals := recv[src]
		for i := 0; i+1 < len(vals); i += 2 {
			u, v := int(vals[i]), int(vals[i+1])
			addLocal(u, v) // mirror edge u->v for owned u
		}
	}
	a.deg = make([]float64, nLocal)
	localEdges := 0.0
	for i, nb := range a.adj {
		a.deg[i] = float64(len(nb))
		localEdges += a.deg[i]
	}
	a.m2, err = appkit.SumAll(ctx, localEdges)
	if err != nil {
		return err
	}

	// Singleton communities; sigmaTot for community label v (owned by the
	// same rank as vertex v) starts at deg(v).
	a.comm = make([]int64, nLocal)
	a.sigmaTot = make([]float64, nLocal)
	for i := range a.comm {
		a.comm[i] = int64(a.lo + i)
		a.sigmaTot[i] = a.deg[i]
	}
	a.remote = make(map[int]int64)

	// Push plan: peers that neighbor our owned vertices.
	subs := make([]map[int]bool, a.size)
	for i, nb := range a.adj {
		for _, u := range nb {
			o := a.owner(u)
			if o != a.rank {
				if subs[o] == nil {
					subs[o] = make(map[int]bool)
				}
				subs[o][a.lo+i] = true
			}
		}
	}
	a.pushPlan = make([][]int64, a.size)
	for o, set := range subs {
		if set == nil {
			continue
		}
		for v := a.lo; v < a.hi; v++ {
			if set[v] {
				a.pushPlan[o] = append(a.pushPlan[o], int64(v))
			}
		}
	}

	ctx.FTI.Protect(1, fti.I64s{P: &a.comm})
	ctx.FTI.Protect(2, fti.F64s{P: &a.sigmaTot})
	ctx.FTI.Protect(3, fti.F64{P: &a.mod})
	return nil
}

// refreshRemote pushes our boundary vertices' labels to subscribers and
// rebuilds the remote label cache (one sparse exchange, like miniVite's
// ghost communication).
func (a *App) refreshRemote(ctx *appkit.Context) error {
	send := make(map[int][]int64)
	for o, list := range a.pushPlan {
		if len(list) == 0 {
			continue
		}
		payload := make([]int64, 0, 2*len(list))
		for _, v := range list {
			payload = append(payload, v, a.comm[int(v)-a.lo])
		}
		send[o] = payload
	}
	recv, err := mpi.SparseExchangeI64(ctx.R, ctx.World, send)
	if err != nil {
		return err
	}
	for _, src := range sortedKeys(recv) {
		vals := recv[src]
		for i := 0; i+1 < len(vals); i += 2 {
			a.remote[int(vals[i])] = vals[i+1]
		}
	}
	return nil
}

func sortedKeys(m map[int][]int64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// communityOf returns the current community of any vertex we can see.
func (a *App) communityOf(v int) int64 {
	if v >= a.lo && v < a.hi {
		return a.comm[v-a.lo]
	}
	return a.remote[v]
}

// fetchSigma gathers sigmaTot for a set of community labels from their
// owners (request/response, two sparse exchanges).
func (a *App) fetchSigma(ctx *appkit.Context, labels map[int64]bool) (map[int64]float64, error) {
	reqs := make(map[int][]int64)
	for c := range labels {
		o := a.owner(int(c))
		reqs[o] = append(reqs[o], c)
	}
	for _, v := range reqs {
		slices.Sort(v)
	}
	got, err := mpi.SparseExchangeI64(ctx.R, ctx.World, reqs)
	if err != nil {
		return nil, err
	}
	resp := make(map[int][]byte)
	for o, asked := range got {
		vals := make([]float64, len(asked))
		for i, c := range asked {
			vals[i] = a.sigmaTot[int(c)-a.lo]
		}
		resp[o] = enc.Float64sToBytes(vals)
	}
	back, err := mpi.SparseExchange(ctx.R, ctx.World, resp)
	if err != nil {
		return nil, err
	}
	out := make(map[int64]float64, len(labels))
	for o, b := range back {
		vals := enc.BytesToFloat64s(b)
		for i, c := range reqs[o] {
			out[c] = vals[i]
		}
	}
	return out, nil
}

// Step implements appkit.App: one Louvain phase-1 sweep. All move
// decisions read the sweep-start snapshot of community labels (local and
// remote alike), so the result is independent of how vertices are
// distributed across ranks.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	if err := a.refreshRemote(ctx); err != nil {
		return err
	}
	snapshot := append([]int64(nil), a.comm...)
	commAt := func(v int) int64 {
		if v >= a.lo && v < a.hi {
			return snapshot[v-a.lo]
		}
		return a.remote[v]
	}
	// Communities of interest: neighbors' communities plus our own.
	need := make(map[int64]bool)
	for i, nb := range a.adj {
		need[snapshot[i]] = true
		for _, u := range nb {
			need[commAt(u)] = true
		}
	}
	sigma, err := a.fetchSigma(ctx, need)
	if err != nil {
		return err
	}
	// Best-gain moves. Only even (odd) vertices move on even (odd)
	// iterations, the standard trick against label oscillation.
	deltas := make(map[int64]float64) // community -> sigmaTot delta
	moves := 0
	for i, nb := range a.adj {
		v := a.lo + i
		if v%2 != iter%2 {
			continue
		}
		cur := snapshot[i]
		// Links from v to each candidate community.
		links := make(map[int64]float64)
		for _, u := range nb {
			links[commAt(u)]++
		}
		ki := a.deg[i]
		best, bestGain := cur, 0.0
		for c, kin := range links {
			if c == cur {
				continue
			}
			sc := sigma[c]
			scur := sigma[cur] - ki // community totals without v
			gain := kin - links[cur] - ki*(sc-scur)/a.m2
			if gain > bestGain || (gain == bestGain && gain > 0 && c < best) {
				best, bestGain = c, gain
			}
		}
		if best != cur {
			deltas[cur] -= ki
			deltas[best] += ki
			a.comm[i] = best
			moves++
		}
	}
	ctx.Charge(float64(len(a.adj)) * (2*extraDegree + 8))
	// Ship sigmaTot deltas to the community owners, as (label, delta) pairs
	// in label order.
	moved := make([]int64, 0, len(deltas))
	for c := range deltas {
		moved = append(moved, c)
	}
	slices.Sort(moved)
	out := make(map[int][]int64)
	for _, c := range moved {
		o := a.owner(int(c))
		out[o] = append(out[o], c, int64(deltas[c]*1024)) // fixed-point to stay in int64 lanes
	}
	recv, err := mpi.SparseExchangeI64(ctx.R, ctx.World, out)
	if err != nil {
		return err
	}
	for _, src := range sortedKeys(recv) {
		vals := recv[src]
		for i := 0; i+1 < len(vals); i += 2 {
			c := int(vals[i])
			a.sigmaTot[c-a.lo] += float64(vals[i+1]) / 1024
		}
	}
	// Global modularity: sum of in-community link fractions minus expected.
	if err := a.refreshRemote(ctx); err != nil {
		return err
	}
	localIn := 0.0
	for i, nb := range a.adj {
		for _, u := range nb {
			if a.communityOf(u) == a.comm[i] {
				localIn++
			}
		}
	}
	localSq := 0.0
	for _, s := range a.sigmaTot {
		localSq += s * s
	}
	in, err := appkit.SumAll(ctx, localIn)
	if err != nil {
		return err
	}
	sq, err := appkit.SumAll(ctx, localSq)
	if err != nil {
		return err
	}
	a.mod = in/a.m2 - sq/(a.m2*a.m2)
	return nil
}

// Signature implements appkit.App: final modularity plus the global
// community-label checksum.
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	local := 0.0
	for i, c := range a.comm {
		local += float64(c) * float64(a.lo+i+1)
	}
	sum, err := appkit.SumAll(ctx, local)
	if err != nil {
		return 0, err
	}
	return a.mod*1e6 + sum, nil
}

// Modularity returns the last computed global modularity.
func (a *App) Modularity() float64 { return a.mod }
