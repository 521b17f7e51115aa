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
//
// A sweep works on slices, not maps: a neighbour is an index into one label
// array (owned vertices, then ghost slots assigned in Init), the labels in
// sight are sorted once into need, and per-community quantities — sigma,
// links, deltas — are arrays over positions in need. Everything that
// travels is built from need, so each message lists labels in ascending
// order. The move rule is order-independent (largest gain, then smallest
// label) and the sums that reach the Signature are of integers, so the
// representation is free to change where the messages and moves are not.
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

	// adj lists each owned vertex's neighbours as indices into label:
	// owned vertex v is v-lo, ghost slot s is (hi-lo)+s.
	adj [][]int32
	deg []float64
	m2  float64 // 2m: total edge weight doubled

	comm     []int64   // community label per owned vertex (protected)
	sigmaTot []float64 // per owned *community label*: sum of member degrees (protected)
	mod      float64   // last modularity (protected)

	// plan: for each peer rank, which of our owned vertices they need
	// labels for (their boundary neighbors), precomputed in Init.
	pushPlan [][]int64
	// ghosts are the remote neighbours of our vertices, ascending; a
	// ghost's position here is its slot.
	ghosts []int

	// What follows is rebuilt every sweep into storage kept from the last.

	label []int64    // community of every owned vertex, then of every ghost, as of the last refresh
	need  []int64    // the distinct labels in label, ascending
	runs  []ownerRun // need cut by owning rank
	at    []int32    // label[k] is need[at[k]]
	sigma []float64  // sigmaTot of need[p], fetched from its owner
	links []float64  // edges from the vertex being moved into need[p]; zero between vertices
	seen  []int32    // the p with links[p] != 0
	delta []float64  // what this sweep's moves add to need[p]'s sigmaTot
	moved []bool     // need[p] lost or gained a vertex this sweep
	i64   []int64    // outgoing payloads
	f64   []float64  // outgoing sigmaTot answers
}

// ownerRun says need[from:to] are the labels rank owner owns.
type ownerRun struct{ owner, from, to int }

// New returns a miniVite instance.
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "miniVite" }

func (a *App) owner(v int) int {
	return v * a.size / a.n
}

// ownedRange is the block [lo, hi) of vertices owner() maps to rank:
// v*size/n == rank exactly when ceil(rank*n/size) <= v < ceil((rank+1)*n/size).
func (a *App) ownedRange(rank int) (int, int) {
	return (rank*a.n + a.size - 1) / a.size, ((rank+1)*a.n + a.size - 1) / a.size
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
	nbrs := make([][]int, nLocal) // adjacency in global vertex ids
	addLocal := func(v, u int) {
		nbrs[v-a.lo] = append(nbrs[v-a.lo], u)
	}
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
	for i, nb := range nbrs {
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

	// Ghost slots, and the push plan: the peers that neighbor our owned
	// vertices, each with those vertices in ascending order.
	a.ghosts = a.ghosts[:0]
	a.pushPlan = make([][]int64, a.size)
	for i, nb := range nbrs {
		v := int64(a.lo + i)
		for _, u := range nb {
			if u >= a.lo && u < a.hi {
				continue
			}
			a.ghosts = append(a.ghosts, u)
			o := a.owner(u)
			if l := a.pushPlan[o]; len(l) == 0 || l[len(l)-1] != v {
				a.pushPlan[o] = append(l, v)
			}
		}
	}
	slices.Sort(a.ghosts)
	a.ghosts = slices.Compact(a.ghosts)
	a.adj = make([][]int32, nLocal)
	for i, nb := range nbrs {
		a.adj[i] = make([]int32, len(nb))
		for k, u := range nb {
			if u >= a.lo && u < a.hi {
				a.adj[i][k] = int32(u - a.lo)
			} else {
				slot, _ := slices.BinarySearch(a.ghosts, u)
				a.adj[i][k] = int32(nLocal + slot)
			}
		}
	}
	a.label = make([]int64, nLocal+len(a.ghosts))

	ctx.FTI.Protect(1, fti.I64s{P: &a.comm})
	ctx.FTI.Protect(2, fti.F64s{P: &a.sigmaTot})
	ctx.FTI.Protect(3, fti.F64{P: &a.mod})
	return nil
}

// refreshRemote pushes our boundary vertices' labels to subscribers and
// brings label up to date: the ghosts from what the peers pushed (one sparse
// exchange, like miniVite's ghost communication), our own from comm.
func (a *App) refreshRemote(ctx *appkit.Context) error {
	// Every payload is a stretch of one buffer; the exchange copies it out.
	buf := a.i64[:0]
	send := make(map[int][]int64)
	for o, list := range a.pushPlan {
		if len(list) == 0 {
			continue
		}
		from := len(buf)
		for _, v := range list {
			buf = append(buf, v, a.comm[int(v)-a.lo])
		}
		send[o] = buf[from:]
	}
	a.i64 = buf
	recv, err := mpi.SparseExchangeI64(ctx.R, ctx.World, send)
	if err != nil {
		return err
	}
	nLocal := a.hi - a.lo
	for _, vals := range recv {
		for i := 0; i+1 < len(vals); i += 2 {
			if slot, ok := slices.BinarySearch(a.ghosts, int(vals[i])); ok {
				a.label[nLocal+slot] = vals[i+1]
			}
		}
	}
	copy(a.label, a.comm)
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

// indexLabels lists the communities of interest — our vertices' and their
// neighbours' — as need, cut into one run per owning rank (need ascends and
// owner() never decreases), and points every entry of label at its place
// in need, so the sweep works on small dense integers.
func (a *App) indexLabels() {
	a.need = append(a.need[:0], a.label...)
	slices.Sort(a.need)
	a.need = slices.Compact(a.need)
	a.runs = a.runs[:0]
	for p, c := range a.need {
		if o := a.owner(int(c)); p == 0 || a.runs[len(a.runs)-1].owner != o {
			a.runs = append(a.runs, ownerRun{owner: o, from: p})
		}
		a.runs[len(a.runs)-1].to = p + 1
	}
	a.at = appkit.Grow(a.at, len(a.label))
	for k, c := range a.label {
		p, _ := slices.BinarySearch(a.need, c)
		a.at[k] = int32(p)
	}
}

// fetchSigma gathers sigmaTot for the labels in need from their owners
// (request/response, two sparse exchanges) into sigma.
func (a *App) fetchSigma(ctx *appkit.Context) error {
	reqs := make(map[int][]int64, len(a.runs))
	for _, r := range a.runs {
		reqs[r.owner] = a.need[r.from:r.to]
	}
	got, err := mpi.SparseExchangeI64(ctx.R, ctx.World, reqs)
	if err != nil {
		return err
	}
	resp := make(map[int][]byte, len(got))
	for o, asked := range got {
		a.f64 = appkit.Grow(a.f64, len(asked))
		for i, c := range asked {
			a.f64[i] = a.sigmaTot[int(c)-a.lo]
		}
		resp[o] = enc.Float64sToBytes(a.f64)
	}
	back, err := mpi.SparseExchange(ctx.R, ctx.World, resp)
	if err != nil {
		return err
	}
	a.sigma = appkit.Grow(a.sigma, len(a.need))
	for _, r := range a.runs {
		if len(back[r.owner]) != 8*(r.to-r.from) {
			return fmt.Errorf("minivite: rank %d answered %d bytes for %d labels", r.owner, len(back[r.owner]), r.to-r.from)
		}
		enc.FillFloat64s(a.sigma[r.from:r.to], back[r.owner])
	}
	return nil
}

// sweep makes the best modularity-gain move of every owned vertex whose
// parity is iter's — the standard trick against label oscillation — and
// records what the moves do to the community totals in delta and moved.
// Every decision reads label and sigma as they were when the sweep began.
// The choice does not depend on the order candidates are met in: the
// largest gain wins, and among equal positive gains the smallest label.
func (a *App) sweep(iter int) {
	a.links = appkit.Grow(a.links, len(a.need))
	a.delta = appkit.Grow(a.delta, len(a.need))
	a.moved = appkit.Grow(a.moved, len(a.need))
	clear(a.delta)
	clear(a.moved)
	seen := a.seen
	for i, nb := range a.adj {
		if (a.lo+i)%2 != iter%2 {
			continue
		}
		// Links from v to each candidate community.
		seen = seen[:0]
		for _, k := range nb {
			p := a.at[k]
			if a.links[p] == 0 {
				seen = append(seen, p)
			}
			a.links[p]++
		}
		cur, ki := a.at[i], a.deg[i]
		kcur := a.links[cur]
		scur := a.sigma[cur] - ki // community totals without v
		best, bestGain := cur, 0.0
		for _, p := range seen {
			if p != cur {
				gain := a.links[p] - kcur - ki*(a.sigma[p]-scur)/a.m2
				if gain > bestGain || (gain == bestGain && gain > 0 && p < best) {
					best, bestGain = p, gain
				}
			}
			a.links[p] = 0
		}
		if best != cur {
			a.delta[cur] -= ki
			a.delta[best] += ki
			a.moved[cur], a.moved[best] = true, true
			a.comm[i] = a.need[best]
		}
	}
	a.seen = seen
}

// Step implements appkit.App: one Louvain phase-1 sweep. All move
// decisions read the sweep-start snapshot of community labels (local and
// remote alike), so the result is independent of how vertices are
// distributed across ranks.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	if err := a.refreshRemote(ctx); err != nil {
		return err
	}
	a.indexLabels()
	if err := a.fetchSigma(ctx); err != nil {
		return err
	}
	a.sweep(iter)
	ctx.Charge(float64(len(a.adj)) * (2*extraDegree + 8))
	// Ship sigmaTot deltas to the community owners, as (label, delta) pairs
	// in label order.
	buf := a.i64[:0]
	out := make(map[int][]int64)
	for _, r := range a.runs {
		from := len(buf)
		for p := r.from; p < r.to; p++ {
			if a.moved[p] {
				buf = append(buf, a.need[p], int64(a.delta[p]*1024)) // fixed-point to stay in int64 lanes
			}
		}
		if len(buf) > from {
			out[r.owner] = buf[from:]
		}
	}
	a.i64 = buf
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
		for _, k := range nb {
			if a.label[k] == a.label[i] {
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
