// Package comd reproduces the CoMD proxy application: classical molecular
// dynamics with a Lennard-Jones potential on an FCC lattice in a periodic
// box, 3D spatial decomposition, per-step ghost-atom exchange, and atom
// migration between ranks as particles move. The integrator is the
// symplectic kick-drift form, which keeps the checkpointable state to
// positions and velocities only (forces are recomputed), exactly what the
// paper's data-object analysis selects for checkpointing.
//
// Forces come from a Verlet neighbour list kept between steps. A slot is a
// local atom j, or ghost g as n+g. The list holds, for each local atom,
// every other slot that was within cutoff+skin of it when the list was
// built, in ascending slot order. It is built through link cells, as in
// CoMD itself, at least half that radius wide: an atom's candidates are the
// slots of the 5x5x5 cells around its own. Migration and the ghost exchange
// reorder the slots every step, so a step does not read the list by slot
// number. It matches each slot to a distinct build slot less than half a
// skin from it and walks the matched slots' lists, mapped to current slots
// and sorted again. An atom that was a ghost at the build and has since
// migrated in is listed, from the kept link cells, the first time it is
// needed. This is sound: two slots now within a cutoff matched distinct
// build slots, each less than half a skin away, and each axis's
// minimum-image |wrap(d)| is 1-Lipschitz in d, so those two were within
// cutoff+skin at the build. Only a slot with no free build slot that near
// makes the list rebuilt.
//
// The list decides which pairs are looked at, never what is added: every
// entry goes through the same minimum-image and cutoff test, and the
// accepted terms of an atom are summed in ascending slot order, locals
// before ghosts — the order of a scan over all pairs. Virtual time comes
// from ctx.Charge alone, so the kernel may get faster, but the Signature
// keeps its bits only while that order holds.
package comd

import (
	"fmt"
	"math"

	"match/internal/apps/appkit"
	"match/internal/enc"
	"match/internal/fti"
)

// Model constants (reduced LJ units).
const (
	lat     = 1.5874 // FCC lattice parameter
	cutoff  = 1.45   // LJ cutoff: first-neighbor shell
	dt      = 0.004  // timestep
	epsilon = 1.0
	sigma   = 1.0
)

// App is the CoMD state for one rank.
type App struct {
	d          *appkit.Decomp3D // decomposition of the cell grid
	glob       [3]float64       // global box edge lengths
	lo, hi     [3]float64       // local box bounds
	x, y, z    []float64        // positions (protected)
	vx, vy, vz []float64        // velocities (protected)
	fx, fy, fz []float64        // forces (recomputed)
	gx, gy, gz []float64        // ghost positions

	list verletList // forces: the neighbour list
	stay []int      // migrate scratch: the atoms staying on this axis

	pe, ke float64
	energy float64 // last total energy (protected)
}

// New returns a CoMD instance.
func New() *App { return &App{} }

// Name implements appkit.App.
func (a *App) Name() string { return "CoMD" }

// hash64 is a deterministic mixer for initial velocities.
func hash64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Init implements appkit.App: place FCC atoms in the local box.
func (a *App) Init(ctx *appkit.Context) error {
	p := ctx.Params
	if p.NX <= 0 {
		return fmt.Errorf("comd: bad lattice %dx%dx%d", p.NX, p.NY, p.NZ)
	}
	a.d = appkit.NewDecomp3D(ctx.Rank(), ctx.Size(), p.NX, p.NY, p.NZ)
	a.glob = [3]float64{float64(p.NX) * lat, float64(p.NY) * lat, float64(p.NZ) * lat}
	a.lo = [3]float64{float64(a.d.OX) * lat, float64(a.d.OY) * lat, float64(a.d.OZ) * lat}
	a.hi = [3]float64{float64(a.d.OX+a.d.LX) * lat, float64(a.d.OY+a.d.LY) * lat, float64(a.d.OZ+a.d.LZ) * lat}

	basis := [4][3]float64{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	a.x, a.y, a.z = nil, nil, nil
	a.vx, a.vy, a.vz = nil, nil, nil
	for cz := a.d.OZ; cz < a.d.OZ+a.d.LZ; cz++ {
		for cy := a.d.OY; cy < a.d.OY+a.d.LY; cy++ {
			for cx := a.d.OX; cx < a.d.OX+a.d.LX; cx++ {
				for b, off := range basis {
					px := (float64(cx) + off[0]) * lat
					py := (float64(cy) + off[1]) * lat
					pz := (float64(cz) + off[2]) * lat
					id := uint64(((cz*p.NY+cy)*p.NX+cx)*4 + b)
					h := hash64(id ^ uint64(p.Seed))
					// Small deterministic thermal velocities.
					sv := func(bits uint64) float64 {
						return (float64(bits&0xffff)/65535 - 0.5) * 0.2
					}
					a.x = append(a.x, px)
					a.y = append(a.y, py)
					a.z = append(a.z, pz)
					a.vx = append(a.vx, sv(h))
					a.vy = append(a.vy, sv(h>>16))
					a.vz = append(a.vz, sv(h>>32))
				}
			}
		}
	}
	ctx.FTI.Protect(1, fti.F64s{P: &a.x})
	ctx.FTI.Protect(2, fti.F64s{P: &a.y})
	ctx.FTI.Protect(3, fti.F64s{P: &a.z})
	ctx.FTI.Protect(4, fti.F64s{P: &a.vx})
	ctx.FTI.Protect(5, fti.F64s{P: &a.vy})
	ctx.FTI.Protect(6, fti.F64s{P: &a.vz})
	ctx.FTI.Protect(7, fti.F64{P: &a.energy})
	return nil
}

const (
	tagGhostLo = 3100 + iota
	tagGhostHi
	tagMigLo
	tagMigHi
)

// axisVals returns pointers to the coordinate slices for an axis.
func (a *App) axisVals(ax int) []float64 {
	switch ax {
	case 0:
		return a.x
	case 1:
		return a.y
	default:
		return a.z
	}
}

// exchangeGhosts rebuilds ghost positions from the six neighbors with the
// three-phase scheme; coordinates crossing the periodic boundary are
// shifted so receivers see continuous positions.
func (a *App) exchangeGhosts(ctx *appkit.Context) error {
	a.gx, a.gy, a.gz = a.gx[:0], a.gy[:0], a.gz[:0]
	dims := [3][3]int{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}}
	for ax := 0; ax < 3; ax++ {
		loNbr := a.d.NeighborWrap(dims[ax][0], dims[ax][1], dims[ax][2])
		hiNbr := a.d.NeighborWrap(-dims[ax][0], -dims[ax][1], -dims[ax][2])
		if loNbr == ctx.Rank() && hiNbr == ctx.Rank() {
			continue // single rank in this axis: minimum image handles it
		}
		// Collect border atoms from locals plus already-received ghosts,
		// straight into the payload: x, y, z per atom. Count them first so
		// the payload is made once.
		collect := func(takeLo bool) []byte {
			lim, shift := a.hi[ax]-cutoff, 0.0
			if takeLo {
				lim = a.lo[ax] + cutoff
			}
			// A lo border atom is below lim, a hi one at or above it.
			border := func(c float64) bool { return (c < lim) == takeLo }
			if takeLo && a.loEdge(ax) {
				shift = a.glob[ax]
			} else if !takeLo && a.hiEdge(ax) {
				shift = -a.glob[ax]
			}
			vals, gvals := a.axisVals(ax), a.ghostAxis(ax)
			count := 0
			for _, vs := range [2][]float64{vals, gvals} {
				for _, c := range vs {
					if border(c) {
						count++
					}
				}
			}
			out := make([]byte, 0, 24*count)
			for i, c := range vals {
				if border(c) {
					out = a.appendShifted(out, a.x[i], a.y[i], a.z[i], ax, shift)
				}
			}
			for i, c := range gvals {
				if border(c) {
					out = a.appendShifted(out, a.gx[i], a.gy[i], a.gz[i], ax, shift)
				}
			}
			return out
		}
		fromLo, fromHi, err := appkit.Swap(ctx, loNbr, hiNbr, tagGhostLo, tagGhostHi, collect(true), collect(false))
		if err != nil {
			return err
		}
		for _, b := range [2][]byte{fromLo, fromHi} {
			for o := 0; o+24 <= len(b); o += 24 {
				a.gx = append(a.gx, enc.Float64(b[o:]))
				a.gy = append(a.gy, enc.Float64(b[o+8:]))
				a.gz = append(a.gz, enc.Float64(b[o+16:]))
			}
		}
	}
	return nil
}

func (a *App) loEdge(ax int) bool {
	switch ax {
	case 0:
		return a.d.CX == 0
	case 1:
		return a.d.CY == 0
	default:
		return a.d.CZ == 0
	}
}

func (a *App) hiEdge(ax int) bool {
	switch ax {
	case 0:
		return a.d.CX == a.d.PX-1
	case 1:
		return a.d.CY == a.d.PY-1
	default:
		return a.d.CZ == a.d.PZ-1
	}
}

func (a *App) appendShifted(out []byte, px, py, pz float64, ax int, shift float64) []byte {
	switch ax {
	case 0:
		px += shift
	case 1:
		py += shift
	default:
		pz += shift
	}
	return appendF64s(out, px, py, pz)
}

// appendF64s appends vs to a payload in enc.Float64sToBytes' encoding.
func appendF64s(out []byte, vs ...float64) []byte {
	for _, v := range vs {
		out = enc.AppendFloat64(out, v)
	}
	return out
}

func (a *App) ghostAxis(ax int) []float64 {
	switch ax {
	case 0:
		return a.gx
	case 1:
		return a.gy
	default:
		return a.gz
	}
}

// ljShift makes the potential continuous at the cutoff: e(cutoff) = 0.
var ljShift = func() float64 {
	s6 := math.Pow(sigma/cutoff, 6)
	return 4 * epsilon * (s6*s6 - s6)
}()

// forces computes LJ forces and potential energy; ghosts must be current.
func (a *App) forces(ctx *appkit.Context) {
	n := len(a.x)
	a.pairForces()
	ctx.Charge(float64(n*(n+len(a.gx))) * 0.6)
}

// vec is a position.
type vec struct{ x, y, z float64 }

// wrap is the minimum image of a displacement d along an axis of length l
// (h = l/2): the nearest periodic copy.
func wrap(d, l, h float64) float64 {
	if d > h {
		return d - l
	} else if d < -h {
		return d + l
	}
	return d
}

// pairForces evaluates each local atom against its neighbour list and adds
// the accepted pairs in ascending slot order, locals before ghosts — the
// order of the all-pairs scan the list replaces, so every force and the
// energy keep their bits.
func (a *App) pairForces() {
	n := len(a.x)
	a.fx = appkit.Grow(a.fx, n)
	a.fy = appkit.Grow(a.fy, n)
	a.fz = appkit.Grow(a.fz, n)
	l := &a.list
	start, js, ok := l.follow(a)
	if !ok {
		l.build(a.glob, n)
		start, js = l.start, l.js
	}
	rc2 := cutoff * cutoff
	lx, ly, lz := a.glob[0], a.glob[1], a.glob[2]
	hx, hy, hz := lx/2, ly/2, lz/2
	ps := l.p
	pe := 0.0
	for i, pi := range ps[:n] {
		var fx, fy, fz float64
		for _, j := range js[start[i]:start[i+1]] {
			pj := ps[j]
			dx := wrap(pi.x-pj.x, lx, hx)
			dy := wrap(pi.y-pj.y, ly, hy)
			dz := wrap(pi.z-pj.z, lz, hz)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			inv2 := sigma * sigma / r2
			inv6 := inv2 * inv2 * inv2
			f := 24 * epsilon * inv6 * (2*inv6 - 1) / r2
			fx += f * dx
			fy += f * dy
			fz += f * dz
			pe += (4*epsilon*inv6*(inv6-1) - ljShift) / 2
		}
		a.fx[i], a.fy[i], a.fz[i] = fx, fy, fz
	}
	a.pe = pe
}

// skin is how much further than the cutoff a neighbour list reaches. It is
// below the 0.137 gap between the cutoff and the FCC second shell (1.587),
// so a list holds little more than the 12 first-shell neighbours.
const skin = 0.1

// reach is the radius a list is built at; drift is how far a slot may be
// from the position of the build slot it matches: half the skin, less a
// margin that dwarfs the rounding of the distance arithmetic.
const (
	reach = cutoff + skin
	drift = skin / 2 * (1 - 1e-6)
)

// verletList is the neighbour list pairForces walks, kept on the App
// between steps. Its lists are in build slots: local atom i's is
// js[start[i]:start[i+1]], every other build slot within reach of it,
// ascending. A ghost of the build gets one only once an atom that matches
// it has become local (mig).
type verletList struct {
	start []int32
	js    []int32
	mig   []span // build ghost g's list is js[mig[g].from:mig[g].to]; from is -1 until listed

	p, p0 []vec     // every slot's position, locals then ghosts: now, at the build
	n     int       // local atoms at the build
	cells linkCells // the build slots by cell, kept for follow and listOf

	match, cur  []int32 // follow: current slot -> build slot, build slot -> current slot (-1: none)
	rstart, rjs []int32 // follow: the current locals' lists in current slots

	// after is follow's first guess: after[b+1] is the build slot that the
	// slot after b's slot matched last step, after[0] the one slot 0 did.
	// The build sets after[b] = b.
	after []int32

	builds int // builds so far; only the package's tests read it
	remaps int // follow calls that walked remapped lists; only the package's tests read it
}

// span is a list's place in js.
type span struct{ from, to int32 }

// follow copies every slot's position into p, matches each slot to a
// distinct build slot within drift of it, and returns the current locals'
// lists in current slots: the build's own when every slot matched itself,
// otherwise the matched build slots' lists mapped through the match, with
// build slots nothing matched dropped and each list sorted again. ok is
// false when some slot has no free build slot within drift; the list must
// then be rebuilt. This is sound: two slots now within a cutoff matched
// distinct build slots, each within drift, and each axis's minimum-image
// |wrap(d)| is 1-Lipschitz in d, so those were within cutoff + 2*drift <
// reach at the build and each is in the other's list.
func (l *verletList) follow(a *App) (start, js []int32, ok bool) {
	n, m := len(a.x), len(a.x)+len(a.gx)
	l.p = appkit.Grow(l.p, m)
	for k := range a.x {
		l.p[k] = vec{a.x[k], a.y[k], a.z[k]}
	}
	for k := range a.gx {
		l.p[n+k] = vec{a.gx[k], a.gy[k], a.gz[k]}
	}
	if m > len(l.p0) { // more slots than build slots: some cannot match
		return nil, nil, false
	}
	l.match, l.cur = appkit.Grow(l.match, m), appkit.Grow(l.cur, len(l.p0))
	for b := range l.cur {
		l.cur[b] = -1
	}
	same := n == l.n && m == len(l.p0)
	b := -1
	for k, pk := range l.p {
		// Atoms that stay keep their order from step to step: try the
		// build slot that came after b's match last time before searching
		// the cells, and remember what came after it this time.
		next := &l.after[b+1]
		if b = int(*next); b >= len(l.p0) || l.cur[b] >= 0 || !near(pk, l.p0[b]) {
			if b = l.find(pk); b < 0 {
				return nil, nil, false
			}
			*next = int32(b)
		}
		l.match[k], l.cur[b] = int32(b), int32(k)
		same = same && b == k
	}
	if same {
		return l.start, l.js, true
	}
	l.rstart = appkit.Grow(l.rstart, n+1)
	l.rjs = l.rjs[:0]
	for i, bi := range l.match[:n] {
		l.rstart[i] = int32(len(l.rjs))
		for _, bj := range l.listAt(int(bi), a.glob) {
			if k := l.cur[bj]; k >= 0 {
				l.rjs = append(l.rjs, k)
			}
		}
		sortSlots(l.rjs[l.rstart[i]:])
	}
	l.rstart[n] = int32(len(l.rjs))
	l.remaps++
	return l.rstart, l.rjs, true
}

// near reports whether p is within drift of q, in raw coordinates.
func near(p, q vec) bool {
	dx, dy, dz := p.x-q.x, p.y-q.y, p.z-q.z
	return dx*dx+dy*dy+dz*dz < drift*drift
}

// find returns a build slot within drift of p that no slot has matched,
// or -1, searching only the link cells the drift ball around p touches.
func (l *verletList) find(p vec) int {
	lc := &l.cells
	x0, x1 := lc.coord(0, p.x-drift), lc.coord(0, p.x+drift)
	y0, y1 := lc.coord(1, p.y-drift), lc.coord(1, p.y+drift)
	z0, z1 := lc.coord(2, p.z-drift), lc.coord(2, p.z+drift)
	for kz := z0; kz <= z1; kz++ {
		for ky := y0; ky <= y1; ky++ {
			row := (kz*lc.nc[1] + ky) * lc.nc[0]
			for s := lc.start[row+x0]; s < lc.start[row+x1+1]; s++ {
				if b := lc.idx[s]; l.cur[b] < 0 && near(p, lc.p[s]) {
					return int(b)
				}
			}
		}
	}
	return -1
}

// listAt returns build slot b's list, listing a build ghost the first time
// it is asked for.
func (l *verletList) listAt(b int, glob [3]float64) []int32 {
	if b < l.n {
		return l.js[l.start[b]:l.start[b+1]]
	}
	g := &l.mig[b-l.n]
	if g.from < 0 {
		g.from = int32(len(l.js))
		l.listOf(b, glob)
		g.to = int32(len(l.js))
	}
	return l.js[g.from:g.to]
}

// build lists, for each of the n local atoms, every other slot within
// reach of it in a periodic box of edges glob, and keeps the positions it
// was built from and their link cells; follow must have run.
func (l *verletList) build(glob [3]float64, n int) {
	l.p0 = append(l.p0[:0], l.p...)
	l.cells.sort(l.p0, glob)
	l.start = appkit.Grow(l.start, n+1)
	l.js = l.js[:0]
	for i := 0; i < n; i++ {
		l.start[i] = int32(len(l.js))
		l.listOf(i, glob)
	}
	l.start[n] = int32(len(l.js))
	l.mig = appkit.Grow(l.mig, len(l.p0)-n)
	for g := range l.mig {
		l.mig[g] = span{-1, -1}
	}
	l.after = appkit.Grow(l.after, len(l.p0)+1)
	for b := range l.after {
		l.after[b] = int32(b)
	}
	l.n = n
	l.builds++
}

// listOf appends to js every build slot other than b within reach of b's
// build position, ascending: the slots of the 5x5x5 link cells around it
// that pass the distance test.
func (l *verletList) listOf(b int, glob [3]float64) {
	lc := &l.cells
	lx, ly, lz := glob[0], glob[1], glob[2]
	hx, hy, hz := lx/2, ly/2, lz/2
	pb := l.p0[b]
	at := len(l.js)
	cx, cy, cz := lc.coord(0, pb.x), lc.coord(1, pb.y), lc.coord(2, pb.z)
	for kz := max(cz-2, 0); kz <= min(cz+2, lc.nc[2]-1); kz++ {
		for ky := max(cy-2, 0); ky <= min(cy+2, lc.nc[1]-1); ky++ {
			// The x neighbours of a cell follow each other in cell
			// order: one run of candidates per (ky,kz).
			row := (kz*lc.nc[1] + ky) * lc.nc[0]
			from := lc.start[row+max(cx-2, 0)]
			to := lc.start[row+min(cx+2, lc.nc[0]-1)+1]
			js, ps := lc.idx[from:to], lc.p[from:to]
			for s, j := range js {
				if int(j) == b {
					continue
				}
				dx := wrap(pb.x-ps[s].x, lx, hx)
				dy := wrap(pb.y-ps[s].y, ly, hy)
				dz := wrap(pb.z-ps[s].z, lz, hz)
				if dx*dx+dy*dy+dz*dz < reach*reach {
					l.js = append(l.js, j)
				}
			}
		}
	}
	sortSlots(l.js[at:])
}

// sortSlots sorts one atom's list: a dozen or so slots, insertion sort.
func sortSlots(nb []int32) {
	for p := 1; p < len(nb); p++ {
		j := nb[p]
		q := p
		for ; q > 0 && nb[q-1] > j; q-- {
			nb[q] = nb[q-1]
		}
		nb[q] = j
	}
}

// cellWidth is the least link-cell edge: half a list's reach plus a margin
// that dwarfs the rounding of the cell arithmetic, so two atoms within
// reach of each other along an axis are never more than two cells apart.
const cellWidth = reach / 2 * (1 + 1e-6)

// linkCells holds the build slots counting-sorted by cell, their positions
// copied alongside so a cell's slots are contiguous. It is kept on the list
// and reused every build.
type linkCells struct {
	origin, scale [3]float64
	nc            [3]int // cells per axis

	cell  []int32 // cell of each slot
	start []int32 // cell c's slots are start[c]..start[c+1] of idx and p
	next  []int32 // fill cursor per cell
	idx   []int32 // slot, ascending within a cell
	p     []vec
}

// coord is the cell coordinate of position v along axis ax, clamped to
// the cells: a query may fall outside the extent they were laid over.
func (lc *linkCells) coord(ax int, v float64) int {
	c := int((v - lc.origin[ax]) * lc.scale[ax])
	return max(min(c, lc.nc[ax]-1), 0)
}

// sort lays the cells over the extent of the slots' positions ps and bins
// them. An axis the slots fill to within a reach of the periodic box gets
// a single cell: there two slots at opposite ends can be neighbours through
// the minimum image.
func (lc *linkCells) sort(ps []vec, glob [3]float64) {
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, p := range ps {
		for ax, v := range [3]float64{p.x, p.y, p.z} {
			lo[ax], hi[ax] = min(lo[ax], v), max(hi[ax], v)
		}
	}
	for ax := range lc.nc {
		lc.origin[ax], lc.scale[ax], lc.nc[ax] = lo[ax], 0, 1
		if ext := hi[ax] - lo[ax]; ext >= 2*cellWidth && ext <= glob[ax]-2*cellWidth {
			lc.nc[ax] = int(ext / cellWidth)
			lc.scale[ax] = float64(lc.nc[ax]) / ext
		}
	}
	cells, m := lc.nc[0]*lc.nc[1]*lc.nc[2], len(ps)
	lc.cell, lc.idx, lc.p = appkit.Grow(lc.cell, m), appkit.Grow(lc.idx, m), appkit.Grow(lc.p, m)
	lc.start, lc.next = appkit.Grow(lc.start, cells+1), appkit.Grow(lc.next, cells)
	clear(lc.start)
	for k, p := range ps {
		c := (lc.coord(2, p.z)*lc.nc[1]+lc.coord(1, p.y))*lc.nc[0] + lc.coord(0, p.x)
		lc.cell[k] = int32(c)
		lc.start[c+1]++
	}
	for c := 0; c < cells; c++ {
		lc.start[c+1] += lc.start[c]
	}
	copy(lc.next, lc.start)
	for k, p := range ps {
		c := lc.cell[k]
		at := lc.next[c]
		lc.next[c]++
		lc.idx[at] = int32(k)
		lc.p[at] = p
	}
}

// migrate moves atoms that left the local box to the owning neighbor,
// three-phase, with periodic wrapping.
func (a *App) migrate(ctx *appkit.Context) error {
	for ax := 0; ax < 3; ax++ {
		dx, dy, dz := 0, 0, 0
		switch ax {
		case 0:
			dx = 1
		case 1:
			dy = 1
		default:
			dz = 1
		}
		loNbr := a.d.NeighborWrap(-dx, -dy, -dz)
		hiNbr := a.d.NeighborWrap(dx, dy, dz)
		vals := a.axisVals(ax)
		stayIdx := a.stay[:0]
		nLo, nHi := 0, 0
		for _, c := range vals {
			if c < a.lo[ax] {
				nLo++
			} else if c >= a.hi[ax] {
				nHi++
			}
		}
		// x, y, z, vx, vy, vz per migrant
		loOut, hiOut := make([]byte, 0, 48*nLo), make([]byte, 0, 48*nHi)
		for i := range a.x {
			c := vals[i]
			switch {
			case c < a.lo[ax]:
				p := [3]float64{a.x[i], a.y[i], a.z[i]}
				if a.loEdge(ax) {
					p[ax] += a.glob[ax]
				}
				loOut = appendF64s(loOut, p[0], p[1], p[2], a.vx[i], a.vy[i], a.vz[i])
			case c >= a.hi[ax]:
				p := [3]float64{a.x[i], a.y[i], a.z[i]}
				if a.hiEdge(ax) {
					p[ax] -= a.glob[ax]
				}
				hiOut = appendF64s(hiOut, p[0], p[1], p[2], a.vx[i], a.vy[i], a.vz[i])
			default:
				stayIdx = append(stayIdx, i)
			}
		}
		a.stay = stayIdx
		if loNbr == ctx.Rank() && hiNbr == ctx.Rank() {
			// Single rank on this axis: wrap in place, nothing to send.
			for i := range a.x {
				if vals[i] < 0 {
					vals[i] += a.glob[ax]
				} else if vals[i] >= a.glob[ax] {
					vals[i] -= a.glob[ax]
				}
			}
			continue
		}
		// stayIdx ascends, so stayIdx[j] >= j: compacting in place never
		// overwrites an atom before it is read.
		keep := func(src []float64) []float64 {
			for j, i := range stayIdx {
				src[j] = src[i]
			}
			return src[:len(stayIdx)]
		}
		a.x, a.y, a.z = keep(a.x), keep(a.y), keep(a.z)
		a.vx, a.vy, a.vz = keep(a.vx), keep(a.vy), keep(a.vz)
		fromLo, fromHi, err := appkit.Swap(ctx, loNbr, hiNbr, tagMigLo, tagMigHi, loOut, hiOut)
		if err != nil {
			return err
		}
		for _, b := range [2][]byte{fromLo, fromHi} {
			for o := 0; o+48 <= len(b); o += 48 {
				a.x = append(a.x, enc.Float64(b[o:]))
				a.y = append(a.y, enc.Float64(b[o+8:]))
				a.z = append(a.z, enc.Float64(b[o+16:]))
				a.vx = append(a.vx, enc.Float64(b[o+24:]))
				a.vy = append(a.vy, enc.Float64(b[o+32:]))
				a.vz = append(a.vz, enc.Float64(b[o+40:]))
			}
		}
	}
	return nil
}

// Step implements appkit.App: one kick-drift MD step plus the global
// energy reduction CoMD reports every iteration.
func (a *App) Step(ctx *appkit.Context, iter int) error {
	if err := a.exchangeGhosts(ctx); err != nil {
		return err
	}
	a.forces(ctx)
	return a.advance(ctx)
}

// advance is the rest of a step once the forces are in: kick, drift,
// migration and the energy reduction.
func (a *App) advance(ctx *appkit.Context) error {
	a.ke = 0
	for i := range a.x {
		a.vx[i] += dt * a.fx[i]
		a.vy[i] += dt * a.fy[i]
		a.vz[i] += dt * a.fz[i]
		a.x[i] += dt * a.vx[i]
		a.y[i] += dt * a.vy[i]
		a.z[i] += dt * a.vz[i]
		a.ke += 0.5 * (a.vx[i]*a.vx[i] + a.vy[i]*a.vy[i] + a.vz[i]*a.vz[i])
	}
	ctx.Charge(float64(len(a.x)) * 12)
	if err := a.migrate(ctx); err != nil {
		return err
	}
	e, err := appkit.SumAll(ctx, a.ke+a.pe)
	if err != nil {
		return err
	}
	a.energy = e
	return nil
}

// Signature implements appkit.App: total energy plus global atom count
// (conservation check built in).
func (a *App) Signature(ctx *appkit.Context) (float64, error) {
	count, err := appkit.SumAll(ctx, float64(len(a.x)))
	if err != nil {
		return 0, err
	}
	return a.energy + count, nil
}

// Energy returns the last total system energy.
func (a *App) Energy() float64 { return a.energy }
