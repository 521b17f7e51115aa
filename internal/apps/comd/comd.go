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
// slots of the 5x5x5 cells around its own. A step reuses the list while the
// local and ghost counts are those of the build and no slot has moved half
// a skin from where it was then. The test is on slots and positions, not
// atoms, so it stays sound when migration or a ghost exchange puts another
// atom in a slot: each axis's minimum-image |wrap(d)| is 1-Lipschitz in d,
// so two slots now within a cutoff were within cutoff+skin at the build.
// Otherwise the list is rebuilt.
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
		// straight into the payload: x, y, z per atom.
		collect := func(takeLo bool) []byte {
			var out []byte
			vals := a.axisVals(ax)
			push := func(px, py, pz, c float64) {
				if takeLo {
					if c < a.lo[ax]+cutoff {
						shift := 0.0
						if a.loEdge(ax) {
							shift = a.glob[ax]
						}
						out = a.appendShifted(out, px, py, pz, ax, shift)
					}
				} else if c >= a.hi[ax]-cutoff {
					shift := 0.0
					if a.hiEdge(ax) {
						shift = -a.glob[ax]
					}
					out = a.appendShifted(out, px, py, pz, ax, shift)
				}
			}
			for i := range a.x {
				push(a.x[i], a.y[i], a.z[i], vals[i])
			}
			gvals := a.ghostAxis(ax)
			for i := range a.gx {
				push(a.gx[i], a.gy[i], a.gz[i], gvals[i])
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
	if !l.gather(a) {
		l.build(a.glob, n)
	}
	rc2 := cutoff * cutoff
	lx, ly, lz := a.glob[0], a.glob[1], a.glob[2]
	hx, hy, hz := lx/2, ly/2, lz/2
	ps := l.p
	pe := 0.0
	for i, pi := range ps[:n] {
		var fx, fy, fz float64
		for _, j := range l.js[l.start[i]:l.start[i+1]] {
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

// reach is the radius a list is built at; drift is how far a slot may move
// from its position at the build before the list is rebuilt: half the
// skin, less a margin that dwarfs the rounding of the distance arithmetic.
const (
	reach = cutoff + skin
	drift = skin / 2 * (1 - 1e-6)
)

// verletList is the neighbour list pairForces walks, kept on the App
// between steps: local atom i's neighbours are js[start[i]:start[i+1]],
// every other slot within reach of it at the build, ascending.
type verletList struct {
	start []int32
	js    []int32

	p, p0 []vec     // every slot's position, locals then ghosts: now, at the build
	n     int       // local atoms at the build
	cells linkCells // build's scratch

	builds int // builds so far; only the package's tests read it
}

// gather copies every slot's position into p and reports whether the list
// still holds every pair within a cutoff: the local and ghost counts are
// those of the build, and no slot has moved drift from where it was then.
// A pair now within a cutoff was then within cutoff + 2*drift < reach.
func (l *verletList) gather(a *App) bool {
	n, m := len(a.x), len(a.x)+len(a.gx)
	l.p = appkit.Grow(l.p, m)
	for k := range a.x {
		l.p[k] = vec{a.x[k], a.y[k], a.z[k]}
	}
	for k := range a.gx {
		l.p[n+k] = vec{a.gx[k], a.gy[k], a.gz[k]}
	}
	if n != l.n || m != len(l.p0) {
		return false
	}
	for k, p0 := range l.p0 {
		dx, dy, dz := l.p[k].x-p0.x, l.p[k].y-p0.y, l.p[k].z-p0.z
		if dx*dx+dy*dy+dz*dz >= drift*drift {
			return false
		}
	}
	return true
}

// build lists, for each of the n local atoms, every other slot within
// reach of it in a periodic box of edges glob, and keeps the positions it
// was built from; gather must have run.
func (l *verletList) build(glob [3]float64, n int) {
	lc := &l.cells
	lc.sort(l.p, glob)
	l.start = appkit.Grow(l.start, n+1)
	l.js = l.js[:0]
	lx, ly, lz := glob[0], glob[1], glob[2]
	hx, hy, hz := lx/2, ly/2, lz/2
	for i, pi := range l.p[:n] {
		l.start[i] = int32(len(l.js))
		cx, cy, cz := lc.coord(0, pi.x), lc.coord(1, pi.y), lc.coord(2, pi.z)
		for kz := max(cz-2, 0); kz <= min(cz+2, lc.nc[2]-1); kz++ {
			for ky := max(cy-2, 0); ky <= min(cy+2, lc.nc[1]-1); ky++ {
				// The x neighbours of a cell follow each other in cell
				// order: one run of candidates per (ky,kz).
				row := (kz*lc.nc[1] + ky) * lc.nc[0]
				from := lc.start[row+max(cx-2, 0)]
				to := lc.start[row+min(cx+2, lc.nc[0]-1)+1]
				js, ps := lc.idx[from:to], lc.p[from:to]
				for s, j := range js {
					if int(j) == i {
						continue
					}
					dx := wrap(pi.x-ps[s].x, lx, hx)
					dy := wrap(pi.y-ps[s].y, ly, hy)
					dz := wrap(pi.z-ps[s].z, lz, hz)
					if dx*dx+dy*dy+dz*dz < reach*reach {
						l.js = append(l.js, j)
					}
				}
			}
		}
		// A dozen or so neighbours from up to 125 cells: insertion sort.
		nb := l.js[l.start[i]:]
		for p := 1; p < len(nb); p++ {
			j := nb[p]
			q := p
			for ; q > 0 && nb[q-1] > j; q-- {
				nb[q] = nb[q-1]
			}
			nb[q] = j
		}
	}
	l.start[n] = int32(len(l.js))
	l.p0 = append(l.p0[:0], l.p...)
	l.n = n
	l.builds++
}

// cellWidth is the least link-cell edge: half a list's reach plus a margin
// that dwarfs the rounding of the cell arithmetic, so two atoms within
// reach of each other along an axis are never more than two cells apart.
const cellWidth = reach / 2 * (1 + 1e-6)

// linkCells is build's scratch, kept on the list and reused every build:
// the slots counting-sorted by cell, their positions copied alongside so a
// cell's slots are contiguous.
type linkCells struct {
	origin, scale [3]float64
	nc            [3]int // cells per axis

	cell  []int32 // cell of each slot
	start []int32 // cell c's slots are start[c]..start[c+1] of idx and p
	next  []int32 // fill cursor per cell
	idx   []int32 // slot, ascending within a cell
	p     []vec
}

// coord is the cell coordinate of position v along axis ax.
func (lc *linkCells) coord(ax int, v float64) int {
	c := int((v - lc.origin[ax]) * lc.scale[ax])
	if uint(c) >= uint(lc.nc[ax]) {
		c = lc.nc[ax] - 1
	}
	return c
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
		var loOut, hiOut []byte // x, y, z, vx, vy, vz per migrant
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
