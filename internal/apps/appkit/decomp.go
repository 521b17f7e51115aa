package appkit

import (
	"fmt"
	"slices"

	"match/internal/enc"
	"match/internal/mpi"
)

// Decomp3D is a 3D Cartesian domain decomposition: P processes arranged in
// a PXxPYxPZ grid, each owning a block of a global NXxNYxNZ mesh.
type Decomp3D struct {
	PX, PY, PZ int // process grid
	CX, CY, CZ int // this rank's coordinates
	NX, NY, NZ int // global mesh
	LX, LY, LZ int // local block extent
	OX, OY, OZ int // global offset of the local block
	rank, size int
}

// Factor3D splits p into the most cubic px*py*pz factorization.
func Factor3D(p int) (px, py, pz int) {
	best := [3]int{p, 1, 1}
	bestScore := p * p
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b
			score := (c - a) + (c - b) // prefer near-cubic
			if score < bestScore {
				bestScore = score
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}

// fitFactor3D is the most cubic px*py*pz = p, by Factor3D's score over
// every ordering, with px <= nx, py <= ny and pz <= nz; Factor3D(p) when no
// factorization fits.
func fitFactor3D(p, nx, ny, nz int) (px, py, pz int) {
	px, py, pz = Factor3D(p)
	best := -1
	for a := 1; a <= min(p, nx); a++ {
		if p%a != 0 {
			continue
		}
		for b := 1; b <= min(p/a, ny); b++ {
			c := p / a / b
			if a*b*c != p || c > nz {
				continue
			}
			// (max-min) + (max-mid), as Factor3D scores a sorted triple.
			if score := 3*max(a, b, c) - a - b - c; best < 0 || score < best {
				best, px, py, pz = score, a, b, c
			}
		}
	}
	return px, py, pz
}

// NewDecomp3D builds the decomposition for the calling rank. The global
// extents need not divide evenly; remainders go to the low-coordinate
// blocks. The process grid is Factor3D's unless it puts more process layers
// on an axis than the axis has cells: then some block is empty, and its
// rank would update ghost cells no checkpoint holds, so the most cubic grid
// that fits is taken instead.
func NewDecomp3D(rank, size, nx, ny, nz int) *Decomp3D {
	px, py, pz := Factor3D(size)
	if px > nx || py > ny || pz > nz {
		px, py, pz = fitFactor3D(size, nx, ny, nz)
	}
	d := &Decomp3D{PX: px, PY: py, PZ: pz, NX: nx, NY: ny, NZ: nz, rank: rank, size: size}
	d.CX = rank % px
	d.CY = (rank / px) % py
	d.CZ = rank / (px * py)
	split := func(n, parts, coord int) (lo, ln int) {
		base := n / parts
		rem := n % parts
		lo = coord*base + min(coord, rem)
		ln = base
		if coord < rem {
			ln++
		}
		return lo, ln
	}
	d.OX, d.LX = split(nx, px, d.CX)
	d.OY, d.LY = split(ny, py, d.CY)
	d.OZ, d.LZ = split(nz, pz, d.CZ)
	return d
}

// RankAt returns the rank at process coordinates (cx,cy,cz), or -1 when
// outside the process grid.
func (d *Decomp3D) RankAt(cx, cy, cz int) int {
	if cx < 0 || cx >= d.PX || cy < 0 || cy >= d.PY || cz < 0 || cz >= d.PZ {
		return -1
	}
	return cx + d.PX*(cy+d.PY*cz)
}

// Neighbor returns the rank offset by (dx,dy,dz) in the process grid
// (non-periodic), or -1.
func (d *Decomp3D) Neighbor(dx, dy, dz int) int {
	return d.RankAt(d.CX+dx, d.CY+dy, d.CZ+dz)
}

// NeighborWrap is Neighbor with periodic wraparound.
func (d *Decomp3D) NeighborWrap(dx, dy, dz int) int {
	wrap := func(c, p int) int { return ((c % p) + p) % p }
	return d.RankAt(wrap(d.CX+dx, d.PX), wrap(d.CY+dy, d.PY), wrap(d.CZ+dz, d.PZ))
}

// Field3D is a local scalar field with one ghost layer on each side:
// storage extents (LX+2) x (LY+2) x (LZ+2); interior indices run 1..L.
type Field3D struct {
	D          *Decomp3D
	SX, SY, SZ int // storage extents
	V          []float64
}

// NewField3D allocates a ghosted field over the decomposition.
func NewField3D(d *Decomp3D) *Field3D {
	f := &Field3D{D: d, SX: d.LX + 2, SY: d.LY + 2, SZ: d.LZ + 2}
	f.V = make([]float64, f.SX*f.SY*f.SZ)
	return f
}

// Idx converts ghosted coordinates (0..L+1 in each axis) to a flat index.
func (f *Field3D) Idx(x, y, z int) int { return x + f.SX*(y+f.SY*z) }

// At returns the value at ghosted coordinates.
func (f *Field3D) At(x, y, z int) float64 { return f.V[f.Idx(x, y, z)] }

// Set stores the value at ghosted coordinates.
func (f *Field3D) Set(x, y, z int, v float64) { f.V[f.Idx(x, y, z)] = v }

// Row returns the whole x row at ghosted coordinates (y, z), ghosts
// included, so Row(y, z)[x] is At(x, y, z). Kernels that sweep x read and
// write through it instead of recomputing Idx per cell.
func (f *Field3D) Row(y, z int) []float64 {
	at := f.Idx(0, y, z)
	return f.V[at : at+f.SX]
}

// interiorRow is Row(y, z) without its two ghost cells.
func (f *Field3D) interiorRow(y, z int) []float64 {
	return f.Row(y, z)[1 : 1+f.D.LX]
}

// Interior returns a copy of the interior (non-ghost) values in x-fastest
// order; used for checkpoint payloads and reductions.
func (f *Field3D) Interior() []float64 {
	out := make([]float64, 0, f.D.LX*f.D.LY*f.D.LZ)
	for z := 1; z <= f.D.LZ; z++ {
		for y := 1; y <= f.D.LY; y++ {
			out = append(out, f.interiorRow(y, z)...)
		}
	}
	return out
}

// SetInterior writes interior values from a flat x-fastest slice.
func (f *Field3D) SetInterior(vals []float64) {
	for z := 1; z <= f.D.LZ; z++ {
		for y := 1; y <= f.D.LY; y++ {
			vals = vals[copy(f.interiorRow(y, z), vals):]
		}
	}
}

// SnapshotLen implements fti.Protected: 8 bytes per interior value.
func (f *Field3D) SnapshotLen() int { return 8 * f.D.LX * f.D.LY * f.D.LZ }

// AppendSnapshot implements fti.Protected: the interior in x-fastest
// order, the bytes fti.F64s produces for f.Interior(), appended row by row
// with no intermediate copy. Ghosts are not state.
func (f *Field3D) AppendSnapshot(b []byte) []byte {
	b = slices.Grow(b, f.SnapshotLen())
	for z := 1; z <= f.D.LZ; z++ {
		for y := 1; y <= f.D.LY; y++ {
			b = enc.AppendFloat64s(b, f.interiorRow(y, z))
		}
	}
	return b
}

// Restore implements fti.Protected: SetInterior from AppendSnapshot's
// bytes, decoded straight into the rows.
func (f *Field3D) Restore(b []byte) {
	for z := 1; z <= f.D.LZ; z++ {
		for y := 1; y <= f.D.LY; y++ {
			row := f.interiorRow(y, z)
			row = row[:min(len(row), len(b)/8)]
			enc.FillFloat64s(row, b)
			b = b[8*len(row):]
		}
	}
}

// plane locates layer k of an axis (ghost layers 0 and L+1 included): its
// first index in V, then the extent and stride of its two other axes, the
// lower-numbered one fastest. That order is the wire order of a halo
// message.
func (f *Field3D) plane(axis, k int) (at, n0, s0, n1, s1 int) {
	switch axis {
	case 0:
		return k, f.SY, f.SX, f.SZ, f.SX * f.SY
	case 1:
		return f.SX * k, f.SX, 1, f.SZ, f.SX * f.SY
	default:
		return f.SX * f.SY * k, f.SX, 1, f.SY, f.SX
	}
}

// encodePlane encodes layer k of an axis, ghost rims included, into a
// fresh wire payload in plane order.
func (f *Field3D) encodePlane(axis, k int) []byte {
	at, n0, s0, n1, s1 := f.plane(axis, k)
	b := make([]byte, 0, 8*n0*n1)
	for j := 0; j < n1; j++ {
		for i, p := 0, at+j*s1; i < n0; i, p = i+1, p+s0 {
			b = enc.AppendFloat64(b, f.V[p])
		}
	}
	return b
}

// decodePlane writes encodePlane's bytes into layer k of an axis.
func (f *Field3D) decodePlane(axis, k int, b []byte) {
	at, n0, s0, n1, s1 := f.plane(axis, k)
	for j := 0; j < n1; j++ {
		for i, p := 0, at+j*s1; i < n0; i, p = i+1, p+s0 {
			f.V[p] = enc.Float64(b)
			b = b[8:]
		}
	}
}

// CopyPlane copies layer from of an axis, ghost rims included, onto layer
// to of the same axis.
func (f *Field3D) CopyPlane(axis, from, to int) {
	src, n0, s0, n1, s1 := f.plane(axis, from)
	dst, _, _, _, _ := f.plane(axis, to)
	for j := 0; j < n1; j++ {
		for i, o := 0, j*s1; i < n0; i, o = i+1, o+s0 {
			f.V[dst+o] = f.V[src+o]
		}
	}
}

// Halo exchange tags: axis ax sends toward lo with tagHalo+2*ax and toward
// hi with tagHalo+2*ax+1.
const tagHalo = 1100

// Exchange fills the ghost layers from the six face neighbors using the
// three-phase (x, then y, then z) scheme, which also propagates edge and
// corner values — sufficient for 27-point stencils. Missing neighbors
// (non-periodic domain boundary) leave ghosts untouched. A layer is
// encoded straight from the field into its payload and decoded straight
// from the received bytes into the ghost layer.
func (f *Field3D) Exchange(ctx *Context) error {
	d := f.D
	for ax, l := range [3]int{d.LX, d.LY, d.LZ} {
		var s [3]int
		s[ax] = 1
		lo, hi := d.Neighbor(-s[0], -s[1], -s[2]), d.Neighbor(s[0], s[1], s[2])
		var toLo, toHi []byte
		if lo >= 0 {
			toLo = f.encodePlane(ax, 1)
		}
		if hi >= 0 {
			toHi = f.encodePlane(ax, l)
		}
		fromLo, fromHi, err := Swap(ctx, lo, hi, tagHalo+2*ax, tagHalo+2*ax+1, toLo, toHi)
		if err != nil {
			return err
		}
		if lo >= 0 {
			f.decodePlane(ax, 0, fromLo)
		}
		if hi >= 0 {
			f.decodePlane(ax, l+1, fromHi)
		}
	}
	return nil
}

// Swap trades one message with each neighbor along an axis: toLo goes to
// rank lo tagged tagLo and toHi to rank hi tagged tagHi, then lo's tagHi
// message and hi's tagLo message come back. Both sends are posted before
// either receive (eager, so deadlock-free), lo before hi each time. A
// negative rank skips its side, whose result is nil; lo == hi (two ranks
// on a periodic axis) works, the tags tell the two messages apart.
func Swap(ctx *Context, lo, hi, tagLo, tagHi int, toLo, toHi []byte) (fromLo, fromHi []byte, err error) {
	nbr, tag, out := [2]int{lo, hi}, [2]int{tagLo, tagHi}, [2][]byte{toLo, toHi}
	for s := range nbr {
		if nbr[s] >= 0 {
			if err := mpi.Send(ctx.R, ctx.World, nbr[s], tag[s], out[s]); err != nil {
				return nil, nil, err
			}
		}
	}
	var in [2][]byte
	for s := range nbr {
		if nbr[s] >= 0 {
			m, err := mpi.Recv(ctx.R, ctx.World, nbr[s], tag[1-s])
			if err != nil {
				return nil, nil, err
			}
			in[s] = m.Data
		}
	}
	return in[0], in[1], nil
}

// String describes the decomposition (diagnostics).
func (d *Decomp3D) String() string {
	return fmt.Sprintf("decomp %dx%dx%d procs, local %dx%dx%d at (%d,%d,%d)",
		d.PX, d.PY, d.PZ, d.LX, d.LY, d.LZ, d.OX, d.OY, d.OZ)
}
