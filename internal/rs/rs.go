// Package rs implements Reed–Solomon erasure coding over GF(2^8), the
// encoding FTI's L3 checkpointing level uses to survive the loss of up to
// half the nodes in an encoding group (Bautista-Gomez et al., SC'11).
//
// The code is systematic: k data shards are stored verbatim and m parity
// shards are produced from a Cauchy matrix, which guarantees that any k of
// the k+m shards reconstruct the originals.
//
// Every shard-sized pass goes through one kernel, mulAdd, which multiplies
// a shard by one coefficient through a product table and accumulates it
// into the output eight bytes at a time. The code works a row at a time on
// top of it: EncodeRow produces one parity shard, ReconstructData one lost
// data shard, and Encode and Reconstruct are loops over those — so a caller
// that keeps a single row (FTI L3 stores one parity shard per rank and
// recovers one data shard per lost rank) pays for that row alone.
package rs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// GF(2^8) arithmetic with the 0x11d primitive polynomial.

var (
	gfExp [512]byte
	gfLog [256]int
	// mulTable[c][x] is c*x. Built once in init and read-only afterwards,
	// so every Code on every goroutine shares it without synchronization.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := range mulTable {
		for x := range mulTable[c] {
			mulTable[c][x] = gfMul(byte(c), byte(x))
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("rs: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+255]
}

func gfInv(a byte) byte { return gfDiv(1, a) }

// mulAdd accumulates coef*src into dst (dst[i] ^= coef*src[i]), which must
// be at least as long as src. It is the one place a shard is multiplied by
// a coefficient: eight table lookups assemble a product word that is folded
// into dst with a single load, xor and store.
func mulAdd(dst, src []byte, coef byte) {
	t := &mulTable[coef]
	dst = dst[:len(src)]
	for len(src) >= 8 {
		s := binary.LittleEndian.Uint64(src)
		p := uint64(t[byte(s)]) |
			uint64(t[byte(s>>8)])<<8 |
			uint64(t[byte(s>>16)])<<16 |
			uint64(t[byte(s>>24)])<<24 |
			uint64(t[byte(s>>32)])<<32 |
			uint64(t[byte(s>>40)])<<40 |
			uint64(t[byte(s>>48)])<<48 |
			uint64(t[byte(s>>56)])<<56
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^p)
		src, dst = src[8:], dst[8:]
	}
	for i, b := range src {
		dst[i] ^= t[b]
	}
}

// Code is an (k data, m parity) erasure code.
type Code struct {
	k, m   int
	parity [][]byte // m x k Cauchy coefficients
}

// New builds a code with k data shards and m parity shards. k+m must not
// exceed 128 so the Cauchy construction has distinct points.
func New(k, m int) (*Code, error) {
	if k <= 0 || m < 0 || k+m > 128 {
		return nil, fmt.Errorf("rs: invalid geometry k=%d m=%d", k, m)
	}
	// Cauchy matrix: rows indexed by x_i = k+i, columns by y_j = j, entry
	// 1/(x_i XOR y_j). All points distinct => every square submatrix of the
	// stacked [I; C] matrix is invertible.
	c := &Code{k: k, m: m, parity: make([][]byte, m)}
	for i := 0; i < m; i++ {
		c.parity[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			c.parity[i][j] = gfInv(byte(k+i) ^ byte(j))
		}
	}
	return c, nil
}

// K returns the number of data shards.
func (c *Code) K() int { return c.k }

// M returns the number of parity shards.
func (c *Code) M() int { return c.m }

// shardSize validates the k data shards of an encode call and returns
// their common length.
func (c *Code) shardSize(data [][]byte) (int, error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("rs: got %d data shards, want %d", len(data), c.k)
	}
	size := len(data[0])
	for _, d := range data {
		if len(d) != size {
			return 0, errors.New("rs: data shards have unequal lengths")
		}
	}
	return size, nil
}

// encodeRow overwrites dst with parity shard i of data; the caller has
// validated all three.
func (c *Code) encodeRow(dst []byte, i int, data [][]byte) {
	clear(dst)
	for j, src := range data {
		mulAdd(dst, src, c.parity[i][j])
	}
}

// EncodeRowInto overwrites dst with parity shard i (0 <= i < m) of k
// equal-length data shards; dst must have exactly their length. It
// allocates nothing.
func (c *Code) EncodeRowInto(dst []byte, i int, data [][]byte) error {
	size, err := c.shardSize(data)
	if err != nil {
		return err
	}
	if i < 0 || i >= c.m {
		return fmt.Errorf("rs: parity row %d out of range, have %d", i, c.m)
	}
	if len(dst) != size {
		return fmt.Errorf("rs: parity buffer holds %d bytes, shards %d", len(dst), size)
	}
	c.encodeRow(dst, i, data)
	return nil
}

// EncodeRow returns parity shard i (0 <= i < m) of k equal-length data
// shards.
func (c *Code) EncodeRow(i int, data [][]byte) ([]byte, error) {
	size, err := c.shardSize(data)
	if err != nil {
		return nil, err
	}
	p := make([]byte, size)
	if err := c.EncodeRowInto(p, i, data); err != nil {
		return nil, err
	}
	return p, nil
}

// Encode computes the m parity shards for k equal-length data shards.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	size, err := c.shardSize(data)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.m)
	for i := range out {
		out[i] = make([]byte, size)
		c.encodeRow(out[i], i, data)
	}
	return out, nil
}

// decoder recovers data shards from the first k present shards of one
// Reconstruct/ReconstructData call: data[j] = sum_r inv[j][r] * shards[rows[r]].
type decoder struct {
	rows []int    // indices of the first k present shards
	inv  [][]byte // inverse of their k generator rows
	size int      // common length of the present shards
}

// newDecoder validates shards (k data followed by m parity, nil = missing,
// at least k present, equal lengths) and inverts the generator rows of the
// first k present ones.
func (c *Code) newDecoder(shards [][]byte) (decoder, error) {
	if len(shards) != c.k+c.m {
		return decoder{}, fmt.Errorf("rs: got %d shards, want %d", len(shards), c.k+c.m)
	}
	present := 0
	size := -1
	for _, s := range shards {
		if s != nil {
			present++
			if size == -1 {
				size = len(s)
			} else if len(s) != size {
				return decoder{}, errors.New("rs: present shards have unequal lengths")
			}
		}
	}
	if present < c.k {
		return decoder{}, fmt.Errorf("rs: only %d shards present, need %d", present, c.k)
	}
	// Row i of the full generator G (size (k+m) x k): identity for i<k,
	// parity coefficients for i>=k. Pick the first k present shards and
	// invert the corresponding k x k submatrix.
	rows := make([]int, 0, c.k)
	for i := range shards {
		if shards[i] != nil {
			rows = append(rows, i)
			if len(rows) == c.k {
				break
			}
		}
	}
	sub := make([][]byte, c.k)
	for r, i := range rows {
		sub[r] = make([]byte, c.k)
		if i < c.k {
			sub[r][i] = 1
		} else {
			copy(sub[r], c.parity[i-c.k])
		}
	}
	inv, err := invertMatrix(sub)
	if err != nil {
		return decoder{}, err
	}
	return decoder{rows: rows, inv: inv, size: size}, nil
}

// data returns data shard j: the shard itself when present, otherwise row
// j of the inverse applied to the chosen survivors.
func (d decoder) data(shards [][]byte, j int) []byte {
	if shards[j] != nil {
		return shards[j]
	}
	out := make([]byte, d.size)
	for r, i := range d.rows {
		mulAdd(out, shards[i], d.inv[j][r])
	}
	return out
}

// ReconstructData returns data shard j (0 <= j < k) of shards, laid out
// and validated as for Reconstruct, rebuilding only that shard if it is
// missing. shards is not modified.
func (c *Code) ReconstructData(shards [][]byte, j int) ([]byte, error) {
	if j < 0 || j >= c.k {
		return nil, fmt.Errorf("rs: data shard %d out of range, have %d", j, c.k)
	}
	d, err := c.newDecoder(shards)
	if err != nil {
		return nil, err
	}
	return d.data(shards, j), nil
}

// Reconstruct fills in missing (nil) shards. shards must have length k+m:
// the k data shards followed by the m parity shards. At least k shards must
// be present. On success every data shard is non-nil (parity shards are
// also recomputed if missing).
func (c *Code) Reconstruct(shards [][]byte) error {
	d, err := c.newDecoder(shards)
	if err != nil {
		return err
	}
	// Decode every data shard against the original survivors before any is
	// filled in, so each sees the same first-k-present rows.
	data := make([][]byte, c.k)
	for j := range data {
		data[j] = d.data(shards, j)
	}
	copy(shards, data)
	for i, p := range shards[c.k:] {
		if p == nil {
			shards[c.k+i] = make([]byte, d.size)
			c.encodeRow(shards[c.k+i], i, data)
		}
	}
	return nil
}

// invertMatrix inverts a square GF(256) matrix via Gauss–Jordan.
func invertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	a := make([][]byte, n)
	inv := make([][]byte, n)
	for i := range m {
		a[i] = append([]byte(nil), m[i]...)
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("rs: singular matrix")
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		// Scale pivot row.
		pv := gfInv(a[col][col])
		for j := 0; j < n; j++ {
			a[col][j] = gfMul(a[col][j], pv)
			inv[col][j] = gfMul(inv[col][j], pv)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := 0; j < n; j++ {
				a[r][j] ^= gfMul(f, a[col][j])
				inv[r][j] ^= gfMul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}

// Pad returns b zero-padded to size (a copy if padding is needed).
func Pad(b []byte, size int) []byte {
	if len(b) >= size {
		return b
	}
	out := make([]byte, size)
	copy(out, b)
	return out
}
