package rs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative inverses and distributivity on a sample of the field.
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inv(%d) broken", a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity broken at %d %d %d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity broken at %d %d", a, b)
		}
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {-1, 2}, {100, 100}, {5, -1}} {
		if _, err := New(g[0], g[1]); err == nil {
			t.Fatalf("New(%d,%d) succeeded", g[0], g[1])
		}
	}
}

func makeShards(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

func TestEncodeReconstructAllErasurePatterns(t *testing.T) {
	k, m := 4, 4
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := makeShards(rng, k, 128)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)

	// Erase every subset of exactly m shards; reconstruction must succeed
	// and reproduce the data exactly.
	n := k + m
	var patterns [][]int
	var gen func(start int, cur []int)
	gen = func(start int, cur []int) {
		if len(cur) == m {
			patterns = append(patterns, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			gen(i+1, append(cur, i))
		}
	}
	gen(0, nil)
	for _, pat := range patterns {
		shards := make([][]byte, n)
		for i := range full {
			shards[i] = append([]byte(nil), full[i]...)
		}
		for _, e := range pat {
			shards[e] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("pattern %v: %v", pat, err)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(shards[i], data[i]) {
				t.Fatalf("pattern %v: data shard %d mismatch", pat, i)
			}
		}
		for i := 0; i < m; i++ {
			if !bytes.Equal(shards[k+i], parity[i]) {
				t.Fatalf("pattern %v: parity shard %d mismatch", pat, i)
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := New(4, 2)
	rng := rand.New(rand.NewSource(3))
	data := makeShards(rng, 4, 32)
	parity, _ := c.Encode(data)
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[1], shards[2] = nil, nil, nil // 3 erasures > m=2
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("reconstruction succeeded with too few shards")
	}
}

func TestEncodeRejectsUnequalLengths(t *testing.T) {
	c, _ := New(2, 1)
	if _, err := c.Encode([][]byte{make([]byte, 4), make([]byte, 5)}); err == nil {
		t.Fatal("unequal shard lengths accepted")
	}
}

// Property: for random geometry, payloads, and erasure patterns of up to m
// shards, reconstruction recovers all data shards exactly.
func TestReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(6)
		size := 1 + rng.Intn(256)
		c, err := New(k, m)
		if err != nil {
			return false
		}
		data := makeShards(rng, k, size)
		parity, err := c.Encode(data)
		if err != nil {
			return false
		}
		shards := append(append([][]byte{}, data...), parity...)
		// Erase a random subset of size <= m.
		erase := rng.Perm(k + m)[:rng.Intn(m+1)]
		for _, e := range erase {
			shards[e] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(shards[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPad(t *testing.T) {
	b := []byte{1, 2, 3}
	p := Pad(b, 5)
	if len(p) != 5 || p[0] != 1 || p[4] != 0 {
		t.Fatalf("pad = %v", p)
	}
	if &Pad(b, 3)[0] != &b[0] {
		t.Fatal("pad copied unnecessarily")
	}
}

// oracleEncode and oracleReconstruct are the byte-at-a-time, table-free
// Encode and Reconstruct this package shipped before the mulAdd kernel:
// every product is one gfMul (two log lookups and a branch), every parity
// row and every missing shard is computed. They are the reference the
// kernel-based code must match byte for byte.
func oracleEncode(c *Code, data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: got %d data shards, want %d", len(data), c.k)
	}
	size := len(data[0])
	for _, d := range data {
		if len(d) != size {
			return nil, errors.New("rs: data shards have unequal lengths")
		}
	}
	out := make([][]byte, c.m)
	for i := 0; i < c.m; i++ {
		p := make([]byte, size)
		for j := 0; j < c.k; j++ {
			coef := c.parity[i][j]
			if coef == 0 {
				continue
			}
			src := data[j]
			for b := 0; b < size; b++ {
				p[b] ^= gfMul(coef, src[b])
			}
		}
		out[i] = p
	}
	return out, nil
}

func oracleReconstruct(c *Code, shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("rs: got %d shards, want %d", len(shards), c.k+c.m)
	}
	present := 0
	size := -1
	for _, s := range shards {
		if s != nil {
			present++
			if size == -1 {
				size = len(s)
			} else if len(s) != size {
				return errors.New("rs: present shards have unequal lengths")
			}
		}
	}
	if present < c.k {
		return fmt.Errorf("rs: only %d shards present, need %d", present, c.k)
	}
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
		return err
	}
	data := make([][]byte, c.k)
	for j := 0; j < c.k; j++ {
		if shards[j] != nil {
			data[j] = shards[j]
			continue
		}
		d := make([]byte, size)
		for r := 0; r < c.k; r++ {
			coef := inv[j][r]
			if coef == 0 {
				continue
			}
			src := shards[rows[r]]
			for b := 0; b < size; b++ {
				d[b] ^= gfMul(coef, src[b])
			}
		}
		data[j] = d
	}
	copy(shards, data)
	par, err := oracleEncode(c, shards[:c.k])
	if err != nil {
		return err
	}
	for i := 0; i < c.m; i++ {
		if shards[c.k+i] == nil {
			shards[c.k+i] = par[i]
		}
	}
	return nil
}

// FuzzCodeMatchesOracle holds every entry point of the kernel-based code to
// the oracle: Encode, each EncodeRow and EncodeRowInto, and — for the
// erasure pattern erasureMask selects (bit i%64 erases shard i) —
// Reconstruct and each ReconstructData, which must also fail exactly when
// the oracle does (fewer than k survivors). The low byte of seed doubles as
// a mulAdd coefficient checked against gfMul directly, since a Cauchy code
// never multiplies by zero.
func FuzzCodeMatchesOracle(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint16(0), uint64(0), int64(1))                     // empty shards
	f.Add(uint8(4), uint8(4), uint16(1), uint64(0b0101), int64(2))                // tail only
	f.Add(uint8(4), uint8(4), uint16(7), uint64(0b1111), int64(3))                // tail only, all data lost
	f.Add(uint8(4), uint8(4), uint16(8), uint64(0b11110000), int64(4))            // one word, all parity lost
	f.Add(uint8(4), uint8(4), uint16(9), uint64(0b10010110), int64(5))            // word + tail
	f.Add(uint8(4), uint8(4), uint16(4097), uint64(0b00100001), int64(6))         // word loop + 1-byte tail
	f.Add(uint8(64), uint8(64), uint16(33), uint64(0x5555555555555555), int64(7)) // k+m = 128, half lost
	f.Add(uint8(5), uint8(0), uint16(16), uint64(0), int64(8))                    // m = 0
	f.Add(uint8(3), uint8(2), uint16(64), uint64(0b00111), int64(9))              // too few survivors
	f.Add(uint8(2), uint8(3), uint16(24), uint64(0b00001), int64(256))            // zero coefficient
	f.Add(uint8(0), uint8(3), uint16(8), uint64(0), int64(10))                    // invalid geometry
	f.Add(uint8(100), uint8(100), uint16(8), uint64(0), int64(11))                // invalid geometry
	f.Fuzz(func(t *testing.T, k, m uint8, size uint16, erasureMask uint64, seed int64) {
		c, err := New(int(k), int(m))
		if k == 0 || int(k)+int(m) > 128 {
			if err == nil {
				t.Fatalf("New(%d,%d) accepted", k, m)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		n := int(size) % 8200
		rng := rand.New(rand.NewSource(seed))
		data := makeShards(rng, c.k, n)

		// The kernel against the scalar multiply, dirty accumulator included.
		coef := byte(seed)
		got, want := make([]byte, n), make([]byte, n)
		rng.Read(got)
		copy(want, got)
		mulAdd(got, data[0], coef)
		for b := range want {
			want[b] ^= gfMul(coef, data[0][b])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mulAdd(coef=%d, size=%d) differs from gfMul", coef, n)
		}

		wantParity, err := oracleEncode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(parity) != c.m {
			t.Fatalf("Encode returned %d rows, want %d", len(parity), c.m)
		}
		into := make([]byte, n)
		for i := range wantParity {
			if !bytes.Equal(parity[i], wantParity[i]) {
				t.Fatalf("Encode row %d differs from oracle", i)
			}
			row, err := c.EncodeRow(i, data)
			if err != nil || !bytes.Equal(row, wantParity[i]) {
				t.Fatalf("EncodeRow(%d) differs from oracle (err=%v)", i, err)
			}
			clear(into)
			if err := c.EncodeRowInto(into, i, data); err != nil || !bytes.Equal(into, wantParity[i]) {
				t.Fatalf("EncodeRowInto(%d) into a zeroed buffer differs from oracle (err=%v)", i, err)
			}
			// A dirty buffer is overwritten, not accumulated into.
			if err := c.EncodeRowInto(into, i, data); err != nil || !bytes.Equal(into, wantParity[i]) {
				t.Fatalf("EncodeRowInto(%d) into a dirty buffer differs from oracle (err=%v)", i, err)
			}
		}

		full := append(append([][]byte{}, data...), wantParity...)
		erased := func() [][]byte {
			s := append([][]byte{}, full...)
			for i := range s {
				if erasureMask>>(uint(i)%64)&1 == 1 {
					s[i] = nil
				}
			}
			return s
		}
		wantShards := erased()
		wantErr := oracleReconstruct(c, wantShards)
		for j := 0; j < c.k; j++ {
			in := erased()
			d, err := c.ReconstructData(in, j)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("ReconstructData(%d) err=%v, oracle err=%v", j, err, wantErr)
			}
			if err == nil && !bytes.Equal(d, full[j]) {
				t.Fatalf("ReconstructData(%d) differs from the encoded shard", j)
			}
			for i, s := range erased() {
				if (s == nil) != (in[i] == nil) {
					t.Fatalf("ReconstructData(%d) modified shards[%d]", j, i)
				}
			}
		}
		gotShards := erased()
		err = c.Reconstruct(gotShards)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Reconstruct err=%v, oracle err=%v", err, wantErr)
		}
		if err != nil {
			return
		}
		for i := range full {
			if !bytes.Equal(gotShards[i], wantShards[i]) || !bytes.Equal(gotShards[i], full[i]) {
				t.Fatalf("Reconstruct shard %d differs from oracle", i)
			}
		}
	})
}

func TestRowPrimitivesValidate(t *testing.T) {
	c, _ := New(2, 2)
	data := [][]byte{make([]byte, 8), make([]byte, 8)}
	for name, err := range map[string]error{
		"row -1":         c.EncodeRowInto(make([]byte, 8), -1, data),
		"row m":          c.EncodeRowInto(make([]byte, 8), 2, data),
		"short dst":      c.EncodeRowInto(make([]byte, 7), 0, data),
		"long dst":       c.EncodeRowInto(make([]byte, 9), 0, data),
		"k-1 shards":     c.EncodeRowInto(make([]byte, 8), 0, data[:1]),
		"unequal shards": c.EncodeRowInto(make([]byte, 8), 0, [][]byte{data[0], data[1][:4]}),
	} {
		if err == nil {
			t.Errorf("EncodeRowInto accepted %s", name)
		}
	}
	if _, err := c.EncodeRow(2, data); err == nil {
		t.Error("EncodeRow accepted row m")
	}
	shards := append(append([][]byte{}, data...), nil, nil)
	for _, j := range []int{-1, 2} {
		if _, err := c.ReconstructData(shards, j); err == nil {
			t.Errorf("ReconstructData accepted data shard %d of 2", j)
		}
	}
	if _, err := c.ReconstructData(shards[:3], 0); err == nil {
		t.Error("ReconstructData accepted k+m-1 shards")
	}
}

func TestEncodeRowIntoDoesNotAllocate(t *testing.T) {
	c, _ := New(4, 4)
	data := makeShards(rand.New(rand.NewSource(1)), 4, 4097)
	dst := make([]byte, 4097)
	if n := testing.AllocsPerRun(20, func() {
		if err := c.EncodeRowInto(dst, 3, data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("EncodeRowInto allocates %v times per call, want 0", n)
	}
}

func BenchmarkEncode4x2_64KB(b *testing.B) {
	c, _ := New(4, 2)
	rng := rand.New(rand.NewSource(1))
	data := makeShards(rng, 4, 64<<10)
	b.SetBytes(4 * 64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// The two benchmarks below use the geometry of bench/'s codec probe and of
// a default FTI L3 group: (4,4), 256 KiB shards. SetBytes is the data a
// call reads, so MB/s compares across them.

func BenchmarkEncodeRow4x4_256KB(b *testing.B) {
	c, _ := New(4, 4)
	data := makeShards(rand.New(rand.NewSource(1)), 4, 256<<10)
	dst := make([]byte, 256<<10)
	b.SetBytes(4 * 256 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EncodeRowInto(dst, i%4, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct4x4_256KB(b *testing.B) {
	c, _ := New(4, 4)
	data := makeShards(rand.New(rand.NewSource(1)), 4, 256<<10)
	parity, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	b.SetBytes(4 * 256 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := append([][]byte{}, full...)
		shards[0], shards[2] = nil, nil // two data shards lost
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
