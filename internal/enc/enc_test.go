package enc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrips(t *testing.T) {
	b := AppendUint64(nil, 0xdeadbeefcafef00d)
	if Uint64(b) != 0xdeadbeefcafef00d {
		t.Fatal("uint64 roundtrip")
	}
	b = AppendInt64(nil, -42)
	if Int64(b) != -42 {
		t.Fatal("int64 roundtrip")
	}
	b = AppendFloat64(nil, math.Inf(-1))
	if Float64(b) != math.Inf(-1) {
		t.Fatal("float64 roundtrip")
	}
	// NaN bit pattern preserved.
	nan := math.Float64frombits(0x7ff8000000000001)
	b = AppendFloat64(nil, nan)
	if math.Float64bits(Float64(b)) != 0x7ff8000000000001 {
		t.Fatal("NaN bits not preserved")
	}
}

func TestLengthPrefixedRoundTrips(t *testing.T) {
	b := AppendBytes(nil, []byte("abc"))
	b = AppendBytes(b, []byte("xyz"))
	p, rest := NextBytes(b)
	if string(p) != "abc" {
		t.Fatalf("bytes = %q", p)
	}
	s, rest := NextBytes(rest)
	if string(s) != "xyz" || len(rest) != 0 {
		t.Fatalf("second = %q rest = %d", s, len(rest))
	}
}

func TestFillInPlace(t *testing.T) {
	src := []float64{1, 2, 3}
	buf := Float64sToBytes(src)
	dst := make([]float64, 3)
	FillFloat64s(dst, buf)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("FillFloat64s mismatch")
		}
	}
	is := []int64{-5, 9}
	ib := Int64sToBytes(is)
	id := make([]int64, 2)
	FillInt64s(id, ib)
	if id[0] != -5 || id[1] != 9 {
		t.Fatal("FillInt64s mismatch")
	}
}

func TestEmptySlices(t *testing.T) {
	if len(Float64sToBytes(nil)) != 0 {
		t.Fatal("nil encode")
	}
	if len(BytesToFloat64s(nil)) != 0 {
		t.Fatal("nil decode")
	}
}

// Property: a bulk append after any prefix is the prefix followed by one
// scalar append per element, and Float64sToBytes/Int64sToBytes are the
// bulk appends to nothing.
func TestBulkAppendsMatchScalarAppends(t *testing.T) {
	f := func(prefix []byte, fs []float64, is []int64) bool {
		wantF := append([]byte(nil), prefix...)
		for _, x := range fs {
			wantF = AppendFloat64(wantF, x)
		}
		wantI := append([]byte(nil), prefix...)
		for _, x := range is {
			wantI = AppendInt64(wantI, x)
		}
		// A prefix with spare capacity must be appended to, not overwritten.
		gotF := AppendFloat64s(append(make([]byte, 0, len(prefix)+3), prefix...), fs)
		gotI := AppendInt64s(append([]byte(nil), prefix...), is)
		return string(gotF) == string(wantF) && string(gotI) == string(wantI) &&
			string(Float64sToBytes(fs)) == string(wantF[len(prefix):]) &&
			string(Int64sToBytes(is)) == string(wantI[len(prefix):])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mixed sequences of appends decode in order.
func TestMixedStreamProperty(t *testing.T) {
	f := func(a uint64, b int64, c float64, s []byte) bool {
		buf := AppendUint64(nil, a)
		buf = AppendInt64(buf, b)
		buf = AppendFloat64(buf, c)
		buf = AppendBytes(buf, s)
		if Uint64(buf) != a {
			return false
		}
		rest := buf[8:]
		if Int64(rest) != b {
			return false
		}
		rest = rest[8:]
		if math.Float64bits(Float64(rest)) != math.Float64bits(c) {
			return false
		}
		rest = rest[8:]
		got, rest := NextBytes(rest)
		return string(got) == string(s) && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
