// Package enc provides fast, allocation-conscious binary encoding helpers
// shared by the MPI message layer and the FTI checkpoint serializer. All
// encodings are little-endian.
package enc

import (
	"encoding/binary"
	"math"
	"slices"
)

// AppendUint64 appends v to b.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// Uint64 reads a uint64 from the front of b.
func Uint64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// AppendInt64 appends v to b.
func AppendInt64(b []byte, v int64) []byte {
	return AppendUint64(b, uint64(v))
}

// Int64 reads an int64 from the front of b.
func Int64(b []byte) int64 { return int64(Uint64(b)) }

// AppendFloat64 appends v to b.
func AppendFloat64(b []byte, v float64) []byte {
	return AppendUint64(b, math.Float64bits(v))
}

// Float64 reads a float64 from the front of b.
func Float64(b []byte) float64 { return math.Float64frombits(Uint64(b)) }

// Float64sToBytes encodes a float64 slice.
func Float64sToBytes(v []float64) []byte {
	return AppendFloat64s(make([]byte, 0, 8*len(v)), v)
}

// AppendFloat64s appends the Float64sToBytes encoding of v to b, growing
// b at most once.
func AppendFloat64s(b []byte, v []float64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(v))[:n+8*len(v)]
	out := b[n:]
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesToFloat64s decodes a float64 slice (len(b) must be a multiple of 8).
func BytesToFloat64s(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	FillFloat64s(v, b)
	return v
}

// FillFloat64s decodes into an existing slice; len(b) must equal 8*len(v).
func FillFloat64s(v []float64, b []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Int64sToBytes encodes an int64 slice.
func Int64sToBytes(v []int64) []byte {
	return AppendInt64s(make([]byte, 0, 8*len(v)), v)
}

// AppendInt64s appends the Int64sToBytes encoding of v to b, growing b at
// most once.
func AppendInt64s(b []byte, v []int64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(v))[:n+8*len(v)]
	out := b[n:]
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return b
}

// BytesToInt64s decodes an int64 slice.
func BytesToInt64s(b []byte) []int64 {
	v := make([]int64, len(b)/8)
	FillInt64s(v, b)
	return v
}

// FillInt64s decodes into an existing slice; len(b) must equal 8*len(v).
func FillInt64s(v []int64, b []byte) {
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b, p []byte) []byte {
	b = AppendUint64(b, uint64(len(p)))
	return append(b, p...)
}

// NextBytes reads a length-prefixed byte slice and returns it along with
// the remainder of b.
func NextBytes(b []byte) (p, rest []byte) {
	n := Uint64(b)
	return b[8 : 8+n], b[8+n:]
}
