package fti

import (
	"slices"

	"match/internal/enc"
)

// F64s protects a float64 slice through a pointer, so Restore can resize it
// (checkpointed slices may have rank-dependent, run-dependent lengths).
type F64s struct{ P *[]float64 }

// SnapshotLen implements Protected.
func (v F64s) SnapshotLen() int { return 8 * len(*v.P) }

// AppendSnapshot implements Protected.
func (v F64s) AppendSnapshot(b []byte) []byte { return enc.AppendFloat64s(b, *v.P) }

// Restore implements Protected.
func (v F64s) Restore(b []byte) { *v.P = enc.BytesToFloat64s(b) }

// I64s protects an int64 slice through a pointer.
type I64s struct{ P *[]int64 }

// SnapshotLen implements Protected.
func (v I64s) SnapshotLen() int { return 8 * len(*v.P) }

// AppendSnapshot implements Protected.
func (v I64s) AppendSnapshot(b []byte) []byte { return enc.AppendInt64s(b, *v.P) }

// Restore implements Protected.
func (v I64s) Restore(b []byte) { *v.P = enc.BytesToInt64s(b) }

// Ints protects an int slice through a pointer.
type Ints struct{ P *[]int }

// SnapshotLen implements Protected.
func (v Ints) SnapshotLen() int { return 8 * len(*v.P) }

// AppendSnapshot implements Protected.
func (v Ints) AppendSnapshot(b []byte) []byte {
	b = slices.Grow(b, v.SnapshotLen())
	for _, x := range *v.P {
		b = enc.AppendInt64(b, int64(x))
	}
	return b
}

// Restore implements Protected.
func (v Ints) Restore(b []byte) {
	vals := make([]int, len(b)/8)
	for i := range vals {
		vals[i] = int(enc.Int64(b[8*i:]))
	}
	*v.P = vals
}

// Int protects a single int (e.g. the main-loop iteration counter, which
// must be checkpointed so a restart resumes at the right iteration).
type Int struct{ P *int }

// SnapshotLen implements Protected.
func (v Int) SnapshotLen() int { return 8 }

// AppendSnapshot implements Protected.
func (v Int) AppendSnapshot(b []byte) []byte { return enc.AppendInt64(b, int64(*v.P)) }

// Restore implements Protected.
func (v Int) Restore(b []byte) { *v.P = int(enc.Int64(b)) }

// I64 protects a single int64.
type I64 struct{ P *int64 }

// SnapshotLen implements Protected.
func (v I64) SnapshotLen() int { return 8 }

// AppendSnapshot implements Protected.
func (v I64) AppendSnapshot(b []byte) []byte { return enc.AppendInt64(b, *v.P) }

// Restore implements Protected.
func (v I64) Restore(b []byte) { *v.P = enc.Int64(b) }

// F64 protects a single float64.
type F64 struct{ P *float64 }

// SnapshotLen implements Protected.
func (v F64) SnapshotLen() int { return 8 }

// AppendSnapshot implements Protected.
func (v F64) AppendSnapshot(b []byte) []byte { return enc.AppendFloat64(b, *v.P) }

// Restore implements Protected.
func (v F64) Restore(b []byte) { *v.P = enc.Float64(b) }

// Bytes protects a raw byte slice through a pointer.
type Bytes struct{ P *[]byte }

// SnapshotLen implements Protected.
func (v Bytes) SnapshotLen() int { return len(*v.P) }

// AppendSnapshot implements Protected.
func (v Bytes) AppendSnapshot(b []byte) []byte { return append(b, *v.P...) }

// Restore implements Protected.
func (v Bytes) Restore(b []byte) { *v.P = append([]byte(nil), b...) }
