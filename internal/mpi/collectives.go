package mpi

import (
	"fmt"

	"match/internal/enc"
	"match/internal/trace"
)

// Op is a reduction operator.
type Op int

// Reduction operators (the subset the proxy applications and the recovery
// protocols need).
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
	OpBAnd // bitwise and (int64 only) — used by the ULFM agreement
	OpBOr  // bitwise or (int64 only)
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	case OpBAnd:
		return "band"
	case OpBOr:
		return "bor"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

func reduceF64(op Op, acc, in []float64) {
	switch op {
	case OpSum:
		for i, v := range in {
			acc[i] += v
		}
	case OpMax:
		for i, v := range in {
			if v > acc[i] {
				acc[i] = v
			}
		}
	case OpMin:
		for i, v := range in {
			if v < acc[i] {
				acc[i] = v
			}
		}
	case OpProd:
		for i, v := range in {
			acc[i] *= v
		}
	default:
		panic("mpi: operator not defined for float64: " + op.String())
	}
}

func reduceI64(op Op, acc, in []int64) {
	switch op {
	case OpSum:
		for i, v := range in {
			acc[i] += v
		}
	case OpMax:
		for i, v := range in {
			if v > acc[i] {
				acc[i] = v
			}
		}
	case OpMin:
		for i, v := range in {
			if v < acc[i] {
				acc[i] = v
			}
		}
	case OpProd:
		for i, v := range in {
			acc[i] *= v
		}
	case OpBAnd:
		for i, v := range in {
			acc[i] &= v
		}
	case OpBOr:
		for i, v := range in {
			acc[i] |= v
		}
	}
}

// Combiner tables: one merge function per (operator, element type), built
// once at init. reduceTree used to take a fresh closure per collective
// call; indexing a package-level table keeps the collective hot path from
// allocating for the combiner.
var (
	f64Combiners = [...]func(acc, in []byte) []byte{
		OpSum:  f64CombinerFor(OpSum),
		OpMax:  f64CombinerFor(OpMax),
		OpMin:  f64CombinerFor(OpMin),
		OpProd: f64CombinerFor(OpProd),
	}
	i64Combiners = [...]func(acc, in []byte) []byte{
		OpSum:  i64CombinerFor(OpSum),
		OpMax:  i64CombinerFor(OpMax),
		OpMin:  i64CombinerFor(OpMin),
		OpProd: i64CombinerFor(OpProd),
		OpBAnd: i64CombinerFor(OpBAnd),
		OpBOr:  i64CombinerFor(OpBOr),
	}
	// keepAcc ignores the contribution: the degenerate combiner Barrier
	// uses (a barrier is a reduction of nothing).
	keepAcc = func(acc, _ []byte) []byte { return acc }
)

func f64CombinerFor(op Op) func(acc, in []byte) []byte {
	return func(acc, in []byte) []byte {
		a := enc.BytesToFloat64s(acc)
		reduceF64(op, a, enc.BytesToFloat64s(in))
		return enc.Float64sToBytes(a)
	}
}

func i64CombinerFor(op Op) func(acc, in []byte) []byte {
	return func(acc, in []byte) []byte {
		a := enc.BytesToInt64s(acc)
		reduceI64(op, a, enc.BytesToInt64s(in))
		return enc.Int64sToBytes(a)
	}
}

// f64Combiner returns the float64 merge function for op, panicking on
// operators not defined for float64 (same contract as reduceF64).
func f64Combiner(op Op) func(acc, in []byte) []byte {
	if int(op) < len(f64Combiners) {
		if cb := f64Combiners[op]; cb != nil {
			return cb
		}
	}
	panic("mpi: operator not defined for float64: " + op.String())
}

// i64Combiner returns the int64 merge function for op.
func i64Combiner(op Op) func(acc, in []byte) []byte {
	if int(op) < len(i64Combiners) {
		if cb := i64Combiners[op]; cb != nil {
			return cb
		}
	}
	panic("mpi: unknown operator: " + op.String())
}

// collective tag space: negative tags derived from a per-comm sequence
// number that advances identically on every rank (collectives are SPMD).
const collTagBase = -1000

const collSlots = 8

// nextCollTag reserves a tag block for one collective call on comm.
func (r *Rank) nextCollTag(c *Comm) int {
	seq := r.proc.collSeq[c.ctx]
	r.proc.collSeq[c.ctx] = seq + 1
	r.job.Stats.Collective++
	if p := r.job.cluster.Probe(); p.On(trace.CatCollective) {
		p.Emit(trace.Span{Cat: trace.CatCollective, Rank: int32(r.Rank(c)),
			Job: p.JobOf(r.job), Start: int64(r.sp.Now()), Aux: int64(seq)})
	}
	return collTagBase - seq*collSlots
}

// bcastTree runs a binomial-tree broadcast of data from root; every rank
// returns the payload.
func bcastTree(r *Rank, c *Comm, root, tag int, data []byte) ([]byte, error) {
	size := c.Size()
	rank := r.Rank(c)
	rel := (rank - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := (rel - mask + root) % size
			m, err := Recv(r, c, src, tag)
			if err != nil {
				return nil, err
			}
			data = m.Data
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < size {
			dst := (rel + mask + root) % size
			if err := Send(r, c, dst, tag, data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// reduceTree runs a binomial-tree reduction to root. Every rank passes its
// contribution as bytes; combine merges a received contribution into the
// accumulator. Root returns the final accumulator; others return nil.
func reduceTree(r *Rank, c *Comm, root, tag int, local []byte, combine func(acc, in []byte) []byte) ([]byte, error) {
	size := c.Size()
	rank := r.Rank(c)
	rel := (rank - root + size) % size
	acc := local
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			peer := rel | mask
			if peer < size {
				src := (peer + root) % size
				m, err := Recv(r, c, src, tag)
				if err != nil {
					return nil, err
				}
				acc = combine(acc, m.Data)
			}
		} else {
			dst := (rel - mask + root) % size
			if err := Send(r, c, dst, tag, acc); err != nil {
				return nil, err
			}
			return nil, nil
		}
	}
	return acc, nil
}

// Barrier blocks until every rank of comm has entered it.
func Barrier(r *Rank, c *Comm) error {
	tag := r.nextCollTag(c)
	_, err := reduceTree(r, c, 0, tag, nil, keepAcc)
	if err != nil {
		return err
	}
	_, err = bcastTree(r, c, 0, tag-1, nil)
	return err
}

// Bcast broadcasts root's payload to every rank and returns it.
func Bcast(r *Rank, c *Comm, root int, data []byte) ([]byte, error) {
	return bcastTree(r, c, root, r.nextCollTag(c), data)
}

// AllreduceF64 reduces element-wise across ranks; every rank gets the result.
func AllreduceF64(r *Rank, c *Comm, vals []float64, op Op) ([]float64, error) {
	tag := r.nextCollTag(c)
	local := enc.Float64sToBytes(vals)
	out, err := reduceTree(r, c, 0, tag, local, f64Combiner(op))
	if err != nil {
		return nil, err
	}
	res, err := bcastTree(r, c, 0, tag-1, out)
	if err != nil {
		return nil, err
	}
	return enc.BytesToFloat64s(res), nil
}

// AllreduceI64 is AllreduceF64 for int64 payloads.
func AllreduceI64(r *Rank, c *Comm, vals []int64, op Op) ([]int64, error) {
	tag := r.nextCollTag(c)
	local := enc.Int64sToBytes(vals)
	out, err := reduceTree(r, c, 0, tag, local, i64Combiner(op))
	if err != nil {
		return nil, err
	}
	res, err := bcastTree(r, c, 0, tag-1, out)
	if err != nil {
		return nil, err
	}
	return enc.BytesToInt64s(res), nil
}

// AllreduceF64Scalar reduces a single float64.
func AllreduceF64Scalar(r *Rank, c *Comm, v float64, op Op) (float64, error) {
	out, err := AllreduceF64(r, c, []float64{v}, op)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// AllreduceI64Scalar reduces a single int64.
func AllreduceI64Scalar(r *Rank, c *Comm, v int64, op Op) (int64, error) {
	out, err := AllreduceI64(r, c, []int64{v}, op)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// Gatherv gathers variable-size payloads to root; root receives them in
// rank order (its own contribution included), others get nil.
func Gatherv(r *Rank, c *Comm, root int, data []byte) ([][]byte, error) {
	tag := r.nextCollTag(c)
	rank := r.Rank(c)
	if rank != root {
		return nil, Send(r, c, root, tag, data)
	}
	out := make([][]byte, c.Size())
	out[root] = data
	for i := 0; i < c.Size(); i++ {
		if i == root {
			continue
		}
		m, err := Recv(r, c, i, tag)
		if err != nil {
			return nil, err
		}
		out[i] = m.Data
	}
	return out, nil
}

// Allgatherv gathers every rank's payload to all ranks, in rank order.
func Allgatherv(r *Rank, c *Comm, data []byte) ([][]byte, error) {
	tag := r.nextCollTag(c)
	parts, err := Gatherv(r, c, 0, data)
	if err != nil {
		return nil, err
	}
	// Root flattens with length prefixes, broadcasts, everyone unpacks.
	var flat []byte
	if r.Rank(c) == 0 {
		n := 0
		for _, p := range parts {
			n += 8 + len(p)
		}
		flat = make([]byte, 0, n)
		for _, p := range parts {
			flat = enc.AppendBytes(flat, p)
		}
	}
	flat, err = bcastTree(r, c, 0, tag-1, flat)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.Size())
	rest := flat
	for i := range out {
		out[i], rest = enc.NextBytes(rest)
	}
	return out, nil
}
