package mpi

import (
	"sort"

	"match/internal/enc"
)

// SparseExchange delivers a payload to an arbitrary, possibly empty, set
// of destination ranks and returns the payloads addressed to the caller,
// keyed by source rank. It is MPI's irregular-neighborhood all-to-all: the
// in-degree of every rank is agreed through one summed
// allreduce over a counts vector (O(P) bytes, O(log P) messages), then
// only real payloads travel — the pattern distributed graph codes such as
// miniVite use for ghost and aggregate exchange.
//
// Collective: every rank of comm must call it, even with an empty send map.
func SparseExchange(r *Rank, c *Comm, send map[int][]byte) (map[int][]byte, error) {
	size := c.Size()
	counts := make([]int64, size)
	dsts := make([]int, 0, len(send))
	for d := range send {
		counts[d]++
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	inCounts, err := AllreduceI64(r, c, counts, OpSum)
	if err != nil {
		return nil, err
	}
	tag := r.nextCollTag(c) - 7 // dedicated slot within this call's block
	me := r.Rank(c)
	for _, d := range dsts {
		if err := Send(r, c, d, tag, send[d]); err != nil {
			return nil, err
		}
	}
	out := make(map[int][]byte, inCounts[me])
	for i := int64(0); i < inCounts[me]; i++ {
		m, err := Recv(r, c, AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[m.SrcRank] = m.Data
	}
	return out, nil
}

// SparseExchangeI64 is SparseExchange for int64 payloads.
func SparseExchangeI64(r *Rank, c *Comm, send map[int][]int64) (map[int][]int64, error) {
	raw := make(map[int][]byte, len(send))
	for d, v := range send {
		raw[d] = enc.Int64sToBytes(v)
	}
	got, err := SparseExchange(r, c, raw)
	if err != nil {
		return nil, err
	}
	out := make(map[int][]int64, len(got))
	for s, b := range got {
		out[s] = enc.BytesToInt64s(b)
	}
	return out, nil
}
