package fti

import (
	"fmt"

	"match/internal/enc"
	"match/internal/mpi"
	"match/internal/rs"
	"match/internal/storage"
)

// ---- L1: node-local RAMFS ----

func (f *FTI) writeL1(id int64, payload []byte) error {
	return f.st.Write(f.r.Sim(), storage.RAMFS, f.node, f.ckptPath(id), payload)
}

// ---- L2: L1 plus a copy on the partner node ----

func (f *FTI) writeL2(id int64, payload []byte) error {
	if err := f.writeL1(id, payload); err != nil {
		return err
	}
	return f.st.WriteRemote(f.r.Sim(), storage.RAMFS, f.node, f.partnerNode(),
		"p/"+f.partnerPath(id), payload)
}

func (f *FTI) readL2(id int64) ([]byte, error) {
	if b, err := f.st.Read(f.r.Sim(), storage.RAMFS, f.node, f.ckptPath(id)); err == nil {
		return b, nil
	}
	return f.st.ReadRemote(f.r.Sim(), storage.RAMFS, f.partnerNode(), f.node,
		"p/"+f.partnerPath(id))
}

// ---- L3: Reed–Solomon erasure coding across a group of ranks ----
//
// Ranks are partitioned into contiguous groups of GroupSize. Each member
// stores its own checkpoint (a data shard) plus one parity shard of the
// group's (k=G, m=G) code. Any G of the 2G shards reconstruct every
// member's data, so the group survives the loss of half its members' nodes
// — the property the paper quotes for FTI L3.
//
// Both directions work a row at a time, so a rank pays only for what it
// keeps: a checkpoint encodes the one parity row this member stores (G
// shard passes, not the G*G of a full Encode), straight into the blob it
// writes; a recovery rebuilds the one data shard this member lost. A
// one-member group (the ragged tail of a communicator) has no code: its
// "parity" is a second copy of the payload.
//
// The parity blob is charged when it is written but encoded when it is
// first read (storage.WriteDeferred). A group reads parity only when a
// member has lost its L1 file — the node-loss case — so most checkpoints
// are superseded without ever running the code. The deferred encode reads
// the group's exchanged payloads, which cannot change before it runs:
// storage keeps stored bytes immutable, and nothing writes into a
// received message.

// l3Group returns the group communicator and this rank's index within it.
// The group is derived from the communicator FTI is bound to (Comm.Sub), so
// on a replica communicator it is replica-aware, and it is revoked with
// that communicator.
func (f *FTI) l3Group() (*mpi.Comm, int) {
	g := f.cfg.GroupSize
	lo := f.rank - f.rank%g
	hi := min(lo+g, f.comm.Size())
	return f.comm.Sub(lo, hi), f.rank - lo
}

// l3Code returns the (g, g) code of this rank's erasure group, built on
// first use: the group is fixed by the communicator FTI is bound to.
func (f *FTI) l3Code(g int) (*rs.Code, error) {
	if f.code == nil {
		code, err := rs.New(g, g)
		if err != nil {
			return nil, err
		}
		f.code = code
	}
	return f.code, nil
}

func (f *FTI) writeL3(id int64, payload []byte) error {
	if err := f.writeL1(id, payload); err != nil {
		return err
	}
	group, me := f.l3Group()
	g := group.Size()
	if g == 1 {
		// Degenerate group: parity is a plain copy.
		return f.st.Write(f.r.Sim(), storage.RAMFS, f.node, f.parityPath(id), payload)
	}
	// Exchange checkpoints within the group (the FTI encoding ring sends
	// equivalent volume), then each member stores its own parity shard.
	all, err := mpi.Allgatherv(f.r, group, payload)
	if err != nil {
		return fmt.Errorf("fti: L3 exchange: %w", err)
	}
	size := 0
	for _, b := range all {
		if len(b) > size {
			size = len(b)
		}
	}
	code, err := f.l3Code(g)
	if err != nil {
		return err
	}
	// Every check the deferred encode will make, made now over g empty
	// shards, so a bad geometry fails this write and the fill cannot fail.
	if err := code.EncodeRowInto(nil, me, make([][]byte, g)); err != nil {
		return err
	}
	// The parity blob: the padded shard size, the g true payload lengths
	// (so reconstruction can un-pad), then this member's parity row,
	// length-prefixed and encoded in place. Padding happens in the fill
	// too, so a pending fill holds only the group's shared exchange, not a
	// padded copy of it per member.
	fill := func() []byte {
		data := make([][]byte, g)
		for i, b := range all {
			data[i] = rs.Pad(b, size)
		}
		blob := make([]byte, 8*(g+2)+size)
		head := enc.AppendUint64(blob[:0], uint64(size))
		for _, b := range all {
			head = enc.AppendUint64(head, uint64(len(b)))
		}
		head = enc.AppendUint64(head, uint64(size))
		if err := code.EncodeRowInto(blob[len(head):], me, data); err != nil {
			panic("fti: deferred L3 encode: " + err.Error())
		}
		return blob
	}
	return f.st.WriteDeferred(f.r.Sim(), storage.RAMFS, f.node, f.parityPath(id), 8*(g+2)+size, fill)
}

// readL3 is collective over the erasure group: every member must call it
// (which Recover guarantees, since the restart status is agreed
// collectively). If nobody lost data it degenerates to a local read plus
// one tiny allreduce; otherwise the whole group exchanges its surviving
// shards and the losers reconstruct.
func (f *FTI) readL3(id int64) ([]byte, error) {
	group, me := f.l3Group()
	g := group.Size()
	myData, lerr := f.st.Read(f.r.Sim(), storage.RAMFS, f.node, f.ckptPath(id))
	missing := int64(0)
	if lerr != nil {
		missing = 1
	}
	anyMissing, err := mpi.AllreduceI64Scalar(f.r, group, missing, mpi.OpMax)
	if err != nil {
		return nil, fmt.Errorf("fti: L3 status agreement: %w", err)
	}
	if anyMissing == 0 {
		return myData, nil
	}
	myParity, perr := f.st.Read(f.r.Sim(), storage.RAMFS, f.node, f.parityPath(id))
	if g == 1 {
		// A one-member group's parity is writeL3's raw copy of the payload:
		// restore from it and repopulate the lost L1 copy.
		if perr != nil {
			return nil, fmt.Errorf("fti: L3 lost both copies of a one-member group: %w", perr)
		}
		if err := f.writeL1(id, myParity); err != nil {
			return nil, err
		}
		return myParity, nil
	}
	// Collect whatever shards the group still has: gather data and parity
	// separately; a missing file contributes an empty payload.
	datas, err := mpi.Allgatherv(f.r, group, myData)
	if err != nil {
		return nil, err
	}
	parities, err := mpi.Allgatherv(f.r, group, myParity)
	if err != nil {
		return nil, err
	}
	// Decode the shard-length metadata from any surviving parity blob.
	var size int
	lens := make([]int, g)
	found := false
	shards := make([][]byte, 2*g)
	for i := 0; i < g; i++ {
		if len(datas[i]) > 0 {
			shards[i] = datas[i]
		}
		if len(parities[i]) > 0 {
			meta := parities[i]
			size = int(enc.Uint64(meta))
			rest := meta[8:]
			for j := 0; j < g; j++ {
				lens[j] = int(enc.Uint64(rest))
				rest = rest[8:]
			}
			var pshard []byte
			pshard, _ = enc.NextBytes(rest)
			shards[g+i] = pshard
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("fti: L3 group lost all parity shards")
	}
	if lerr == nil {
		// Our own shard survived; we only participated in the exchange.
		return myData, nil
	}
	for i := 0; i < g; i++ {
		if shards[i] != nil {
			shards[i] = rs.Pad(shards[i], size)
		}
	}
	code, err := f.l3Code(g)
	if err != nil {
		return nil, err
	}
	shard, err := code.ReconstructData(shards, me)
	if err != nil {
		return nil, fmt.Errorf("fti: L3 reconstruct: %w", err)
	}
	payload := shard[:lens[me]]
	// Repopulate our local L1 copy so subsequent recoveries are cheap.
	if err := f.writeL1(id, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ---- L4: parallel file system with differential checkpointing ----

func (f *FTI) writeL4(id int64, payload []byte) error {
	sp := f.r.Sim()
	hashes := hashBlocks(payload)
	var prev []uint64
	if b, err := f.st.Read(sp, storage.PFS, f.node, f.hashPath()); err == nil {
		prev = make([]uint64, len(b)/8)
		for i := range prev {
			prev[i] = enc.Uint64(b[8*i:])
		}
	}
	// Count the blocks that actually changed; only they cross the wire.
	changed := 0
	for i := range hashes {
		if i >= len(prev) || prev[i] != hashes[i] {
			changed++
		}
	}
	dirtyBytes := changed * blockSize
	if dirtyBytes > len(payload) {
		dirtyBytes = len(payload)
	}
	// Store the full file (simulation keeps state simple) but charge only
	// the differential traffic, which is what the PFS sees.
	if err := f.writeDiff(f.ckptPath(id), payload, dirtyBytes); err != nil {
		return err
	}
	hb := make([]byte, 0, 8*len(hashes))
	for _, h := range hashes {
		hb = enc.AppendUint64(hb, h)
	}
	return f.st.Write(sp, storage.PFS, f.node, f.hashPath(), hb)
}

// writeDiff stores payload at path charging only dirtyBytes of PFS traffic.
func (f *FTI) writeDiff(path string, payload []byte, dirtyBytes int) error {
	sp := f.r.Sim()
	if dirtyBytes >= len(payload) {
		return f.st.Write(sp, storage.PFS, f.node, path, payload)
	}
	// Charge the dirty traffic, then install the full content without
	// further charge.
	if err := f.st.Write(sp, storage.PFS, f.node, path, payload[:dirtyBytes]); err != nil {
		return err
	}
	return f.st.WriteFree(storage.PFS, f.node, path, payload)
}
