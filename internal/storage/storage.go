// Package storage simulates the paper's two storage tiers (§V-A): per-node
// RAMFS (/dev/shm, where the paper stores L1 checkpoints) and a shared
// parallel file system (PFS). Reads and writes charge virtual time to the
// calling process by each tier's fixed latency and bandwidth — RAMFS 2µs
// and 8 GB/s, PFS 2ms and 20 GB/s aggregate; PFS traffic additionally
// serializes on the shared PFS servers, so concurrent flushes from many
// ranks contend, just like a real Lustre partition.
//
// Failure semantics mirror the hardware: a *process* failure leaves all
// files intact (files in /dev/shm belong to the node, not the process — the
// property FTI L1 recovery relies on), while a *node* failure makes the
// node's RAMFS unreachable. The PFS survives everything.
//
// A file's content is the slice it was written with, not a copy: written
// bytes belong to the store, and the writer must not modify them
// afterwards. Reads return that same slice, which a reader must not
// modify either. The one client, FTI, writes each checkpoint payload it
// builds and copies out of what it reads.
//
// A file's content may also be deferred (WriteDeferred): the file is
// charged for its size when written and its bytes are made by a fill
// function when it is first read, then kept like written ones. Stored
// bytes are immutable either way, so the fill's inputs must be too; a
// file deleted, overwritten or lost with its node before any read never
// runs its fill.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"match/internal/simnet"
)

// Tier identifies a storage tier.
type Tier int

const (
	// RAMFS is node-local memory-backed storage (/dev/shm).
	RAMFS Tier = iota
	// PFS is the shared parallel file system.
	PFS
)

func (t Tier) String() string {
	switch t {
	case RAMFS:
		return "ramfs"
	case PFS:
		return "pfs"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ErrNotFound is returned when a path does not exist in the selected store.
var ErrNotFound = errors.New("storage: not found")

// ErrNodeDown is returned when accessing local storage of a failed node.
var ErrNodeDown = errors.New("storage: node down")

// The tiers' performance model: the paper's testbed, fixed.
const (
	ramBWBps float64     = 8e9 // RAMFS bandwidth (bytes/s), memcpy-bound
	ramLat   simnet.Time = 2 * simnet.Microsecond
	pfsBWBps float64     = 20e9 // aggregate PFS bandwidth, shared by all clients
	pfsLat   simnet.Time = 2 * simnet.Millisecond
)

// Config is empty: the tiers are fixed. New keeps it as a parameter only
// because the benchmark harness, which changes in its own PRs, calls
// New(c, Config{}) (bench/probes.go).
type Config struct{}

// file is one stored file of size bytes: data, or — until its first read —
// nil data and the fill that makes them.
type file struct {
	data []byte
	size int
	fill func() []byte
}

// System is the cluster-wide storage fabric.
type System struct {
	cluster *simnet.Cluster
	ramfs   []map[string]file // by node
	pfs     map[string]file
	pfsFree simnet.Time // busy horizon of the shared PFS servers
}

// New builds the storage system for a cluster.
func New(c *simnet.Cluster, _ Config) *System {
	s := &System{cluster: c, pfs: make(map[string]file)}
	for i := 0; i < c.NumNodes(); i++ {
		s.ramfs = append(s.ramfs, make(map[string]file))
	}
	return s
}

// files returns the files of a tier of node (node is ignored for PFS).
func (s *System) files(tier Tier, node int) (map[string]file, error) {
	if tier == PFS {
		return s.pfs, nil
	}
	if !s.cluster.Node(node).Alive() {
		return nil, ErrNodeDown
	}
	return s.ramfs[node], nil
}

// scaled is the volume time is charged for: the cluster's per-run byte
// scale makes scaled-down checkpoints pay paper-scale I/O time.
func (s *System) scaled(size int) float64 { return s.cluster.Config().Scaled(size) }

// charge charges p for moving size bytes through a tier.
func (s *System) charge(p *simnet.Proc, tier Tier, size int) {
	if tier == PFS {
		s.chargePFS(p, size)
		return
	}
	p.Sleep(ramLat + simnet.Time(s.scaled(size)/ramBWBps*1e9))
}

// chargePFS charges p for a PFS transfer, serializing on the shared
// servers: concurrent clients queue, so flush time grows with the number
// of ranks writing at once.
func (s *System) chargePFS(p *simnet.Proc, size int) {
	now := p.Now()
	start := now
	if s.pfsFree > start {
		start = s.pfsFree
	}
	xfer := simnet.Time(s.scaled(size) / pfsBWBps * 1e9)
	s.pfsFree = start + xfer
	p.Sleep((start - now) + xfer + pfsLat)
}

// put charges p for writing f's size bytes and then stores f at path.
func (s *System) put(p *simnet.Proc, tier Tier, node int, path string, f file) error {
	m, err := s.files(tier, node)
	if err != nil {
		return err
	}
	s.charge(p, tier, f.size)
	m[path] = f
	return nil
}

// Write stores data at path in the given tier of node (node is ignored for
// PFS) and charges the calling process. The store keeps data itself: the
// caller must not modify it afterwards.
func (s *System) Write(p *simnet.Proc, tier Tier, node int, path string, data []byte) error {
	return s.put(p, tier, node, path, file{data: data, size: len(data)})
}

// WriteDeferred stores a file of size bytes at path, charging exactly what
// Write charges for size bytes, and leaves its content to fill: the first
// Read runs fill once and keeps what it returns, which must be size bytes
// that never change. Until then the file is listed, sized and deleted
// like any other, and fill does not run.
func (s *System) WriteDeferred(p *simnet.Proc, tier Tier, node int, path string, size int, fill func() []byte) error {
	return s.put(p, tier, node, path, file{size: size, fill: fill})
}

// WriteRemote stores data in a *remote* node's local tier, charging both
// the network transfer (via the sender's NIC) and the remote write. This is
// FTI L2's partner copy. Like Write, it keeps data itself.
func (s *System) WriteRemote(p *simnet.Proc, tier Tier, fromNode, toNode int, path string, data []byte) error {
	arrive := s.cluster.SendArrival(fromNode, toNode, len(data), p.Now())
	p.Sleep(arrive - p.Now())
	return s.Write(p, tier, toNode, path, data)
}

// WriteFree installs data at path without charging any time. Used by
// differential checkpointing, where only the dirty blocks cross the wire
// but the logical file content is complete. Like Write, it keeps data
// itself.
func (s *System) WriteFree(tier Tier, node int, path string, data []byte) error {
	m, err := s.files(tier, node)
	if err != nil {
		return err
	}
	m[path] = file{data: data, size: len(data)}
	return nil
}

// Read returns the data at path, charging the calling process. The slice
// is the stored one: the caller must not modify it. A deferred file is
// filled here, before the charge, so a file deleted or overwritten while
// its reader is charged is never written back.
func (s *System) Read(p *simnet.Proc, tier Tier, node int, path string) ([]byte, error) {
	m, err := s.files(tier, node)
	if err != nil {
		return nil, err
	}
	f, ok := m[path]
	if !ok {
		return nil, ErrNotFound
	}
	if f.fill != nil {
		f.data, f.fill = f.fill(), nil
		m[path] = f
	}
	s.charge(p, tier, f.size)
	return f.data, nil
}

// ReadRemote fetches a file from a remote node's local tier, charging the
// remote read plus the network transfer back. Used by FTI L2/L3 recovery.
// Like Read, it returns the stored slice.
func (s *System) ReadRemote(p *simnet.Proc, tier Tier, fromNode, toNode int, path string) ([]byte, error) {
	data, err := s.Read(p, tier, fromNode, path)
	if err != nil {
		return nil, err
	}
	arrive := s.cluster.SendArrival(fromNode, toNode, len(data), p.Now())
	p.Sleep(arrive - p.Now())
	return data, nil
}

// Delete removes a path; missing paths are ignored. No time is charged
// (metadata operations are negligible at checkpoint granularity).
func (s *System) Delete(tier Tier, node int, path string) {
	if m, err := s.files(tier, node); err == nil {
		delete(m, path)
	}
}

// Exists reports whether path exists without charging time (a stat call).
func (s *System) Exists(tier Tier, node int, path string) bool {
	return s.Size(tier, node, path) >= 0
}

// List returns the sorted paths with the given prefix in a tier.
func (s *System) List(tier Tier, node int, prefix string) []string {
	m, err := s.files(tier, node)
	if err != nil {
		return nil
	}
	var out []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns the byte size of path or -1 if absent.
func (s *System) Size(tier Tier, node int, path string) int {
	m, err := s.files(tier, node)
	if err != nil {
		return -1
	}
	if f, ok := m[path]; ok {
		return f.size
	}
	return -1
}
