// Package storage simulates the cluster's storage hierarchy: per-node RAMFS
// (/dev/shm, where the paper stores L1 checkpoints), per-node local SSD,
// and a shared parallel file system (PFS). Reads and writes charge virtual
// time to the calling process according to per-tier latency and bandwidth;
// PFS traffic additionally serializes on shared PFS servers, so concurrent
// flushes from many ranks contend, just like a real Lustre partition.
//
// Failure semantics mirror the hardware: a *process* failure leaves all
// files intact (files in /dev/shm belong to the node, not the process — the
// property FTI L1 recovery relies on), while a *node* failure makes the
// node's RAMFS and SSD unreachable. The PFS survives everything.
//
// A file's content is the slice it was written with, not a copy: written
// bytes belong to the store, and the writer must not modify them
// afterwards. Reads return that same slice, which a reader must not
// modify either. The one client, FTI, writes each checkpoint payload it
// builds and copies out of what it reads.
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
	// SSD is node-local flash storage.
	SSD
	// PFS is the shared parallel file system.
	PFS
)

func (t Tier) String() string {
	switch t {
	case RAMFS:
		return "ramfs"
	case SSD:
		return "ssd"
	case PFS:
		return "pfs"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ErrNotFound is returned when a path does not exist in the selected store.
var ErrNotFound = errors.New("storage: not found")

// ErrNodeDown is returned when accessing local storage of a failed node.
var ErrNodeDown = errors.New("storage: node down")

// Config sets the performance model for each tier.
type Config struct {
	RAMBWBps float64     // RAMFS bandwidth (bytes/s)
	RAMLat   simnet.Time // RAMFS per-op latency
	SSDBWBps float64
	SSDLat   simnet.Time
	PFSBWBps float64 // aggregate PFS bandwidth, shared by all clients
	PFSLat   simnet.Time
}

// DefaultConfig approximates the paper's testbed: fast shm, a local SSD,
// and a shared parallel file system.
func DefaultConfig() Config {
	return Config{
		RAMBWBps: 8e9, // 8 GB/s memcpy-bound
		RAMLat:   2 * simnet.Microsecond,
		SSDBWBps: 1e9, // 1 GB/s NVMe-ish
		SSDLat:   80 * simnet.Microsecond,
		PFSBWBps: 20e9, // 20 GB/s aggregate
		PFSLat:   2 * simnet.Millisecond,
	}
}

type nodeStore struct {
	ramfs map[string][]byte
	ssd   map[string][]byte
}

// System is the cluster-wide storage fabric.
type System struct {
	cfg     Config
	cluster *simnet.Cluster
	nodes   []*nodeStore
	pfs     map[string][]byte
	pfsFree simnet.Time // busy horizon of the shared PFS servers
}

// New builds the storage system for a cluster.
func New(c *simnet.Cluster, cfg Config) *System {
	def := DefaultConfig()
	if cfg.RAMBWBps == 0 {
		cfg.RAMBWBps = def.RAMBWBps
	}
	if cfg.RAMLat == 0 {
		cfg.RAMLat = def.RAMLat
	}
	if cfg.SSDBWBps == 0 {
		cfg.SSDBWBps = def.SSDBWBps
	}
	if cfg.SSDLat == 0 {
		cfg.SSDLat = def.SSDLat
	}
	if cfg.PFSBWBps == 0 {
		cfg.PFSBWBps = def.PFSBWBps
	}
	if cfg.PFSLat == 0 {
		cfg.PFSLat = def.PFSLat
	}
	s := &System{cfg: cfg, cluster: c, pfs: make(map[string][]byte)}
	for i := 0; i < c.NumNodes(); i++ {
		s.nodes = append(s.nodes, &nodeStore{
			ramfs: make(map[string][]byte),
			ssd:   make(map[string][]byte),
		})
	}
	return s
}

// Config returns the storage performance model.
func (s *System) Config() Config { return s.cfg }

func (s *System) local(tier Tier, node int) (map[string][]byte, error) {
	if !s.cluster.Node(node).Alive() {
		return nil, ErrNodeDown
	}
	switch tier {
	case RAMFS:
		return s.nodes[node].ramfs, nil
	case SSD:
		return s.nodes[node].ssd, nil
	}
	return nil, fmt.Errorf("storage: %v is not node-local", tier)
}

// scaled is the volume time is charged for: the cluster's per-run byte
// scale makes scaled-down checkpoints pay paper-scale I/O time.
func (s *System) scaled(size int) float64 { return s.cluster.Config().Scaled(size) }

// chargeLocal charges p for moving size bytes through a local tier.
func (s *System) chargeLocal(p *simnet.Proc, tier Tier, size int) {
	var bw float64
	var lat simnet.Time
	switch tier {
	case RAMFS:
		bw, lat = s.cfg.RAMBWBps, s.cfg.RAMLat
	case SSD:
		bw, lat = s.cfg.SSDBWBps, s.cfg.SSDLat
	}
	p.Sleep(lat + simnet.Time(s.scaled(size)/bw*1e9))
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
	xfer := simnet.Time(s.scaled(size) / s.cfg.PFSBWBps * 1e9)
	s.pfsFree = start + xfer
	p.Sleep((start - now) + xfer + s.cfg.PFSLat)
}

// Write stores data at path in the given tier of node (node is ignored for
// PFS) and charges the calling process. The store keeps data itself: the
// caller must not modify it afterwards.
func (s *System) Write(p *simnet.Proc, tier Tier, node int, path string, data []byte) error {
	if tier == PFS {
		s.chargePFS(p, len(data))
		s.pfs[path] = data
		return nil
	}
	m, err := s.local(tier, node)
	if err != nil {
		return err
	}
	s.chargeLocal(p, tier, len(data))
	m[path] = data
	return nil
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
	if tier == PFS {
		s.pfs[path] = data
		return nil
	}
	m, err := s.local(tier, node)
	if err != nil {
		return err
	}
	m[path] = data
	return nil
}

// Read returns the data at path, charging the calling process. The slice
// is the stored one: the caller must not modify it.
func (s *System) Read(p *simnet.Proc, tier Tier, node int, path string) ([]byte, error) {
	if tier == PFS {
		data, ok := s.pfs[path]
		if !ok {
			return nil, ErrNotFound
		}
		s.chargePFS(p, len(data))
		return data, nil
	}
	m, err := s.local(tier, node)
	if err != nil {
		return nil, err
	}
	data, ok := m[path]
	if !ok {
		return nil, ErrNotFound
	}
	s.chargeLocal(p, tier, len(data))
	return data, nil
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
	if tier == PFS {
		delete(s.pfs, path)
		return
	}
	if m, err := s.local(tier, node); err == nil {
		delete(m, path)
	}
}

// Exists reports whether path exists without charging time (a stat call).
func (s *System) Exists(tier Tier, node int, path string) bool {
	if tier == PFS {
		_, ok := s.pfs[path]
		return ok
	}
	m, err := s.local(tier, node)
	if err != nil {
		return false
	}
	_, ok := m[path]
	return ok
}

// List returns the sorted paths with the given prefix in a tier.
func (s *System) List(tier Tier, node int, prefix string) []string {
	var m map[string][]byte
	if tier == PFS {
		m = s.pfs
	} else {
		var err error
		m, err = s.local(tier, node)
		if err != nil {
			return nil
		}
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
	if tier == PFS {
		if d, ok := s.pfs[path]; ok {
			return len(d)
		}
		return -1
	}
	m, err := s.local(tier, node)
	if err != nil {
		return -1
	}
	if d, ok := m[path]; ok {
		return len(d)
	}
	return -1
}
