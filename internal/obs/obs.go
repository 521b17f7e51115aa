// Package obs holds the observer seam and two of its three consumers. A
// simulator layer reports one event as one trace.Span through the run's
// Probe (probe.go); the Probe hands the span to the metrics registry, the
// trace recorder and the structured event log. This package owns the
// Probe, the Registry — an allocation-conscious set of counters, gauges and
// fixed-bucket histograms with OpenMetrics exposition — the slog-backed
// event Log, and the live SweepMeter with its /metrics and /status HTTP
// handlers.
//
// The recorder keeps "what happened inside one run" as a span timeline;
// the registry keeps "how much, across how many runs" as totals cheap
// enough to hold during a 10k-cell campaign and scrapeable while it runs.
// Both are fed by the same Emit, so they cannot disagree about which
// events occurred.
//
// A nil *Probe, *Registry or *Log is the inert default — every method is
// nil-receiver safe, instrumented code pays one branch per potential
// emission, and an observers-off run is byte-identical to an
// uninstrumented one. A metered run self-checks: core.Run reconciles the
// registry totals against the Breakdown and fails hard on divergence.
//
// The registry records plain int64s with no locking: one Registry serves
// one core.Run, which is single-threaded in virtual time. Sweeps give
// every cell a fresh Registry and Merge the finished cell into a
// SweepMeter under its own lock.
package obs

import (
	"fmt"
	"strings"
)

// Counter enumerates the monotonically increasing totals. The registry
// stores them in a fixed array, so incrementing is an index and an add.
type Counter uint8

const (
	// Scheduler (simnet).

	// CEventsScheduled counts events pushed onto the scheduler heap.
	CEventsScheduled Counter = iota
	// CEventsFired counts events dispatched by the drain loop.
	CEventsFired
	// CEventsCancelled counts events eagerly removed by Cancel.
	CEventsCancelled
	// CSlotsReused counts timer slots taken from the free list.
	CSlotsReused
	// CSlotsGrown counts timer slots newly appended to the slot table.
	CSlotsGrown
	// CLeakedEvents counts events still pending when the run ended.
	CLeakedEvents

	// Message path (mpi).

	// CMessages counts point-to-point sends (each replica copy is one).
	CMessages
	// CMsgBytes sums payload bytes over CMessages.
	CMsgBytes
	// CCollectives counts collective rounds.
	CCollectives
	// CDedupDrops counts duplicate messages suppressed at replicated
	// receivers.
	CDedupDrops
	// CDeliveriesPooled counts delivery records reused from the free list.
	CDeliveriesPooled
	// CDeliveriesAlloc counts delivery records newly allocated.
	CDeliveriesAlloc

	// Faults and detection.

	// CInjections counts fired fault injections.
	CInjections
	// CNodeFailures counts node failures.
	CNodeFailures
	// CDetections counts confirmed failure detections.
	CDetections
	// CHeartbeats counts detector heartbeat rounds.
	CHeartbeats

	// Checkpointing (fti + ckpt policy).

	// CCheckpoints counts committed checkpoint writes across all ranks
	// and levels (per-level splits live in the CkptCountAt array).
	CCheckpoints
	// CCkptBytes sums bytes over CCheckpoints.
	CCkptBytes
	// CRestores counts FTI recovery read-backs.
	CRestores
	// CPolicyArms counts checkpoint-placement policy re-arms.
	CPolicyArms
	// CPolicyAvoids counts checkpoints the policy skipped at a stride
	// boundary.
	CPolicyAvoids

	// Designs.

	// CRecoveries counts design-level recoveries (relaunch, reinit reset,
	// ULFM repair, replica failover/fallback).
	CRecoveries
	// CFailovers counts replica leader failover commits.
	CFailovers
	// CAbsorbs counts failures absorbed in place by a hot spare.
	CAbsorbs
	// CFallbacks counts replica groups exhausted to checkpoint fallback.
	CFallbacks
	// CRepairs counts in-situ repairs completed by the restart, reinit,
	// and ULFM runtimes.
	CRepairs
	// CRespawns counts hot spares that went live.
	CRespawns
	// CRespawnsAborted counts hot-spare respawns aborted before go-live.
	CRespawnsAborted

	numCounters
)

// Gauge enumerates the level-style figures (non-monotonic; the registry
// keeps the maximum observed value for high-water semantics).
type Gauge uint8

const (
	// GHeapHighWater is the maximum scheduler heap length observed.
	GHeapHighWater Gauge = iota

	numGauges
)

// Hist enumerates the fixed-bucket histograms.
type Hist uint8

const (
	// HMsgBytes is the point-to-point payload size distribution (bytes).
	HMsgBytes Hist = iota
	// HCkptBytes is the per-checkpoint size distribution (bytes).
	HCkptBytes
	// HDetectNs is the failure detection latency distribution (virtual ns).
	HDetectNs
	// HRecoveryNs is the design-level recovery duration distribution
	// (virtual ns).
	HRecoveryNs

	numHists
)

// FTILevels bounds the per-level checkpoint arrays (levels 1..4; index 0
// unused), matching core.Breakdown.CkptCountAt.
const FTILevels = 5

// histBuckets is the largest bucket count any histogram uses; histogram
// state is fixed arrays sized by it, so a Registry is one allocation.
const histBuckets = 12

// byteBounds and nsBounds are the shared upper bucket bounds (inclusive,
// power-of-4-ish). The final +Inf bucket is implicit.
var (
	byteBounds = [...]int64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	nsBounds   = [...]int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}
)

// histBounds maps each histogram to its bucket bounds.
var histBounds = [numHists][]int64{
	HMsgBytes:   byteBounds[:],
	HCkptBytes:  byteBounds[:],
	HDetectNs:   nsBounds[:],
	HRecoveryNs: nsBounds[:],
}

// hist is one fixed-bucket histogram: counts[i] is the number of
// observations <= bounds[i]; counts[len(bounds)] is the overflow (+Inf)
// bucket.
type hist struct {
	counts [histBuckets + 1]int64
	sum    int64
	n      int64
}

func (h *hist) observe(bounds []int64, v int64) {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Registry accumulates one run's metrics. The zero value of *Registry —
// nil — is the inert default; New returns a live one.
type Registry struct {
	counters  [numCounters]int64
	gauges    [numGauges]int64
	ckptCount [FTILevels]int64
	ckptBytes [FTILevels]int64
	hists     [numHists]hist
	rankSends []int64 // per-rank point-to-point send counts
}

// New returns an empty live registry.
func New() *Registry { return &Registry{} }

// Enabled reports whether a registry is attached (r non-nil).
func (r *Registry) Enabled() bool { return r != nil }

// Inc adds one to counter c. No-op on a nil registry.
func (r *Registry) Inc(c Counter) {
	if r == nil {
		return
	}
	r.counters[c]++
}

// Add adds v to counter c. No-op on a nil registry.
func (r *Registry) Add(c Counter, v int64) {
	if r == nil {
		return
	}
	r.counters[c] += v
}

// Get returns counter c's value; 0 on a nil registry.
func (r *Registry) Get(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c]
}

// SetMax raises gauge g to v if v exceeds the recorded maximum.
func (r *Registry) SetMax(g Gauge, v int64) {
	if r == nil {
		return
	}
	if v > r.gauges[g] {
		r.gauges[g] = v
	}
}

// Gauge returns gauge g's value; 0 on a nil registry.
func (r *Registry) Gauge(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g]
}

// Observe records v into histogram h. No-op on a nil registry.
func (r *Registry) Observe(h Hist, v int64) {
	if r == nil {
		return
	}
	r.hists[h].observe(histBounds[h], v)
}

// Ckpt records one committed checkpoint of size bytes at FTI level
// (1..4): the total counters, the per-level split, and the size
// histogram. No-op on a nil registry.
func (r *Registry) Ckpt(level int, bytes int64) {
	if r == nil {
		return
	}
	r.counters[CCheckpoints]++
	r.counters[CCkptBytes] += bytes
	if level > 0 && level < FTILevels {
		r.ckptCount[level]++
		r.ckptBytes[level] += bytes
	}
	r.hists[HCkptBytes].observe(histBounds[HCkptBytes], bytes)
}

// CkptAt returns the per-level checkpoint (count, bytes) for level.
func (r *Registry) CkptAt(level int) (count, bytes int64) {
	if r == nil || level < 0 || level >= FTILevels {
		return 0, 0
	}
	return r.ckptCount[level], r.ckptBytes[level]
}

// EnsureRanks grows the per-rank send table to cover n ranks. Called once
// per run from the harness, so steady-state IncRankSend never grows.
func (r *Registry) EnsureRanks(n int) {
	if r == nil || n <= len(r.rankSends) {
		return
	}
	grown := make([]int64, n)
	copy(grown, r.rankSends)
	r.rankSends = grown
}

// IncRankSend counts one point-to-point send issued by rank. Out-of-range
// ranks (or a nil registry) are ignored.
func (r *Registry) IncRankSend(rank int) {
	if r == nil || rank < 0 || rank >= len(r.rankSends) {
		return
	}
	r.rankSends[rank]++
}

// RankSends returns the live per-rank send table (not a copy).
func (r *Registry) RankSends() []int64 {
	if r == nil {
		return nil
	}
	return r.rankSends
}

// Merge adds o's totals into r: counters and histograms sum, gauges take
// the max, and the per-rank table grows to cover both. Used by
// core's Cells (across the reps of a cell) and the SweepMeter (across
// cells).
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	for i := range r.counters {
		r.counters[i] += o.counters[i]
	}
	for i := range r.gauges {
		if o.gauges[i] > r.gauges[i] {
			r.gauges[i] = o.gauges[i]
		}
	}
	for i := range r.ckptCount {
		r.ckptCount[i] += o.ckptCount[i]
		r.ckptBytes[i] += o.ckptBytes[i]
	}
	for i := range r.hists {
		dst, src := &r.hists[i], &o.hists[i]
		for b := range dst.counts {
			dst.counts[b] += src.counts[b]
		}
		dst.sum += src.sum
		dst.n += src.n
	}
	r.EnsureRanks(len(o.rankSends))
	for i, v := range o.rankSends {
		r.rankSends[i] += v
	}
}

// Expect is the harness-side view the registry reconciles against: the
// Breakdown figures plus raw (un-deduplicated, all-rank) FTI sums the
// harness accumulates by an independent path — the registry counts the
// spans each layer emits at write time, the Breakdown counts at teardown
// from each design's own accounting.
type Expect struct {
	Messages     int64
	MsgBytes     int64
	Injections   int64
	Detections   int64
	Recoveries   int64
	Respawns     int64
	PolicyAvoids int64
	LeakedEvents int64
	Checkpoints  int64
	CkptBytes    int64
	CkptCountAt  [FTILevels]int
	CkptBytesAt  [FTILevels]int64
	Restores     int64
}

// Reconcile compares the registry totals against e and returns an error
// naming every diverging figure; nil when everything matches exactly. A
// nil registry reconciles trivially.
func (r *Registry) Reconcile(e Expect) error {
	if r == nil {
		return nil
	}
	var diffs []string
	check := func(name string, got, want int64) {
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s: registry %d != expected %d", name, got, want))
		}
	}
	check("messages", r.counters[CMessages], e.Messages)
	check("msg-bytes", r.counters[CMsgBytes], e.MsgBytes)
	check("injections", r.counters[CInjections], e.Injections)
	check("detections", r.counters[CDetections], e.Detections)
	check("recoveries", r.counters[CRecoveries], e.Recoveries)
	check("respawns", r.counters[CRespawns], e.Respawns)
	check("policy-avoids", r.counters[CPolicyAvoids], e.PolicyAvoids)
	check("leaked-events", r.counters[CLeakedEvents], e.LeakedEvents)
	check("checkpoints", r.counters[CCheckpoints], e.Checkpoints)
	check("ckpt-bytes", r.counters[CCkptBytes], e.CkptBytes)
	check("restores", r.counters[CRestores], e.Restores)
	for lvl := 1; lvl < FTILevels; lvl++ {
		check(fmt.Sprintf("ckpt-count-l%d", lvl), r.ckptCount[lvl], int64(e.CkptCountAt[lvl]))
		check(fmt.Sprintf("ckpt-bytes-l%d", lvl), r.ckptBytes[lvl], e.CkptBytesAt[lvl])
	}
	if diffs != nil {
		return fmt.Errorf("obs: registry/breakdown divergence: %s", strings.Join(diffs, "; "))
	}
	return nil
}
