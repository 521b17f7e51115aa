// Package trace defines the simulator's one event vocabulary — the Span —
// and the Recorder that keeps spans as a per-rank timeline. Every layer
// (simnet, mpi, fti, detect, ckpt, fault, replica, the four design
// runtimes) reports an event as one Span through the run's obs.Probe; the
// Recorder is one of the probe's three consumers, beside the metrics
// registry and the event log, and is reached through core.Config.Trace.
//
// A nil *Recorder is the default and is fully inert: every method is
// nil-receiver safe and Wants reports false. The detail mask gates only
// what the Recorder keeps, so a traced run differs from an untraced one in
// nothing but the spans it holds and produces byte-identical output.
//
// Timestamps are virtual nanoseconds (simnet.Time widened to int64, so
// this package stays a leaf with no simulator dependencies). Because the
// simulation is single-threaded in virtual-time order, spans are appended
// chronologically by construction and the Recorder needs no locking.
//
// The recorder is also a correctness oracle: Totals re-derives the
// Breakdown phase sums (Total/App/Ckpt/Recovery/DetectLatency) from raw
// spans by an independent path, and Reconcile errors on any divergence.
package trace

import (
	"fmt"
	"strings"
)

// Cat classifies a recorded span or instant.
type Cat uint8

const (
	catNone Cat = iota

	// Always-on categories (recorded whenever a Recorder is attached).
	// These carry the per-phase timeline and the reconciliation oracle.

	// CatCompute is one application step on one rank (span).
	CatCompute
	// CatCkpt is one FTI checkpoint on one rank (span); Level is the FTI
	// level, Aux the bytes written, Actor the FTI instance.
	CatCkpt
	// CatRestore is one FTI recovery (restart read-back) on one rank (span).
	CatRestore
	// CatRecovery is one design-level recovery — abort+relaunch, Reinit
	// reset, ULFM repair, or replica failover/fallback (span; emitted by
	// the harness from each design's recovery log).
	CatRecovery
	// CatDegraded is the window a replica group ran below its configured
	// degree, from failover prune to hot-spare go-live (span).
	CatDegraded
	// CatSpawn is one hot-spare respawn from schedule to go-live (span).
	CatSpawn
	// CatDetect is one confirmed failure, FailedAt..DetectedAt (span);
	// Aux is the failed process GID.
	CatDetect
	// CatFinish marks a rank completing its main loop (instant).
	CatFinish
	// CatInject is one fired fault injection (instant); Aux is 1 when a
	// replica supervisor absorbed it, Level is 1 for node-failure kind.
	CatInject
	// CatNodeFail is a node failure taking down its processes (instant).
	CatNodeFail
	// CatFailover is a replica leader failover commit (instant).
	CatFailover
	// CatAbsorb is a hot-spare absorbing a failure in place (instant).
	CatAbsorb
	// CatFallback is the replica design giving up on a group and falling
	// back to abort+relaunch (instant).
	CatFallback
	// CatRepair is a design runtime completing a repair in situ (instant;
	// the summed CatRecovery spans are the reconciled figures).
	CatRepair
	// CatPolicyAvoid is a checkpoint the placement policy skipped at a
	// stride boundary (instant); Aux is the iteration.
	CatPolicyAvoid
	// CatPolicyArm is the placement policy re-arming for a new epoch
	// (instant); Aux is the chosen stride.
	CatPolicyArm
	// CatLeak reports events still pending in the scheduler when the run
	// ended (instant); Aux is the count, Start the earliest leaked time.
	CatLeak

	// Detail-gated, high-volume categories (SetDetail to record).

	// CatSend is one point-to-point message (span, send to arrival);
	// Aux is the payload bytes.
	CatSend
	// CatCollective is one collective operation start (instant).
	CatCollective
	// CatDedup is a duplicate message suppressed at a replicated
	// receiver (instant).
	CatDedup
	// CatHeartbeat is one detector heartbeat round (instant); Aux is the
	// number of members pinged.
	CatHeartbeat
	// CatEvent is one scheduler event dispatch (instant).
	CatEvent
	// CatTransfer is one NIC transfer, depart to arrival (span); Aux is
	// the size in bytes.
	CatTransfer

	numCats
)

// NumCats bounds the Cat values: a [NumCats] array indexed by Cat covers
// every category (the probe's consumer tables are sized by it).
const NumCats = int(numCats)

// Detail selects which high-volume categories are recorded. The always-on
// categories ignore it.
type Detail uint32

const (
	// DetailMessages records per-message traffic: sends, collectives, and
	// replica duplicate suppression.
	DetailMessages Detail = 1 << iota
	// DetailHeartbeats records detector heartbeat rounds.
	DetailHeartbeats
	// DetailSim records scheduler event dispatch and NIC transfers.
	DetailSim

	// DetailAll turns on every high-volume category.
	DetailAll = DetailMessages | DetailHeartbeats | DetailSim
)

// catDetail maps each category to the Detail bit gating it; zero means
// always-on.
var catDetail = [numCats]Detail{
	CatSend:       DetailMessages,
	CatCollective: DetailMessages,
	CatDedup:      DetailMessages,
	CatHeartbeat:  DetailHeartbeats,
	CatEvent:      DetailSim,
	CatTransfer:   DetailSim,
}

// catNames are the Chrome/metrics display names.
var catNames = [numCats]string{
	CatCompute:     "compute",
	CatCkpt:        "checkpoint",
	CatRestore:     "restore",
	CatRecovery:    "recovery",
	CatDegraded:    "degraded",
	CatSpawn:       "spawn",
	CatDetect:      "detect",
	CatFinish:      "finish",
	CatInject:      "inject",
	CatNodeFail:    "node-fail",
	CatFailover:    "failover",
	CatAbsorb:      "absorb",
	CatFallback:    "fallback",
	CatRepair:      "repair",
	CatPolicyAvoid: "ckpt-avoided",
	CatPolicyArm:   "policy-arm",
	CatLeak:        "leaked-events",
	CatSend:        "send",
	CatCollective:  "collective",
	CatDedup:       "dedup-drop",
	CatHeartbeat:   "heartbeat",
	CatEvent:       "event",
	CatTransfer:    "transfer",
}

// String returns the category's display name.
func (c Cat) String() string {
	if c < numCats && catNames[c] != "" {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// ParseDetail parses a comma-separated detail list: "messages",
// "heartbeats", "sim", or "all" (empty string means none).
func ParseDetail(spec string) (Detail, error) {
	var d Detail
	for _, f := range strings.Split(spec, ",") {
		switch strings.TrimSpace(strings.ToLower(f)) {
		case "":
		case "messages":
			d |= DetailMessages
		case "heartbeats":
			d |= DetailHeartbeats
		case "sim":
			d |= DetailSim
		case "all":
			d |= DetailAll
		default:
			return 0, fmt.Errorf("trace: unknown detail %q (want messages, heartbeats, sim, or all)", f)
		}
	}
	return d, nil
}

// Span is one recorded event. Dur zero renders as an instant. Rank is the
// logical rank, -1 when not rank-scoped; Replica is the replica index
// within a replicated world (0 otherwise); Job is the 1-based job
// incarnation interned by JobOf (0 when unknown); Actor groups checkpoint
// spans by FTI instance (NewActor; 0 otherwise); Level and Aux carry
// per-category detail (FTI level, bytes, GIDs, counts).
type Span struct {
	Start   int64 // virtual ns
	Dur     int64 // virtual ns; 0 for instants
	Aux     int64
	Cat     Cat
	Level   int32
	Rank    int32
	Replica int32
	Job     int32
	Actor   int32
}

// Recorder accumulates spans for one run. One Recorder serves one
// core.Run; it must not be shared across concurrently executing runs.
// The zero of *Recorder — nil — is the inert default.
type Recorder struct {
	detail Detail
	spans  []Span
	jobs   map[any]int32
	actors int32
}

// New returns an empty Recorder with no detail categories enabled.
func New() *Recorder {
	return &Recorder{jobs: make(map[any]int32)}
}

// Enabled reports whether a recorder is attached (r non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SetDetail selects which high-volume categories to record.
func (r *Recorder) SetDetail(d Detail) {
	if r == nil {
		return
	}
	r.detail = d
}

// Wants reports whether a span of category c would be kept: always for
// the always-on categories, by the detail mask for the high-volume ones,
// never on a nil recorder.
func (r *Recorder) Wants(c Cat) bool {
	if r == nil {
		return false
	}
	need := catDetail[c]
	return need == 0 || r.detail&need != 0
}

// Emit appends one span. No-op on a nil recorder.
func (r *Recorder) Emit(s Span) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, s)
}

// JobOf interns a job identity (any pointer-comparable key) and returns
// its stable 1-based index in first-seen order; 0 on a nil recorder or
// nil key.
func (r *Recorder) JobOf(key any) int32 {
	if r == nil || key == nil {
		return 0
	}
	if id, ok := r.jobs[key]; ok {
		return id
	}
	id := int32(len(r.jobs) + 1)
	r.jobs[key] = id
	return id
}

// NewActor allocates a fresh actor id (used to group checkpoint spans by
// FTI instance); 0 on a nil recorder.
func (r *Recorder) NewActor() int32 {
	if r == nil {
		return 0
	}
	r.actors++
	return r.actors
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Spans returns the live internal span slice (not a copy): cheap to scan,
// and mutations are visible to Totals/Reconcile — the reconciliation
// tests corrupt a span through it to prove the self-check fires.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}
