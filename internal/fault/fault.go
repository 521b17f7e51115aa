// Package fault emulates MPI process and node failures by fault injection.
// The paper's Figure 4 injects exactly one failure per run: a SIGTERM-style
// kill of one randomly selected rank at one randomly selected iteration of
// the main computation loop. This package generalizes that single shot into
// a campaign-style Schedule — an ordered list of failure events drawn
// deterministically from one seed — so the suite can also measure where a
// design's advantage widens as failures accumulate or land during recovery.
// The selection is seeded so every fault-tolerance design sees the
// identical failure sequence, which is what makes the designs comparable.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"match/internal/mpi"
	"match/internal/trace"
)

// Kind selects what fails.
type Kind int

const (
	// ProcessFailure kills a single MPI process (the paper's experiments).
	ProcessFailure Kind = iota
	// NodeFailure kills a whole node and every process on it.
	NodeFailure
)

func (k Kind) String() string {
	if k == NodeFailure {
		return "node"
	}
	return "process"
}

// Event is one failure of a campaign Schedule: kill TargetReplica of
// TargetRank when that process reaches main-loop iteration TargetIter,
// but only once the run has already performed at least AfterRecoveries
// recoveries. AfterRecoveries > 0 expresses failures that land while the
// system is still absorbing an earlier one — e.g. a second hit on a
// replica group that has not regained its redundancy, or a failure during
// the post-restart catch-up replay. TargetReplica selects the victim
// within a replica group (ReplicaFTI) and is ignored by designs without
// replication.
type Event struct {
	Kind            Kind
	TargetRank      int
	TargetIter      int
	TargetReplica   int
	AfterRecoveries int
}

func (e Event) String() string {
	s := fmt.Sprintf("%d@%d", e.TargetRank, e.TargetIter)
	if e.TargetReplica != 0 {
		s += fmt.Sprintf(":replica=%d", e.TargetReplica)
	}
	if e.AfterRecoveries != 0 {
		s += fmt.Sprintf(":after=%d", e.AfterRecoveries)
	}
	if e.Kind == NodeFailure {
		s += ":kind=node"
	}
	return s
}

// Schedule is an ordered list of failure events, all drawn from one seed.
// An empty schedule injects nothing. Events are independent: each fires at
// most once, whenever its own (rank, iteration, recovery-count) condition
// is met, in whatever job incarnation that happens — so an event naturally
// re-arms across restarts until it has fired.
type Schedule struct {
	Events []Event
}

// Enabled reports whether the schedule injects at least one failure.
func (s Schedule) Enabled() bool { return len(s.Events) > 0 }

// String renders the schedule in the DSL accepted by ParseSchedule.
func (s Schedule) String() string {
	parts := make([]string, 0, len(s.Events))
	for _, e := range s.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ",")
}

// drawEvent draws a random (rank, iteration) target, like the paper's
// SelectedRank/SelectedIter. maxIter should be the application's main-loop
// trip count; the iteration is drawn from its middle 80% so the failure
// lands mid-execution rather than trivially at the start or end.
func drawEvent(rng *rand.Rand, nranks, maxIter int, kind Kind) Event {
	lo := maxIter / 10
	hi := maxIter - maxIter/10
	if hi <= lo {
		lo, hi = 0, maxIter
	}
	iter := lo
	if hi > lo {
		iter = lo + rng.Intn(hi-lo)
	}
	return Event{Kind: kind, TargetRank: rng.Intn(nranks), TargetIter: iter}
}

// Seed salts deriving the independent streams behind events 1..k-1. The
// tail (rank, iteration) stream must not depend on whether event 0 drew a
// replica index, or the four designs would stop seeing the same logical
// failure sequence; replica indexes come from a third stream for the same
// reason.
const (
	tailSeedSalt    = 0x5bd1e995
	replicaSeedSalt = 0x2545f491
)

// NewSchedule draws a deterministic k-failure campaign. Event 0 is the
// paper's single-failure draw (the first two values of the seed's stream),
// so every calibrated single-failure result is a k=1 schedule.
// Later events come from a seed-derived stream and are drawn onto distinct
// iterations and distinct ranks (redrawing on collision while the ranges
// allow it), so each event kills a process that is actually alive at its
// iteration and fires in every design — including the rollback-free ones,
// which never revisit an iteration and never resurrect a dead replica.
func NewSchedule(seed int64, k, nranks, maxIter int, kind Kind) Schedule {
	return NewReplicatedSchedule(seed, k, nranks, maxIter, kind, nil)
}

// NewReplicatedSchedule draws the identical (rank, iteration) sequence as
// NewSchedule for the same seed, then additionally draws which replica of
// each replicated target dies (event 0's from the same stream as its
// target, right after it). degreeOf reports the replica-group size of a
// logical rank and may be nil for unreplicated designs; unreplicated targets
// keep replica 0, which is how partial replication (ReplicaFactor < 1)
// exercises the checkpoint-only fallback path.
func NewReplicatedSchedule(seed int64, k, nranks, maxIter int, kind Kind, degreeOf func(rank int) int) Schedule {
	if k <= 0 {
		return Schedule{}
	}
	var s Schedule
	rng := rand.New(rand.NewSource(seed))
	ev0 := drawEvent(rng, nranks, maxIter, kind)
	if degreeOf != nil {
		if d := degreeOf(ev0.TargetRank); d > 1 {
			ev0.TargetReplica = rng.Intn(d)
		}
	}
	s.Events = append(s.Events, ev0)
	if k == 1 {
		return s
	}
	tail := rand.New(rand.NewSource(seed ^ tailSeedSalt))
	repl := rand.New(rand.NewSource(seed ^ replicaSeedSalt))
	usedIter := map[int]bool{ev0.TargetIter: true}
	usedRank := map[int]bool{ev0.TargetRank: true}
	// Distinctness is best-effort: once k outgrows a range, reuse is
	// unavoidable and the linear probes below keep the draw terminating
	// and deterministic.
	for i := 1; i < k; i++ {
		ev := drawEvent(tail, nranks, maxIter, kind)
		for tries := 0; (usedIter[ev.TargetIter] || usedRank[ev.TargetRank]) && tries < 4*(maxIter+nranks); tries++ {
			ev = drawEvent(tail, nranks, maxIter, kind)
		}
		for probes := 0; usedIter[ev.TargetIter] && probes < maxIter; probes++ {
			ev.TargetIter = (ev.TargetIter + 1) % maxIter
		}
		for probes := 0; usedRank[ev.TargetRank] && probes < nranks; probes++ {
			ev.TargetRank = (ev.TargetRank + 1) % nranks
		}
		usedIter[ev.TargetIter] = true
		usedRank[ev.TargetRank] = true
		if degreeOf != nil {
			if d := degreeOf(ev.TargetRank); d > 1 {
				ev.TargetReplica = repl.Intn(d)
			}
		}
		s.Events = append(s.Events, ev)
	}
	return s
}

// ParseSchedule parses the campaign DSL used by cmd/match -fault-schedule:
//
//	schedule := event ("," event)*
//	event    := RANK "@" ITER option*
//	option   := ":after=" N | ":replica=" N | ":kind=" ("process"|"node")
//
// e.g. "3@40,3@55:after=1" kills rank 3 at iteration 40 and again at
// iteration 55 once the first recovery has happened.
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		ev, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return Schedule{}, fmt.Errorf("fault: schedule event %q: %w", part, err)
		}
		s.Events = append(s.Events, ev)
	}
	return s, nil
}

func parseEvent(spec string) (Event, error) {
	fields := strings.Split(spec, ":")
	rankIter := strings.Split(fields[0], "@")
	if len(rankIter) != 2 {
		return Event{}, fmt.Errorf(`want "rank@iter", got %q`, fields[0])
	}
	rank, err := parseNonNegative(rankIter[0], "rank")
	if err != nil {
		return Event{}, err
	}
	iter, err := parseNonNegative(rankIter[1], "iter")
	if err != nil {
		return Event{}, err
	}
	ev := Event{TargetRank: rank, TargetIter: iter}
	for _, opt := range fields[1:] {
		kv := strings.SplitN(opt, "=", 2)
		if len(kv) != 2 {
			return Event{}, fmt.Errorf(`want "key=value" option, got %q`, opt)
		}
		switch kv[0] {
		case "after":
			if ev.AfterRecoveries, err = parseNonNegative(kv[1], "after"); err != nil {
				return Event{}, err
			}
		case "replica":
			if ev.TargetReplica, err = parseNonNegative(kv[1], "replica"); err != nil {
				return Event{}, err
			}
		case "kind":
			switch kv[1] {
			case "process":
				ev.Kind = ProcessFailure
			case "node":
				ev.Kind = NodeFailure
			default:
				return Event{}, fmt.Errorf("unknown kind %q (valid: process, node)", kv[1])
			}
		default:
			return Event{}, fmt.Errorf("unknown option %q (valid: after, replica, kind)", kv[0])
		}
	}
	return ev, nil
}

func parseNonNegative(s, what string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, s)
	}
	if v < 0 {
		return 0, fmt.Errorf("%s %d negative", what, v)
	}
	return v, nil
}

// Injector fires the events of a Schedule, shared by all ranks of a job
// (and across restarts of the job, so each event happens exactly once no
// matter how many incarnations replay its iteration). NewScheduleInjector
// builds it.
type Injector struct {
	Schedule Schedule
	// Recoveries, when set, reports how many recoveries the run has
	// completed so far; events with AfterRecoveries > 0 stay dormant until
	// it reaches their threshold. The harness points this at the active
	// design's recovery log. When nil, such events never fire.
	Recoveries func() int
	// Redirect, when set, is consulted as a fired process-failure event is
	// about to destroy the victim rank r. Returning true means the runtime
	// absorbed the failure at the process boundary — a live hot spare in
	// lockstep took over the victim's identity — and execution continues;
	// the event still counts as injected. Node failures are never
	// redirected (the spare cannot resurrect a dead node's executor).
	Redirect func(r *mpi.Rank) bool

	fired  []bool
	nfired int
}

// NewScheduleInjector wraps a campaign schedule.
func NewScheduleInjector(s Schedule) *Injector {
	return &Injector{Schedule: s, fired: make([]bool, len(s.Events))}
}

// Fired reports whether at least one failure has been injected.
func (in *Injector) Fired() bool { return in != nil && in.nfired > 0 }

// FiredCount reports how many of the schedule's events have been injected.
func (in *Injector) FiredCount() int {
	if in == nil {
		return 0
	}
	return in.nfired
}

// MaybeFail is called by every rank at the top of every main-loop
// iteration (the paper's Figure 4 check). When the calling rank and
// iteration match an armed, unfired event — and the event's
// AfterRecoveries threshold has been reached — the rank fail-stops. For
// NodeFailure the whole node goes down with it.
func (in *Injector) MaybeFail(r *mpi.Rank, comm *mpi.Comm, iter int) {
	if in == nil || in.nfired == len(in.Schedule.Events) {
		return
	}
	for i, ev := range in.Schedule.Events {
		if in.fired[i] || iter != ev.TargetIter {
			continue
		}
		if ev.AfterRecoveries > 0 && (in.Recoveries == nil || in.Recoveries() < ev.AfterRecoveries) {
			continue
		}
		if r.Rank(comm) != ev.TargetRank {
			continue
		}
		// The replica selector only means something under replication; an
		// unreplicated design matches any TargetReplica, so one schedule
		// expresses the same logical failure sequence for every design.
		if comm.Replicated() && comm.ReplicaIndexOf(r.Process().GID()) != ev.TargetReplica {
			continue // a twin replica of the target rank, not the chosen victim
		}
		in.fire(i, ev, r, comm)
		return // Die() unwinds; nothing after this executes anyway
	}
}

func (in *Injector) fire(i int, ev Event, r *mpi.Rank, comm *mpi.Comm) {
	in.fired[i] = true
	in.nfired++
	cl := r.Job().Cluster()
	// The victim's own replica index, taken before an absorbing hot spare
	// re-indexes it.
	replica := comm.ReplicaIndexOf(r.Process().GID())
	absorbed := ev.Kind != NodeFailure && in.Redirect != nil && in.Redirect(r)
	if p := cl.Probe(); p.On(trace.CatInject) {
		s := trace.Span{Cat: trace.CatInject, Rank: int32(r.Rank(comm)),
			Replica: int32(replica), Job: p.JobOf(r.Job()),
			Start: int64(r.Now())}
		if ev.Kind == NodeFailure {
			s.Level = 1
		}
		if absorbed {
			s.Aux = 1
		}
		p.Emit(s)
	}
	if absorbed {
		return // a lockstep twin took over the victim's identity
	}
	if ev.Kind == NodeFailure {
		// The node takes down its other residents via a scheduler event;
		// this rank dies immediately.
		node := r.Process().NodeID()
		cl.Scheduler().After(0, func() { cl.FailNode(node) })
	}
	r.Die()
}
