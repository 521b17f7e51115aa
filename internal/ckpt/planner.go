package ckpt

import (
	"math"

	"match/internal/fti"
	"match/internal/obs"
	"match/internal/simnet"
	"match/internal/trace"
)

// Planner owns checkpoint placement for one benchmark run. It is shared by
// every rank across every job incarnation (like the fault injector): each
// incarnation acquires its policy through Policy(), which re-arms — and,
// for the adaptive strategy, recomputes the interval from the costs
// observed so far — whenever the run's recovery count has advanced since
// the previous acquisition. The harness reads the avoided-checkpoint
// counter and the per-incarnation stride history back out for reporting.
type Planner struct {
	cfg     Config
	maxIter int
	faults  int

	// Epoch reports the completed recovery count — the incarnation marker
	// policies re-arm on. The harness points it at the active design's
	// recovery log (the same feed the fault injector uses); nil pins a
	// single incarnation.
	Epoch func() int
	// Degree reports the minimum live replica-group degree across logical
	// ranks — the replica-aware policy's protection signal. The replica
	// runtime feeds it; nil means unreplicated (degree 1), under which
	// replica-aware placement degenerates to the base stride.
	Degree func() int

	// probe receives placement-decision events (policy re-arms and avoided
	// checkpoints) and now stamps them; see Attach.
	probe *obs.Probe
	now   func() simnet.Time

	pol      *Policy
	polEpoch int
	avoided  int
	strides  []int

	ckptN, stepN     int64
	ckptSum, stepSum simnet.Time
}

// NewPlanner validates a resolved configuration and returns the planner
// for one run of maxIter iterations with faults scheduled failures.
func NewPlanner(cfg Config, maxIter, faults int) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Planner{cfg: cfg, maxIter: maxIter, faults: faults}, nil
}

// Attach reports placement decisions to p, stamped by the virtual clock
// now. The planner itself is clock-free and not cluster-attached, so the
// harness wires both together: a probe without a clock cannot be attached.
func (pl *Planner) Attach(p *obs.Probe, now func() simnet.Time) {
	pl.probe, pl.now = p, now
}

// Config returns the resolved configuration in use.
func (pl *Planner) Config() Config { return pl.cfg }

// Policy returns the placement policy for the current incarnation,
// re-arming (and recomputing the adaptive interval) when the epoch has
// advanced since the last acquisition. Every rank of an incarnation gets
// the same instance, which is what keeps decisions collective-safe.
func (pl *Planner) Policy() *Policy {
	e := 0
	if pl.Epoch != nil {
		e = pl.Epoch()
	}
	if pl.pol == nil || e != pl.polEpoch {
		pl.polEpoch = e
		pl.pol = pl.build()
		pl.strides = append(pl.strides, pl.pol.stride)
		if pl.probe.On(trace.CatPolicyArm) {
			pl.probe.Emit(trace.Span{Cat: trace.CatPolicyArm, Rank: -1,
				Start: int64(pl.now()), Level: int32(e), Aux: int64(pl.pol.stride)})
		}
	}
	return pl.pol
}

// Avoided counts the placement points where the base fixed-stride policy
// would have checkpointed but the active policy skipped — the checkpoints
// replication (or a longer adaptive interval) saved. Counted once per
// decided iteration, accumulated across incarnations.
func (pl *Planner) Avoided() int { return pl.avoided }

// Strides lists the effective base stride of every incarnation so far
// (diagnostics; the adaptive-recomputation tests read it).
func (pl *Planner) Strides() []int { return append([]int(nil), pl.strides...) }

func (pl *Planner) degree() int {
	if pl.Degree == nil {
		return 1
	}
	return pl.Degree()
}

// adaptiveStride is the Young–Daly interval in iteration units:
// sqrt(2 * C * M), with the checkpoint cost C measured in steps
// (mean checkpoint duration over mean step duration) and the mean time
// between failures M taken from the fault schedule's density over the
// main loop. With nothing scheduled to fail the optimum degenerates to
// "never pay": one checkpoint at iteration 0. Before any costs have been
// measured (the first incarnation) the base stride stands in.
func (pl *Planner) adaptiveStride() int {
	if pl.faults <= 0 {
		return pl.maxIter
	}
	if pl.ckptN == 0 || pl.stepN == 0 || pl.stepSum == 0 {
		return pl.cfg.Stride
	}
	c := float64(pl.ckptSum) / float64(pl.ckptN) / (float64(pl.stepSum) / float64(pl.stepN))
	m := float64(pl.maxIter) / float64(pl.faults)
	s := int(math.Round(math.Sqrt(2 * c * m)))
	if s < 1 {
		s = 1
	}
	if s > pl.maxIter {
		s = pl.maxIter
	}
	return s
}

// build constructs the policy for the incarnation that is starting.
func (pl *Planner) build() *Policy {
	p := &Policy{pl: pl, memo: make(map[int]Decision), stride: pl.cfg.Stride}
	switch pl.cfg.Kind {
	case Never:
		p.stride = 0
		p.decide = func(int) Decision { return Decision{} }
	case Fixed:
		p.decide = func(iter int) Decision { return every(iter, pl.cfg.Stride) }
	case MultiLevel:
		p.decide = func(iter int) Decision {
			d := every(iter, pl.cfg.Stride)
			if !d.Take {
				return d
			}
			// 1-based index of the checkpoint about to be taken this
			// incarnation; the highest due escalation wins.
			n := p.taken + 1
			switch {
			case pl.cfg.L4Every > 0 && n%pl.cfg.L4Every == 0:
				d.Level = fti.L4
			case pl.cfg.L3Every > 0 && n%pl.cfg.L3Every == 0:
				d.Level = fti.L3
			case pl.cfg.L2Every > 0 && n%pl.cfg.L2Every == 0:
				d.Level = fti.L2
			}
			return d
		}
	case ReplicaAware:
		p.decide = func(iter int) Decision {
			if pl.degree() >= 2 {
				// Every rank's state survives a process failure: replication
				// recovers without rollback, so checkpoints are (mostly)
				// redundant here.
				if pl.cfg.SkipProtected {
					return Decision{}
				}
				return every(iter, pl.cfg.Stride*pl.cfg.Stretch)
			}
			// A group degraded to degree 1 (or partial replication left
			// some rank unprotected): re-arm to the base stride.
			return every(iter, pl.cfg.Stride)
		}
	case Adaptive:
		stride := pl.adaptiveStride()
		p.stride = stride
		p.decide = func(iter int) Decision { return every(iter, stride) }
	}
	return p
}

func every(iter, stride int) Decision {
	return Decision{Take: stride > 0 && iter%stride == 0}
}

// Policy decides checkpoint placement for one job incarnation: a
// per-iteration decision memo around the strategy's decide function. The
// main loop consults Next once per rank per iteration and feeds measured
// costs back through ObserveCkpt and ObserveStep. Memoizing means every
// rank of an iteration sees the identical decision (the collective-commit
// requirement) and Next is cheap on replay. A Policy runs entirely on the
// simulated cluster's single-threaded scheduler; it is not goroutine-safe.
type Policy struct {
	pl     *Planner
	memo   map[int]Decision
	decide func(iter int) Decision
	taken  int
	stride int // effective base stride this incarnation (0 = never)
}

// Next returns the placement decision for the iteration.
func (p *Policy) Next(iter int) Decision {
	if d, ok := p.memo[iter]; ok {
		return d
	}
	d := p.decide(iter)
	if d.Take {
		p.taken++
	} else if p.pl.cfg.Stride > 0 && iter%p.pl.cfg.Stride == 0 {
		p.pl.avoided++
		if p.pl.probe.On(trace.CatPolicyAvoid) {
			p.pl.probe.Emit(trace.Span{Cat: trace.CatPolicyAvoid, Rank: -1,
				Start: int64(p.pl.now()), Aux: int64(iter)})
		}
	}
	p.memo[iter] = d
	return d
}

// ObserveCkpt feeds back the duration of one completed checkpoint (the
// adaptive policy recomputes its interval from these at the next
// incarnation).
func (p *Policy) ObserveCkpt(cost simnet.Time) {
	p.pl.ckptN++
	p.pl.ckptSum += cost
}

// ObserveStep feeds back the duration of one application step.
func (p *Policy) ObserveStep(cost simnet.Time) {
	p.pl.stepN++
	p.pl.stepSum += cost
}
