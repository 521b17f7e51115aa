// Package ckpt is MATCH's checkpoint-placement subsystem: it decides, per
// main-loop iteration, whether a checkpoint is taken and at which FTI
// level. Placement used to be a hardcoded iter%stride inside the shared
// main loop, which made the interesting questions — FTI-style multi-level
// interleaving, replication-aware stride stretching (PartRePer/FTHP-MPI's
// "replicated ranks should pay less checkpoint overhead"), Young–Daly
// interval selection — unmeasurable. This package factors placement into
// one concrete Policy with five strategies, so any design can run under any
// placement and the checkpoint-overhead axis becomes sweepable everywhere:
//
//   - Fixed: the classic stride-N placement at the run's configured level,
//     byte-identical to the historical iter%stride main loop.
//   - MultiLevel: FTI-style interleaving — L1 every stride, with every
//     L2Every-th checkpoint escalated to a partner copy, every L3Every-th
//     to Reed–Solomon, every L4Every-th to the PFS.
//   - ReplicaAware: while every rank's state survives a process failure
//     (minimum live replica-group degree >= 2), checkpoints run at a
//     stretched stride — or are skipped entirely — since replication
//     already provides rollback-free recovery; the moment any group
//     degrades to degree 1 (a failover, or partial replication) the policy
//     re-arms to the base stride.
//   - Adaptive: a Young–Daly-style interval derived from the fault
//     schedule's density and the measured per-checkpoint cost, recomputed
//     at every incarnation.
//   - Never: no checkpoints at all (the explicit spelling of what tests
//     used to fake with a 1<<30 stride).
//
// A placement decision must be identical on every rank of an iteration —
// FTI's checkpoint commit is collective, so a rank that checkpoints while
// another skips would deadlock the job. Policies therefore memoize one
// decision per iteration (the first rank to reach the iteration computes
// it, everyone else replays it), which also keeps live inputs like the
// replica-group degree consistent however rank clocks interleave.
//
// Every policy comes from a Planner — the harness's, or one a test builds
// the same way (NewPlanner(Config{Kind: Never}, ...) for a run that takes
// no checkpoints). The main loop asks Next(iter) and reports each
// checkpoint's and each step's duration through ObserveCkpt/ObserveStep.
package ckpt

import (
	"fmt"
	"strings"

	"match/internal/fti"
)

// Kind selects a placement strategy. Fixed is the zero value so untouched
// configurations reproduce the historical stride placement byte-for-byte.
type Kind int

const (
	// Fixed checkpoints every Stride iterations at the run's level.
	Fixed Kind = iota
	// MultiLevel interleaves FTI levels: L1 every stride, periodic
	// escalations to L2/L3/L4.
	MultiLevel
	// ReplicaAware stretches (or skips) the stride while replication
	// protects every rank, re-arming to the base stride on degradation.
	ReplicaAware
	// Adaptive recomputes a Young–Daly interval per incarnation.
	Adaptive
	// Never takes no checkpoints at all.
	Never
)

func (k Kind) String() string {
	switch k {
	case Fixed:
		return "fixed"
	case MultiLevel:
		return "multi-level"
	case ReplicaAware:
		return "replica-aware"
	case Adaptive:
		return "adaptive"
	case Never:
		return "never"
	}
	return fmt.Sprintf("ckpt.Kind(%d)", int(k))
}

// Kinds lists every strategy, Fixed first.
func Kinds() []Kind { return []Kind{Fixed, MultiLevel, ReplicaAware, Adaptive, Never} }

// ParseKind resolves a strategy name case-insensitively ("" means Fixed).
func ParseKind(name string) (Kind, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	if want == "" {
		return Fixed, nil
	}
	for _, k := range Kinds() {
		if want == k.String() {
			return k, nil
		}
	}
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("ckpt: unknown placement policy %q (valid: %s)", name, strings.Join(names, ", "))
}

// Config tunes a placement policy. Zero fields are filled by Resolve from
// the kind's defaults; Validate itself is strict and rejects
// configurations that are internally inconsistent or could never place a
// checkpoint sensibly.
type Config struct {
	Kind Kind
	// Stride is the base checkpoint period in iterations (the L1 period
	// for MultiLevel; the un-stretched period for ReplicaAware; the
	// first-incarnation fallback for Adaptive). It is the run's one
	// checkpoint stride; zero resolves to the paper's 10.
	Stride int
	// L2Every / L3Every / L4Every escalate every Nth checkpoint to that
	// level (MultiLevel only; zero disables the level). When several apply
	// to the same checkpoint the highest level wins.
	L2Every, L3Every, L4Every int
	// Stretch multiplies the stride while every rank's state is
	// replica-protected (ReplicaAware only; default 4).
	Stretch int
	// SkipProtected skips checkpoints entirely — not just stretches —
	// while every rank is replica-protected (ReplicaAware only).
	SkipProtected bool
}

// Defaults returns the calibrated default configuration for a kind.
func Defaults(k Kind) Config {
	switch k {
	case MultiLevel:
		// FTI-flavored interleave: a partner copy every 3rd checkpoint and
		// a PFS flush every 10th; L3 erasure coding stays opt-in.
		return Config{Kind: MultiLevel, L2Every: 3, L4Every: 10}
	case ReplicaAware:
		return Config{Kind: ReplicaAware, Stretch: 4}
	default:
		return Config{Kind: k}
	}
}

// Resolve fills a user-supplied configuration's zero fields: a zero Stride
// becomes the paper's 10, and the kind's remaining zero fields come from
// Defaults. The result of Resolve always passes Validate when the inputs
// are sane.
func Resolve(user Config) Config {
	out := user
	if out.Stride == 0 {
		out.Stride = 10
	}
	def := Defaults(out.Kind)
	if out.Kind == MultiLevel && out.L2Every == 0 && out.L3Every == 0 && out.L4Every == 0 {
		out.L2Every, out.L3Every, out.L4Every = def.L2Every, def.L3Every, def.L4Every
	}
	if out.Kind == ReplicaAware && out.Stretch == 0 {
		out.Stretch = def.Stretch
	}
	return out
}

// Validate rejects configurations that are internally inconsistent. It is
// strict: call it (or NewPlanner, which calls it) on resolved
// configurations.
func (c Config) Validate() error {
	if c.Kind < Fixed || c.Kind > Never {
		return fmt.Errorf("ckpt: unknown placement kind %d", int(c.Kind))
	}
	if c.Kind != Never && c.Stride < 1 {
		return fmt.Errorf("ckpt: %s placement with stride %d would never checkpoint (want >= 1, or the never policy)", c.Kind, c.Stride)
	}
	if c.L2Every < 0 || c.L3Every < 0 || c.L4Every < 0 {
		return fmt.Errorf("ckpt: negative level interleave (l2=%d l3=%d l4=%d)", c.L2Every, c.L3Every, c.L4Every)
	}
	if c.Kind != MultiLevel && (c.L2Every != 0 || c.L3Every != 0 || c.L4Every != 0) {
		return fmt.Errorf("ckpt: level interleaving only applies to the multi-level policy (got %s)", c.Kind)
	}
	if c.Kind == MultiLevel && c.L2Every == 0 && c.L3Every == 0 && c.L4Every == 0 {
		return fmt.Errorf("ckpt: multi-level placement with no escalation levels is just fixed placement (set l2/l3/l4-every, or use fixed)")
	}
	if c.Kind != ReplicaAware && (c.Stretch != 0 || c.SkipProtected) {
		return fmt.Errorf("ckpt: stretch/skip-protected only apply to the replica-aware policy (got %s)", c.Kind)
	}
	if c.Kind == ReplicaAware && c.Stretch < 1 {
		return fmt.Errorf("ckpt: replica-aware placement with stretch %d (want >= 1)", c.Stretch)
	}
	return nil
}

// String renders the configuration for tables and CSV output.
func (c Config) String() string {
	switch c.Kind {
	case MultiLevel:
		s := fmt.Sprintf("%s(s=%d", c.Kind, c.Stride)
		if c.L2Every > 0 {
			s += fmt.Sprintf(",l2=%d", c.L2Every)
		}
		if c.L3Every > 0 {
			s += fmt.Sprintf(",l3=%d", c.L3Every)
		}
		if c.L4Every > 0 {
			s += fmt.Sprintf(",l4=%d", c.L4Every)
		}
		return s + ")"
	case ReplicaAware:
		if c.SkipProtected {
			return fmt.Sprintf("%s(s=%d,skip)", c.Kind, c.Stride)
		}
		return fmt.Sprintf("%s(s=%d,x%d)", c.Kind, c.Stride, c.Stretch)
	case Never:
		return c.Kind.String()
	case Fixed, Adaptive:
		if c.Stride == 0 {
			return c.Kind.String() // unresolved zero value: the default
		}
		return fmt.Sprintf("%s(s=%d)", c.Kind, c.Stride)
	}
	return c.Kind.String()
}

// Decision is the outcome of one placement consultation.
type Decision struct {
	// Take requests a checkpoint before this iteration's step.
	Take bool
	// Level overrides the FTI level for this checkpoint; zero keeps the
	// run's configured level.
	Level fti.Level
}
