package core

import (
	"fmt"
	"math"

	"match/internal/apps"
	"match/internal/apps/appkit"
	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/replica"
	"match/internal/simnet"
	"match/internal/ulfm"
)

// resolvedCell is one cell exactly as it executes: a Config with every
// default filled and every run-irrelevant input dropped, plus the cache
// version. A cell is one repetition: repConfig gives a later rep its own
// fault seed. The invariant the result cache stands on is that the key is
// hashed from the value Run executes: CellKey marshals the exported fields
// (their names, tags and order are the on-disk cache format — changing any
// of them is a cacheVersion bump) and Run reads nothing else of a Config
// but its observers. Only the active design's knobs are present (Restart
// and Reinit have none), so a knob on a design that is not running can
// neither split the cache nor reach the simulation.
type resolvedCell struct {
	V        int             `json:"v"`
	App      string          `json:"app"`
	Design   Design          `json:"design"`
	Procs    int             `json:"procs"`
	Nodes    int             `json:"nodes"`
	Input    InputSize       `json:"input"`
	Faults   int             `json:"faults"`
	Seed     int64           `json:"seed,omitempty"`
	Kind     fault.Kind      `json:"fault_kind,omitempty"`
	Schedule string          `json:"schedule,omitempty"`
	FTILevel fti.Level       `json:"fti_level"`
	Detector detect.Config   `json:"detector"`
	Policy   ckpt.Config     `json:"ckpt_policy"`
	Ingress  bool            `json:"model_ingress,omitempty"`
	Ulfm     *ulfm.Config    `json:"ulfm,omitempty"`
	Replica  *replica.Config `json:"replica,omitempty"`
	// Params is the Table I override, hashed only when it is in force
	// (MaxIter set); otherwise App and Input already determine params.
	Params appkit.Params `json:"params"`

	// Derived from the fields above at resolve time; not hashed.
	factory  apps.Factory
	params   appkit.Params   // what the main loop runs: Table I or Params
	scale    float64         // Table I bytes scale
	schedule *fault.Schedule // the explicit schedule Schedule renders, validated
}

// resolve is the one place a Config becomes the cell that runs. It fills
// every default (the prelude's and the active design's knobs), looks up
// the application and its Table I parameters, resolves the detector
// against the active design's calibrated one and the placement policy
// against its kind's defaults (validating both), zeroes inputs that provably cannot
// matter (the fault seed and kind of a failure-free cell or under an
// explicit schedule, Params without MaxIter, inactive designs), and
// rejects an out-of-range setting and explicit schedule events that could
// never fire — all before any simulation state exists.
func resolve(cfg Config) (resolvedCell, error) {
	rc := resolvedCell{
		V:        cacheVersion,
		App:      cfg.App,
		Design:   cfg.Design,
		Procs:    or(cfg.Procs, 64),
		Nodes:    or(cfg.Nodes, 32),
		Input:    cfg.Input,
		Faults:   cfg.FaultCount(),
		FTILevel: or(cfg.FTILevel, fti.L1),
		Ingress:  cfg.ModelIngress,
		schedule: cfg.Schedule,
	}
	// An explicit schedule overrides the random draw entirely and a
	// failure-free cell never draws: the seed and kind matter only between.
	if cfg.Schedule != nil {
		rc.Schedule = cfg.Schedule.String()
	} else if rc.Faults > 0 {
		rc.Seed, rc.Kind = cfg.FaultSeed, cfg.FaultKind
	}

	// Out-of-range settings fail here, not in every rank's first checkpoint.
	if rc.FTILevel < fti.L1 || rc.FTILevel > fti.L4 {
		return resolvedCell{}, fmt.Errorf("core: FTI level %d invalid (levels are 1-4: L1 local, L2 partner copy, L3 Reed-Solomon, L4 PFS; 0 means L1)", int(rc.FTILevel))
	}
	var err error
	if rc.factory, err = apps.Lookup(cfg.App); err != nil {
		return resolvedCell{}, err
	}
	if rc.params, rc.scale, err = ResolveParams(cfg); err != nil {
		return resolvedCell{}, err
	}
	if cfg.Params.MaxIter != 0 {
		rc.Params = rc.params
	}
	if err := checkKnobs(cfg, rc.scale); err != nil {
		return resolvedCell{}, err
	}

	// The active design's knobs with their defaults filled, and its
	// calibrated detector.
	var preset detect.Config
	switch cfg.Design {
	case UlfmFTI:
		u := ulfm.Config{DeliveryFactor: or(cfg.Ulfm.DeliveryFactor, ulfm.DefaultDeliveryFactor)}
		rc.Ulfm, preset = &u, detect.RingDefaults()
	case ReinitFTI:
		preset = detect.TreeDefaults()
	case RestartFTI:
		preset = detect.LauncherConfig()
	case ReplicaFTI:
		c := cfg.Replica
		rp := replica.Config{
			DupDegree:      or(c.DupDegree, replica.DefaultDupDegree),
			ReplicaFactor:  or(c.ReplicaFactor, replica.DefaultReplicaFactor),
			FailoverDetect: or(c.FailoverDetect, replica.DefaultFailoverDetect),
			ElectionDelay:  or(c.ElectionDelay, replica.DefaultElectionDelay),
			HotSpare:       c.HotSpare,
			SpawnDelay:     or(c.SpawnDelay, replica.DefaultSpawnDelay),
			SpawnBandwidth: or(c.SpawnBandwidth, replica.DefaultSpawnBandwidth),
		}
		rc.Replica, preset = &rp, detect.LauncherConfig()
	default:
		return resolvedCell{}, fmt.Errorf("core: unknown design %v", cfg.Design)
	}
	// A configuration that could never detect, or a bad placement policy,
	// fails loudly here, not ten simulated minutes in.
	rc.Detector = detect.Resolve(cfg.Detector, preset)
	if err := rc.Detector.Validate(); err != nil {
		return resolvedCell{}, err
	}
	rc.Policy = ckpt.Resolve(cfg.CkptPolicy)
	if err := rc.Policy.Validate(); err != nil {
		return resolvedCell{}, err
	}
	if err := rc.validateSchedule(); err != nil {
		return resolvedCell{}, err
	}
	return rc, nil
}

// or returns v, or def when v is zero.
func or[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// maxRankStateBytes bounds one rank's protected state before the byte
// scale, so a hot-spare state transfer moves at most this times the cell's
// byte scale. It is over a thousand times the largest Table I rank
// (miniFE Large on 8 ranks protects 0.7 MB).
const maxRankStateBytes = 1 << 30

// checkKnobs rejects a design knob Run would silently change or could not
// schedule, on any design, as a malformed setting: a count or fraction out
// of range, a delay that is negative or past the run's virtual deadline, a
// slowdown that is not a finite non-negative factor, and a spawn bandwidth
// too slow for the largest state transfer of a cell at this byte scale to
// fit in virtual time. A zero value selects the default and always passes.
func checkKnobs(cfg Config, scale float64) error {
	rp := cfg.Replica
	if d := rp.DupDegree; d < 0 {
		return fmt.Errorf("core: replica DupDegree %d invalid (want >= 1, or 0 for the default %d)", d, replica.DefaultDupDegree)
	}
	if f := rp.ReplicaFactor; !(f >= 0 && f <= 1) {
		return fmt.Errorf("core: replica ReplicaFactor %g invalid (want 0 < f <= 1, or 0 for the default %g)", f, replica.DefaultReplicaFactor)
	}
	for _, d := range []struct {
		name   string
		v, def simnet.Time
	}{
		{"FailoverDetect", rp.FailoverDetect, replica.DefaultFailoverDetect},
		{"ElectionDelay", rp.ElectionDelay, replica.DefaultElectionDelay},
		{"SpawnDelay", rp.SpawnDelay, replica.DefaultSpawnDelay},
	} {
		if d.v < 0 || d.v > runDeadline {
			return fmt.Errorf("core: replica %s %v invalid (want 0 < d <= %v, the run's virtual deadline, or 0 for the default %v)",
				d.name, d.v, runDeadline, d.def)
		}
	}
	// The transfer takes bytes/bandwidth seconds; keeping the longest one
	// within half of simnet.Time's range leaves the other half for the
	// clock and the spawn delay it is added to.
	largest := maxRankStateBytes * math.Max(scale, 1)
	minBW := largest * 1e9 / (math.MaxInt64 / 2)
	if bw := rp.SpawnBandwidth; bw != 0 && !(bw >= minBW && !math.IsInf(bw, 1)) {
		return fmt.Errorf("core: replica SpawnBandwidth %g invalid (want a finite rate >= %.3g bytes/s, so a state transfer fits in virtual time, or 0 for the default %g)",
			bw, minBW, replica.DefaultSpawnBandwidth)
	}
	if f := cfg.Ulfm.DeliveryFactor; !(f >= 0 && !math.IsInf(f, 1)) {
		return fmt.Errorf("core: ulfm DeliveryFactor %g invalid (want a finite f > 0, or 0 for the default %g)", f, ulfm.DefaultDeliveryFactor)
	}
	return nil
}

// validateSchedule rejects explicit schedule events that could never fire
// — a silent no-op failure would report a failure-free run as a campaign.
func (rc resolvedCell) validateSchedule() error {
	if rc.schedule == nil {
		return nil
	}
	// Unreplicated designs ignore the replica selector (the injector
	// matches any), so only the replica design constrains it.
	var lay replica.Layout
	if rc.Design == ReplicaFTI {
		lay = replica.NewLayout(rc.Procs, rc.Nodes, *rc.Replica)
	}
	for i, ev := range rc.schedule.Events {
		if ev.TargetRank < 0 || ev.TargetRank >= rc.Procs {
			return fmt.Errorf("core: schedule event %d (%s) targets rank %d, outside 0..%d",
				i, ev, ev.TargetRank, rc.Procs-1)
		}
		if ev.TargetIter < 0 || ev.TargetIter >= rc.params.MaxIter {
			return fmt.Errorf("core: schedule event %d (%s) targets iteration %d, outside 0..%d (%s main loop)",
				i, ev, ev.TargetIter, rc.params.MaxIter-1, rc.App)
		}
		if rc.Design == ReplicaFTI && ev.TargetReplica >= lay.DegreeOf(ev.TargetRank) {
			return fmt.Errorf("core: schedule event %d (%s) targets replica %d of rank %d, which has degree %d",
				i, ev, ev.TargetReplica, ev.TargetRank, lay.DegreeOf(ev.TargetRank))
		}
	}
	return nil
}

// ResolvedDetector reports the detection configuration a Run of cfg
// actually uses: cfg.Detector merged with the design's calibrated detector
// (e.g. detect.RingDefaults() for a default ULFM run). Reporting code
// labels measurements with it instead of "preset".
func ResolvedDetector(cfg Config) (detect.Config, error) {
	rc, err := resolve(cfg)
	return rc.Detector, err
}
