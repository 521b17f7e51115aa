package core

import (
	"fmt"

	"match/internal/apps"
	"match/internal/apps/appkit"
	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/reinit"
	"match/internal/replica"
	"match/internal/restart"
	"match/internal/ulfm"
)

// resolvedCell is one cell exactly as it executes: a Config with every
// default filled and every run-irrelevant input dropped, plus the
// repetition count (reps change the averaged Breakdown) and the cache
// version. The invariant the result cache stands on is that the key is
// hashed from the value Run executes: CellKey marshals the exported fields
// (their names, tags and order are the on-disk cache format — changing any
// of them is a cacheVersion bump) and Run reads nothing else of a Config
// but its observers. Only the active design's sub-configuration is
// present, so an ablation knob on a design that is not running can neither
// split the cache nor reach the simulation.
type resolvedCell struct {
	V          int             `json:"v"`
	Reps       int             `json:"reps"`
	App        string          `json:"app"`
	Design     Design          `json:"design"`
	Procs      int             `json:"procs"`
	Nodes      int             `json:"nodes"`
	Input      InputSize       `json:"input"`
	Faults     int             `json:"faults"`
	Seed       int64           `json:"seed,omitempty"`
	Kind       fault.Kind      `json:"fault_kind,omitempty"`
	Schedule   string          `json:"schedule,omitempty"`
	FTILevel   fti.Level       `json:"fti_level"`
	CkptStride int             `json:"ckpt_stride"`
	Detector   detect.Config   `json:"detector"`
	Policy     ckpt.Config     `json:"ckpt_policy"`
	Ingress    bool            `json:"model_ingress,omitempty"`
	Ulfm       *ulfm.Config    `json:"ulfm,omitempty"`
	Reinit     *reinit.Config  `json:"reinit,omitempty"`
	Restart    *restart.Config `json:"restart,omitempty"`
	Replica    *replica.Config `json:"replica,omitempty"`
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
// the prelude defaults, looks up the application and its Table I
// parameters, resolves the detector against the active design's preset and
// the placement policy against the stride (validating both), resolves the
// active design's sub-configuration with the detector folded in, zeroes
// inputs that provably cannot matter (the fault seed and kind of a
// failure-free cell or under an explicit schedule, Params without MaxIter,
// inactive designs), and rejects an out-of-range setting, a setting Run
// would ignore and explicit schedule events that could never fire — all
// before any simulation state exists.
func resolve(cfg Config, reps int) (resolvedCell, error) {
	if reps <= 0 {
		reps = 1
	}
	rc := resolvedCell{
		V:          cacheVersion,
		Reps:       reps,
		App:        cfg.App,
		Design:     cfg.Design,
		Procs:      cfg.Procs,
		Nodes:      cfg.Nodes,
		Input:      cfg.Input,
		Faults:     cfg.FaultCount(),
		FTILevel:   cfg.FTILevel,
		CkptStride: cfg.CkptStride,
		Ingress:    cfg.ModelIngress,
		schedule:   cfg.Schedule,
	}
	if rc.Nodes == 0 {
		rc.Nodes = 32
	}
	if rc.Procs == 0 {
		rc.Procs = 64
	}
	if rc.FTILevel == 0 {
		rc.FTILevel = fti.L1
	}
	if rc.CkptStride == 0 {
		rc.CkptStride = 10
	}
	// An explicit schedule overrides the random draw entirely and a
	// failure-free cell never draws: the seed and kind matter only between.
	if cfg.Schedule != nil {
		rc.Schedule = cfg.Schedule.String()
	} else if rc.Faults > 0 {
		rc.Seed, rc.Kind = cfg.FaultSeed, cfg.FaultKind
	}

	if cfg.Params.CkptStride != 0 {
		return resolvedCell{}, fmt.Errorf("core: Params.CkptStride %d is ignored; set Config.CkptStride", cfg.Params.CkptStride)
	}
	// Out-of-range settings fail here, not as a silent default (the replica
	// knobs, on any design) or in every rank's first checkpoint (the level).
	if rc.FTILevel < fti.L1 || rc.FTILevel > fti.L4 {
		return resolvedCell{}, fmt.Errorf("core: FTI level %d invalid (levels are 1-4: L1 local, L2 partner copy, L3 Reed-Solomon, L4 PFS; 0 means L1)", int(rc.FTILevel))
	}
	if d := cfg.Replica.DupDegree; d < 0 {
		return resolvedCell{}, fmt.Errorf("core: replica DupDegree %d invalid (want >= 1, or 0 for the default 2)", d)
	}
	if f := cfg.Replica.ReplicaFactor; !(f >= 0 && f <= 1) {
		return resolvedCell{}, fmt.Errorf("core: replica ReplicaFactor %g invalid (want 0 < f <= 1, or 0 for the default 1)", f)
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

	// The active design's resolved cost model; sub points at its Detect
	// field, which receives the resolved detector below.
	var preset detect.Config
	var sub *detect.Config
	var tuned bool // the design's own preset-detector settings are set
	switch cfg.Design {
	case UlfmFTI:
		u := cfg.Ulfm.Resolved()
		rc.Ulfm, sub, preset = &u, &u.Detect, u.DetectPreset()
		c := cfg.Ulfm
		tuned = c.HeartbeatPeriod != 0 || c.HeartbeatBytes != 0 || c.DetectTimeout != 0 || c.InterferenceSteal != 0
	case ReinitFTI:
		ri := cfg.Reinit.Resolved()
		rc.Reinit, sub, preset = &ri, &ri.Detect, ri.DetectPreset()
		tuned = cfg.Reinit.DetectPeriod != 0 || cfg.Reinit.DetectTimeout != 0
	case RestartFTI:
		rs := cfg.Restart.Resolved()
		rc.Restart, sub, preset = &rs, &rs.Detect, rs.DetectPreset()
	case ReplicaFTI:
		rp := cfg.Replica.Resolved()
		rc.Replica, sub, preset = &rp, &rp.Detect, rp.DetectPreset()
	default:
		return resolvedCell{}, fmt.Errorf("core: unknown design %v", cfg.Design)
	}
	// The design's own Detect is overwritten by the resolved detector, so a
	// value there would be silently dropped: Config.Detector is the knob.
	if *sub != (detect.Config{}) {
		return resolvedCell{}, fmt.Errorf("core: %s Detect is ignored; set Config.Detector", cfg.Design.ShortName())
	}
	// The design's heartbeat settings shape only its preset, which an
	// explicit detector replaces.
	if tuned && cfg.Detector.Kind != detect.Preset {
		return resolvedCell{}, fmt.Errorf("core: %s detector settings are ignored under the explicit %s detector; set Config.Detector",
			cfg.Design.ShortName(), cfg.Detector.Kind)
	}
	// A configuration that could never detect, or a bad placement policy,
	// fails loudly here, not ten simulated minutes in.
	rc.Detector = detect.Resolve(cfg.Detector, preset)
	if err := rc.Detector.Validate(); err != nil {
		return resolvedCell{}, err
	}
	*sub = rc.Detector
	rc.Policy = ckpt.Resolve(cfg.CkptPolicy, rc.CkptStride)
	if err := rc.Policy.Validate(); err != nil {
		return resolvedCell{}, err
	}
	if err := rc.validateSchedule(); err != nil {
		return resolvedCell{}, err
	}
	return rc, nil
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
// actually uses: cfg.Detector merged with the design's calibrated preset
// (e.g. the ULFM ring parameters for a default ULFM run). Reporting code
// labels measurements with it instead of "preset".
func ResolvedDetector(cfg Config) (detect.Config, error) {
	rc, err := resolve(cfg, 1)
	return rc.Detector, err
}

// ResolvedCkptPolicy reports the checkpoint-placement configuration a Run
// of cfg actually uses: cfg.CkptPolicy with its zero fields filled (stride
// from CkptStride, kind defaults), validated.
func ResolvedCkptPolicy(cfg Config) (ckpt.Config, error) {
	rc, err := resolve(cfg, 1)
	return rc.Policy, err
}
