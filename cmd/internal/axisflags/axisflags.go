// Package axisflags is the one flag vocabulary for the two sweep axes
// cmd/match and cmd/matchsuite share: failure detection (-detector,
// -hb-period, -hb-timeout, -hb-bytes) and checkpoint placement
// (-ckpt-policy and its -ckpt-* knobs). It declares the flags, parses them
// into the []detect.Config / []ckpt.Config a campaign sweeps, and validates
// them with one rule set; a command that runs a single configuration
// rejects a list longer than one.
package axisflags

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/simnet"
)

// Flags holds the declared axis flags; read them after fs.Parse.
type Flags struct {
	detector, hbPeriod, ckptPolicy *string
	hbTimeout                      *time.Duration
	hbBytes                        *int // nil where the command has no -hb-bytes
	l2, l3, l4, stretch            *int
	skip                           *bool
}

// Register declares the axis flags on fs. single selects the spelling of a
// command that runs one configuration (cmd/match): -ckpt-policy defaults to
// "fixed" and -hb-bytes exists. A sweep command leaves -ckpt-policy empty —
// placement untouched — and takes comma-separated lists.
func Register(fs *flag.FlagSet, single bool) *Flags {
	f := &Flags{}
	list, policy := "; -campaign sweeps a comma-separated list", ""
	if single {
		list, policy = "", "fixed"
		f.hbBytes = fs.Int("hb-bytes", 0, "ring/tree detector: heartbeat wire size in bytes (0 = strategy default)")
	}
	f.detector = fs.String("detector", "preset", "failure-detection strategy: preset, launcher, ring, tree")
	f.hbPeriod = fs.String("hb-period", "", "ring/tree detector: heartbeat/supervision period, e.g. 50ms (0 = strategy default)"+list)
	f.hbTimeout = fs.Duration("hb-timeout", 0, "ring/tree detector: observation timeout before a silent peer is declared dead (0 = 3x period)")
	f.ckptPolicy = fs.String("ckpt-policy", policy, "checkpoint-placement policy: fixed, multi-level, replica-aware, adaptive, never"+list)
	f.l2 = fs.Int("ckpt-l2-every", 0, "multi-level placement: escalate every Nth checkpoint to L2 (0 = policy default)")
	f.l3 = fs.Int("ckpt-l3-every", 0, "multi-level placement: escalate every Nth checkpoint to L3 (0 = off)")
	f.l4 = fs.Int("ckpt-l4-every", 0, "multi-level placement: escalate every Nth checkpoint to L4 (0 = policy default)")
	f.stretch = fs.Int("ckpt-stretch", 0, "replica-aware placement: stride multiplier while every rank is replica-protected (0 = default 4)")
	f.skip = fs.Bool("ckpt-skip-protected", false, "replica-aware placement: skip checkpoints entirely (not just stretch) while protected")
	return f
}

// Detectors parses the detection axis: nil under -detector preset (every
// design keeps its calibrated detector), else one configuration per
// -hb-period entry — a single one when only the kind or timeout is set.
// Configurations come back resolved, so tables, CSV and reports label a
// run with the derived values (e.g. the 3x-period timeout).
func (f *Flags) Detectors() ([]detect.Config, error) {
	kind, err := detect.ParseKind(*f.detector)
	if err != nil {
		return nil, err
	}
	var knobs []string
	if *f.hbPeriod != "" {
		knobs = append(knobs, "-hb-period")
	}
	if *f.hbTimeout != 0 {
		knobs = append(knobs, "-hb-timeout")
	}
	bytes := 0
	if f.hbBytes != nil && *f.hbBytes != 0 {
		knobs, bytes = append(knobs, "-hb-bytes"), *f.hbBytes
	}
	if kind != detect.Ring && kind != detect.Tree && len(knobs) > 0 {
		return nil, fmt.Errorf("%s only applies to -detector ring or tree (got %s)", strings.Join(knobs, "/"), kind)
	}
	if kind == detect.Preset {
		return nil, nil
	}
	periods := []simnet.Time{0}
	if *f.hbPeriod != "" {
		periods = nil
		for _, s := range strings.Split(*f.hbPeriod, ",") {
			d, err := time.ParseDuration(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad -hb-period: %v", err)
			}
			periods = append(periods, simnet.Time(d.Nanoseconds()))
		}
	}
	var out []detect.Config
	for _, p := range periods {
		out = append(out, detect.Resolve(detect.Config{
			Kind:            kind,
			HeartbeatPeriod: p,
			DetectTimeout:   simnet.Time(f.hbTimeout.Nanoseconds()),
			HeartbeatBytes:  bytes,
		}, detect.Config{}))
	}
	return out, nil
}

// Policies parses the placement axis: nil when -ckpt-policy is empty, else
// one configuration per named policy at the given stride (0 = the paper's
// 10), resolved so labels show the derived values. The multi-level and
// replica-aware knobs go to the policies of their kind; a knob no named
// policy consumes is an error, and everything else (negative interleaves,
// a bad stretch or stride) is ckpt.Validate's call.
func (f *Flags) Policies(stride int) ([]ckpt.Config, error) {
	var names []string
	if *f.ckptPolicy != "" {
		names = strings.Split(*f.ckptPolicy, ",")
	}
	var out []ckpt.Config
	has := map[ckpt.Kind]bool{}
	for _, s := range names {
		kind, err := ckpt.ParseKind(s)
		if err != nil {
			return nil, err
		}
		pc := ckpt.Config{Kind: kind, Stride: stride}
		if kind == ckpt.MultiLevel {
			pc.L2Every, pc.L3Every, pc.L4Every = *f.l2, *f.l3, *f.l4
		}
		if kind == ckpt.ReplicaAware {
			pc.Stretch, pc.SkipProtected = *f.stretch, *f.skip
		}
		pc = ckpt.Resolve(pc)
		if err := pc.Validate(); err != nil {
			return nil, err
		}
		has[kind] = true
		out = append(out, pc)
	}
	if (*f.l2 != 0 || *f.l3 != 0 || *f.l4 != 0) && !has[ckpt.MultiLevel] {
		return nil, fmt.Errorf("-ckpt-l2/l3/l4-every only apply with -ckpt-policy multi-level")
	}
	if (*f.stretch != 0 || *f.skip) && !has[ckpt.ReplicaAware] {
		return nil, fmt.Errorf("-ckpt-stretch/-ckpt-skip-protected only apply with -ckpt-policy replica-aware")
	}
	return out, nil
}
