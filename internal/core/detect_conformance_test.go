package core

import (
	"testing"

	"match/internal/detect"
	"match/internal/simnet"
)

// TestDetectorConformanceAcrossDesigns is the detection-axis contract: a
// table of detector configurations, run under every design on the same
// failure draw, asserting
//   - the Launcher strategy has exactly zero detection latency everywhere,
//   - a given Ring configuration yields the identical detection latency
//     for all four designs (the detector, not the design, owns it), and
//   - ring detection latency is monotonic in the heartbeat period.
func TestDetectorConformanceAcrossDesigns(t *testing.T) {
	base := Config{App: "HPCCG", Procs: 8, Nodes: 4, Input: Small, Faults: 1, FaultSeed: 9}
	cases := []struct {
		name     string
		detector detect.Config
		// wantExact < 0 means "no single expected value"; >= 0 asserts
		// DetectLatency equals it for every design.
		wantExact simnet.Time
	}{
		{"launcher", detect.Config{Kind: detect.Launcher}, 0},
		{"ring-50ms", detect.Config{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}, 150 * simnet.Millisecond},
		{"ring-150ms", detect.Config{Kind: detect.Ring, HeartbeatPeriod: 150 * simnet.Millisecond}, 450 * simnet.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range Designs() {
				cfg := base
				cfg.Design = d
				cfg.Detector = tc.detector
				bd, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", d, err)
				}
				if !bd.Completed || bd.Recoveries < 1 {
					t.Fatalf("%s: bad breakdown %+v", d, bd)
				}
				if bd.DetectLatency != tc.wantExact {
					t.Fatalf("%s: DetectLatency = %v, want %v (identical across designs)",
						d, bd.DetectLatency, tc.wantExact)
				}
			}
		})
	}
}

// TestRingTimeoutOffThePeriodGrid runs every design under a ring whose
// timeout is not a multiple of its period. The ring then confirms a failure
// on the tick after DetectedAt, so a recovery timed from DetectedAt can fall
// due before the confirmation; the cell must still complete (scheduling into
// the past panics) and report the timeout as its detection latency.
func TestRingTimeoutOffThePeriodGrid(t *testing.T) {
	for _, d := range Designs() {
		bd, err := Run(Config{
			App: "HPCCG", Design: d, Procs: 8, Nodes: 4, Input: Small,
			Faults: 1, FaultSeed: 9,
			Detector: detect.Config{Kind: detect.Ring,
				HeartbeatPeriod: 100 * simnet.Millisecond, DetectTimeout: 250 * simnet.Millisecond},
		})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if !bd.Completed || bd.Recoveries < 1 {
			t.Fatalf("%s: bad breakdown %+v", d, bd)
		}
		if bd.DetectLatency != 250*simnet.Millisecond {
			t.Fatalf("%s: DetectLatency = %v, want the 250ms timeout", d, bd.DetectLatency)
		}
	}
}

// TestRingPeriodMovesLatencyAndInterference is the acceptance bar of the
// detection subsystem: running the same design under a Ring detector at
// two heartbeat periods must change the reported detection latency AND the
// total overhead (the faster ring heartbeats more, stealing more CPU and
// NIC time), while leaving the computed answer untouched.
func TestRingPeriodMovesLatencyAndInterference(t *testing.T) {
	run := func(period simnet.Time) Breakdown {
		bd, err := Run(Config{
			App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
			Faults: 1, FaultSeed: 9,
			Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: period},
		})
		if err != nil {
			t.Fatalf("period %v: %v", period, err)
		}
		return bd
	}
	fast := run(25 * simnet.Millisecond)
	slow := run(150 * simnet.Millisecond)
	if fast.DetectLatency >= slow.DetectLatency {
		t.Fatalf("detection latency not monotonic in period: fast %v, slow %v",
			fast.DetectLatency, slow.DetectLatency)
	}
	if fast.Signature != slow.Signature {
		t.Fatalf("answer changed with the detector: %v vs %v", fast.Signature, slow.Signature)
	}
	// Interference: the fast ring must cost more in failure-free steady
	// state. Compare k=0 runs so recovery-time differences cannot mask it.
	base := func(period simnet.Time) simnet.Time {
		bd, err := Run(Config{
			App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
			Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: period},
		})
		if err != nil {
			t.Fatalf("baseline period %v: %v", period, err)
		}
		return bd.Total
	}
	if fastT, slowT := base(25*simnet.Millisecond), base(150*simnet.Millisecond); fastT <= slowT {
		t.Fatalf("fast ring (total %v) not costlier than slow ring (total %v) in steady state", fastT, slowT)
	}
}

// TestDetectorPresetMatchesExplicit pins the refactoring invariant behind
// the calibrated numbers: each design's Preset detection is literally the
// shared implementation under the calibrated parameters, so spelling the
// preset out explicitly reproduces the default run byte-for-byte.
func TestDetectorPresetMatchesExplicit(t *testing.T) {
	base := Config{App: "HPCCG", Procs: 8, Nodes: 4, Input: Small, Faults: 1, FaultSeed: 9}
	cases := []struct {
		design   Design
		explicit detect.Config
	}{
		{UlfmFTI, detect.RingDefaults()},
		{ReinitFTI, detect.TreeDefaults()},
		{RestartFTI, detect.Config{Kind: detect.Launcher}},
		{ReplicaFTI, detect.Config{Kind: detect.Launcher}},
	}
	for _, tc := range cases {
		def := base
		def.Design = tc.design
		want, err := Run(def)
		if err != nil {
			t.Fatalf("%s default: %v", tc.design, err)
		}
		exp := def
		exp.Detector = tc.explicit
		got, err := Run(exp)
		if err != nil {
			t.Fatalf("%s explicit: %v", tc.design, err)
		}
		if want != got {
			t.Fatalf("%s explicit preset diverged:\ndefault:  %+v\nexplicit: %+v", tc.design, want, got)
		}
	}
}

// TestRunRejectsInvalidDetector pins that validation happens before any
// simulation state exists, with a clear error.
func TestRunRejectsInvalidDetector(t *testing.T) {
	_, err := Run(Config{
		App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4, Input: Small,
		Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: 100 * simnet.Millisecond, DetectTimeout: 10 * simnet.Millisecond},
	})
	if err == nil {
		t.Fatal("Run accepted timeout < period")
	}
}

// TestIngressKnob pins the ingress-NIC gating satellite: the knob is off
// by default for every design, and switching it on changes replica
// timings (duplicated inbound streams start paying queueing delay) while
// never changing the computed answer.
func TestIngressKnob(t *testing.T) {
	off, err := Run(Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4,
		Input: Small, Faults: 1, FaultSeed: 9})
	if err != nil {
		t.Fatalf("ingress off: %v", err)
	}
	on, err := Run(Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4,
		Input: Small, Faults: 1, FaultSeed: 9, ModelIngress: true})
	if err != nil {
		t.Fatalf("ingress on: %v", err)
	}
	if on.Total <= off.Total {
		t.Fatalf("ingress modeling did not slow the replicated run: on %v <= off %v", on.Total, off.Total)
	}
	if on.Signature != off.Signature {
		t.Fatalf("ingress modeling changed the answer: %v vs %v", on.Signature, off.Signature)
	}
}
