package main

import (
	"reflect"
	"testing"

	"match/internal/ckpt"
	"match/internal/core"
	"match/internal/detect"
	"match/internal/simnet"
)

// The flags -> request mapping of a figure: -scales replaces the scaling
// sweep of Figs. 5-7; Figs. 8-10 run at one scale, which exactly one
// -scales value moves and none or several leave at DefaultProcs.
func TestFigureRequestFromFlags(t *testing.T) {
	base := core.CampaignRequest{Apps: []string{"HPCCG"}, Reps: 2, Seed: 7, ModelIngress: true}
	for _, tc := range []struct {
		fig        int
		scales     []int
		wantScales []int
		wantProcs  int // as Canonical resolves it
	}{
		{5, nil, []int{64, 128, 256, 512}, 0},
		{6, []int{64, 128}, []int{64, 128}, 0},
		{7, []int{512}, []int{512}, 0},
		{8, nil, nil, core.DefaultProcs},
		{9, []int{128}, nil, 128},
		{10, []int{64, 128}, nil, core.DefaultProcs},
	} {
		req, err := figureRequest(tc.fig, base, tc.scales)
		if err != nil {
			t.Fatal(err)
		}
		c := req.Canonical()
		if !reflect.DeepEqual(c.Scales, tc.wantScales) || c.Procs != tc.wantProcs {
			t.Errorf("fig %d -scales %v: scales %v procs %d, want %v and %d",
				tc.fig, tc.scales, c.Scales, c.Procs, tc.wantScales, tc.wantProcs)
		}
		// The rest of the figure comes from core, the rest of the request
		// from the flags.
		fig, _ := core.FigureRequest(tc.fig)
		if !reflect.DeepEqual(req.Inputs, fig.Inputs) || req.MinFaults != fig.MinFaults || req.MaxFaults != fig.MaxFaults ||
			!reflect.DeepEqual(req.Apps, base.Apps) || req.Reps != 2 || req.Seed != 7 || !req.ModelIngress {
			t.Errorf("fig %d: request %+v lost a figure axis or a flag", tc.fig, req)
		}
		if err := req.Validate(); err != nil {
			t.Errorf("fig %d -scales %v: %v", tc.fig, tc.scales, err)
		}
	}
	if _, err := figureRequest(3, base, nil); err == nil {
		t.Error("figure 3 accepted")
	}
}

// The cells -verify runs, without running them: per app, the failure-free
// reference on reinit and one single-failure cell per design at the
// default scale, each carrying the detector, placement, ingress model and
// seed the flags set, run at the flags' reps.
func TestVerifyCells(t *testing.T) {
	cfgs, reps := verifyCells(core.CampaignRequest{Apps: []string{"HPCCG"}})
	want := []core.Config{{App: "HPCCG", Design: core.ReinitFTI, Procs: 64, Input: core.Small}}
	for _, d := range core.Designs() {
		want = append(want, core.Config{App: "HPCCG", Design: d, Procs: 64, Input: core.Small, Faults: 1, FaultSeed: 1})
	}
	if reps != 1 || !reflect.DeepEqual(cfgs, want) {
		t.Fatalf("default -verify cells at reps %d:\n%+v\nwant at reps 1:\n%+v", reps, cfgs, want)
	}

	ring := detect.Resolve(detect.Config{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}, detect.Config{})
	l3 := ckpt.Resolve(ckpt.Config{Kind: ckpt.MultiLevel, L3Every: 1})
	base := core.CampaignRequest{Apps: []string{"HPCCG", "miniVite"}, Reps: 3, Seed: 7,
		Detectors: []detect.Config{ring}, Policies: []ckpt.Config{l3}, ModelIngress: true}
	cfgs, reps = verifyCells(base)
	perApp := 1 + len(core.Designs())
	if reps != 3 || len(cfgs) != 2*perApp {
		t.Fatalf("%d cells at reps %d, want %d at reps 3", len(cfgs), reps, 2*perApp)
	}
	for i, c := range cfgs {
		faults := 1
		if i%perApp == 0 {
			faults = 0
		}
		if c.App != base.Apps[i/perApp] || c.Procs != 64 || c.Detector != ring || c.CkptPolicy != l3 ||
			!c.ModelIngress || c.FaultCount() != faults || faults == 1 && c.FaultSeed != 7 {
			t.Errorf("cell %d = %+v lost a flag", i, c)
		}
		if _, err := core.CellKey(c, reps); err != nil {
			t.Errorf("cell %d does not resolve: %v", i, err)
		}
	}
}

// A faulty cell passes -verify only with its answer bitwise equal to the
// reference's and every fault it asked for fired; a mismatch is reported
// before a shortfall.
func TestVerdict(t *testing.T) {
	ref := core.Result{Config: core.Config{App: "HPCCG"}, Breakdown: core.Breakdown{Signature: 13824}}
	cell := func(sig float64, fired int) core.Result {
		return core.Result{Config: core.Config{App: "HPCCG", Design: core.ReplicaFTI, Faults: 1},
			Breakdown: core.Breakdown{Signature: sig, FaultsInjected: fired, Recoveries: fired}}
	}
	for _, tc := range []struct {
		name    string
		r       core.Result
		status  string
		wantErr string
	}{
		{"equal", cell(13824, 1), "OK (bitwise equal)", ""},
		{"mismatch", cell(13825, 1), "MISMATCH 13825 != 13824", "HPCCG/REPLICA-FTI: recovered answer differs"},
		{"not fired", cell(13824, 0), "UNTESTED (fired 0/1)", "HPCCG/REPLICA-FTI: 0 of 1 faults fired"},
		{"mismatch first", cell(13825, 0), "MISMATCH 13825 != 13824", "HPCCG/REPLICA-FTI: recovered answer differs"},
	} {
		status, err := verdict(ref, tc.r)
		if status != tc.status {
			t.Errorf("%s: status %q, want %q", tc.name, status, tc.status)
		}
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.wantErr {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.wantErr)
		}
	}
}
