package main

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
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

// The cells -verify runs, without running them: rep for rep, the cells of
// its two requests have the CellKeys of the list -verify built by hand
// before it was requests — per app, the failure-free reference on reinit
// and one single-failure cell per design at the default scale, under the
// flags' detector, placement, ingress model and seed. A reference carries
// the seed as well, which resolve drops at k = 0.
func TestVerifyRequests(t *testing.T) {
	handBuilt := func(apps []string, dc detect.Config, pc ckpt.Config, ingress bool, seed int64) (refs, faulty []core.Config) {
		for _, app := range apps {
			cell := core.Config{App: app, Design: core.ReinitFTI, Procs: 64, Input: core.Small,
				Detector: dc, CkptPolicy: pc, ModelIngress: ingress}
			refs = append(refs, cell)
			for _, d := range core.Designs() {
				cell.Design, cell.Faults, cell.FaultSeed = d, 1, seed
				faulty = append(faulty, cell)
			}
		}
		return refs, faulty
	}
	keys := func(t *testing.T, cfgs []core.Config, reps int) []string {
		var out []string
		for _, c := range cfgs {
			for r := 1; r <= reps; r++ {
				k, err := core.CellKey(c, r)
				if err != nil {
					t.Fatalf("%+v rep %d: %v", c, r, err)
				}
				out = append(out, k)
			}
		}
		return out
	}
	ring := detect.Resolve(detect.Config{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}, detect.Config{})
	l3 := ckpt.Resolve(ckpt.Config{Kind: ckpt.MultiLevel, L3Every: 1})
	apps := []string{"HPCCG", "miniVite"}
	for _, tc := range []struct {
		name string
		base core.CampaignRequest
	}{
		{name: "default flags", base: core.CampaignRequest{Reps: 1, Seed: 1}},
		{name: "ring, L3, ingress, seed 7, reps 3", base: core.CampaignRequest{Apps: apps, Reps: 3, Seed: 7,
			Detectors: []detect.Config{ring}, Policies: []ckpt.Config{l3}, ModelIngress: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.base.Canonical()
			wantRef, wantBad := handBuilt(c.Apps, c.Detectors[0], c.Policies[0], c.ModelIngress, c.Seed)
			ref, faulty := verifyRequests(tc.base)
			for _, req := range []core.CampaignRequest{ref, faulty} {
				if err := req.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := len(ref.Configs())+len(faulty.Configs()), 5*len(c.Apps); got != want {
				t.Fatalf("%d cells, want %d", got, want)
			}
			if !reflect.DeepEqual(keys(t, ref.Configs(), ref.Reps), keys(t, wantRef, c.Reps)) {
				t.Errorf("reference cells %+v\ndo not key like %+v", ref.Configs(), wantRef)
			}
			if !reflect.DeepEqual(keys(t, faulty.Configs(), faulty.Reps), keys(t, wantBad, c.Reps)) {
				t.Errorf("faulty cells %+v\ndo not key like %+v", faulty.Configs(), wantBad)
			}
		})
	}
}

// runVerify writes the verdicts in sweep order and stops at the first bad
// one; a sweep whose cell failed still gets the verdicts of the cells
// before it, and its error. The sweeps are faked: only the rendering is
// under test here.
func TestRunVerify(t *testing.T) {
	ref := core.Result{Config: core.Config{App: "HPCCG", Design: core.ReinitFTI}, Breakdown: core.Breakdown{Signature: 1}}
	cell := func(d core.Design, sig float64) core.Result {
		return core.Result{Config: core.Config{App: "HPCCG", Design: d, Faults: 1},
			Breakdown: core.Breakdown{Signature: sig, FaultsInjected: 1, Recoveries: 1}}
	}
	failed := errors.New("HPCCG/ULFM-FTI/p64/Small rep 1: virtual deadline exceeded")
	header := "== Recovery correctness verification ==\n"
	ok := func(d string) string { return fmt.Sprintf("  HPCCG      %-12s recoveries=1  OK (bitwise equal)\n", d) }
	for _, tc := range []struct {
		name    string
		faulty  []core.Result
		runErr  error
		want    string
		wantErr string
	}{
		{"all recover", []core.Result{cell(core.RestartFTI, 1), cell(core.ReinitFTI, 1)}, nil,
			header + ok("RESTART-FTI") + ok("REINIT-FTI") + "all designs recover to the failure-free answer\n", ""},
		{"failed cell", []core.Result{cell(core.RestartFTI, 1), cell(core.ReinitFTI, 1)}, failed,
			header + ok("RESTART-FTI") + ok("REINIT-FTI"), failed.Error()},
		{"mismatch stops", []core.Result{cell(core.RestartFTI, 2), cell(core.ReinitFTI, 1)}, nil,
			header + "  HPCCG      RESTART-FTI  recoveries=1  MISMATCH 2 != 1\n", "HPCCG/RESTART-FTI: recovered answer differs"},
	} {
		run := func(req core.CampaignRequest) ([]core.Result, error) {
			if req.MaxFaults == 0 {
				return []core.Result{ref}, nil
			}
			return tc.faulty, tc.runErr
		}
		var out strings.Builder
		err := runVerify(&out, run, core.CampaignRequest{Apps: []string{"HPCCG"}})
		if out.String() != tc.want {
			t.Errorf("%s: wrote\n%s\nwant\n%s", tc.name, out.String(), tc.want)
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
