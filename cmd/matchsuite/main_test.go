package main

import (
	"reflect"
	"testing"

	"match/internal/core"
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
