package core

import (
	"fmt"

	"match/internal/apps/appkit"
)

// TableIEntry is one row of the paper's Table I, with the reproduction's
// scaled-down equivalents attached.
type TableIEntry struct {
	App        string
	Input      InputSize
	PaperInput string // the paper's command-line fragment
	Params     appkit.Params
	BytesScale float64 // paper data volume / our data volume
	ProcCounts []int
}

// row couples a scaled-down configuration with its calibration constants.
type row struct {
	paper  string
	p      appkit.Params
	bscale float64
}

// appSeed fixes application-level randomness so all designs, seeds, and
// fault plans see the identical problem instance.
const appSeed = 42

// tableI is the paper's Table I mapped to laptop-scale instances. The
// paper's problems cannot run at full size inside a discrete-event
// simulator, so each configuration keeps the paper's *shape* (which
// dimension grows, per-process vs. global semantics, iteration structure)
// at reduced size; WorkScale and BytesScale then charge virtual time as if
// the paper-scale computation and data were being processed, calibrated
// against the magnitudes in Figures 5-10 (see EXPERIMENTS.md).
var tableI = map[string][3]row{
	"AMG": {
		{paper: "-problem 2 -n 20 20 20", p: appkit.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 25, WorkScale: 190000}, bscale: 15.6},
		{paper: "-problem 2 -n 40 40 40", p: appkit.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 25, WorkScale: 280000}, bscale: 125},
		{paper: "-problem 2 -n 60 60 60", p: appkit.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 25, WorkScale: 390000}, bscale: 422},
	},
	"CoMD": {
		{paper: "-nx 128 -ny 128 -nz 128", p: appkit.Params{NX: 12, NY: 12, NZ: 12, MaxIter: 40, WorkScale: 52000}, bscale: 1214},
		{paper: "-nx 256 -ny 256 -nz 256", p: appkit.Params{NX: 14, NY: 14, NZ: 14, MaxIter: 40, WorkScale: 52000}, bscale: 6114},
		{paper: "-nx 512 -ny 512 -nz 512", p: appkit.Params{NX: 16, NY: 16, NZ: 16, MaxIter: 40, WorkScale: 940000}, bscale: 32768},
	},
	"HPCCG": {
		{paper: "64 64 64", p: appkit.Params{NX: 12, NY: 12, NZ: 12, MaxIter: 60, WorkScale: 900}, bscale: 151},
		{paper: "128 128 128", p: appkit.Params{NX: 14, NY: 14, NZ: 14, MaxIter: 60, WorkScale: 4500}, bscale: 764},
		{paper: "192 192 192", p: appkit.Params{NX: 16, NY: 16, NZ: 16, MaxIter: 60, WorkScale: 10200}, bscale: 1728},
	},
	"LULESH": {
		{paper: "-s 30 -p", p: appkit.Params{S: 6, MaxIter: 60, WorkScale: 560000}, bscale: 125},
		{paper: "-s 40 -p", p: appkit.Params{S: 7, MaxIter: 60, WorkScale: 700000}, bscale: 187},
		{paper: "-s 50 -p", p: appkit.Params{S: 8, MaxIter: 60, WorkScale: 1000000}, bscale: 244},
	},
	"miniFE": {
		{paper: "-nx 20 -ny 20 -nz 20", p: appkit.Params{NX: 20, NY: 20, NZ: 20, MaxIter: 40, WorkScale: 5400}, bscale: 1},
		{paper: "-nx 40 -ny 40 -nz 40", p: appkit.Params{NX: 40, NY: 40, NZ: 40, MaxIter: 40, WorkScale: 1260}, bscale: 1},
		{paper: "-nx 60 -ny 60 -nz 60", p: appkit.Params{NX: 60, NY: 60, NZ: 60, MaxIter: 40, WorkScale: 550}, bscale: 1},
	},
	"miniVite": {
		{paper: "-p 3 -l -n 128000", p: appkit.Params{NVerts: 8192, MaxIter: 20, WorkScale: 17000}, bscale: 15.6},
		{paper: "-p 3 -l -n 256000", p: appkit.Params{NVerts: 16384, MaxIter: 20, WorkScale: 17000}, bscale: 15.6},
		{paper: "-p 3 -l -n 512000", p: appkit.Params{NVerts: 32768, MaxIter: 20, WorkScale: 17000}, bscale: 15.6},
	},
}

// tableIScales lists the scaling sizes of the paper's evaluation.
func tableIScales() []int { return []int{64, 128, 256, 512} }

// ProcCounts returns the process counts Table I prescribes for an app.
func ProcCounts(app string) []int {
	if app == "LULESH" {
		return []int{64, 512} // cube process counts only, as in the paper
	}
	return tableIScales()
}

// DefaultProcs is the paper's default scaling size.
const DefaultProcs = 64

// ResolveParams maps (app, input size) to runnable parameters and the
// BytesScale calibration. Config.Params overrides everything when set.
func ResolveParams(cfg Config) (appkit.Params, float64, error) {
	if cfg.Params.MaxIter != 0 {
		p := cfg.Params
		if p.WorkScale == 0 {
			p.WorkScale = 1
		}
		if p.Seed == 0 {
			p.Seed = appSeed
		}
		return p, 1, nil
	}
	rows, ok := tableI[cfg.App]
	if !ok {
		return appkit.Params{}, 0, fmt.Errorf("core: no Table I entry for %q", cfg.App)
	}
	if cfg.Input < Small || cfg.Input > Large {
		return appkit.Params{}, 0, fmt.Errorf("core: bad input size %v", cfg.Input)
	}
	r := rows[cfg.Input]
	p := r.p
	p.Seed = appSeed
	return p, r.bscale, nil
}

// TableIApps lists the paper's six proxy applications in Table I order —
// the default app set of every sweep (figures, campaigns, verification).
func TableIApps() []string {
	return []string{"AMG", "CoMD", "HPCCG", "LULESH", "miniFE", "miniVite"}
}

// TableI returns every (app, input) entry for printing and testing.
func TableI() []TableIEntry {
	var out []TableIEntry
	for _, app := range TableIApps() {
		rows := tableI[app]
		for i, r := range rows {
			out = append(out, TableIEntry{
				App:        app,
				Input:      InputSize(i),
				PaperInput: r.paper,
				Params:     r.p,
				BytesScale: r.bscale,
				ProcCounts: ProcCounts(app),
			})
		}
	}
	return out
}
