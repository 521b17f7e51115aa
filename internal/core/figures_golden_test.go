package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"match/internal/apps"
	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/replica"
	"match/internal/simnet"
	"match/internal/ulfm"
)

// figuresGolden is the checked-in answer of TestPaperFiguresGolden, one
// JSON object a line.
const figuresGolden = "testdata/figures.golden"

// goldenRow is one named cell of the figure gate.
type goldenRow struct {
	label string
	cfg   Config
}

// goldenGroup is a run of rows; fig (5-10) also renders the group's
// results through WriteFigure, as the figure's request returns them.
type goldenGroup struct {
	fig  int
	rows []goldenRow
}

// goldenLine is one line of the golden file: a distinct cell (its key and
// Breakdown) or the SHA-256 of one rendered figure or ratio table.
type goldenLine struct {
	Row       string     `json:"row"`
	Key       string     `json:"key,omitempty"`
	Breakdown *Breakdown `json:"breakdown,omitempty"`
	SHA256    string     `json:"sha256,omitempty"`
}

// TestPaperFiguresGolden pins the simulated evaluation bit for bit: each
// distinct cell's CellKey and full Breakdown, and the bytes of every
// rendered figure, against testdata/figures.golden. By default it checks
// the 24 conformance cells, from conformanceStore when
// TestDesignConformanceMatrix has filled it. With -figures it adds Figs. 5-10 (HPCCG and
// miniVite at 64 and 128 processes, all three inputs), the ablation sweeps,
// a 30-cell campaign, the cross-app CLI cells, and a slice of cells averaged
// over three repetitions; every row goes through the one store, so a cell
// shared between figures simulates once.
//
// -update -figures rewrites the file. That is a model change, like any
// change to a figure: never regenerate it for a refactor.
func TestPaperFiguresGolden(t *testing.T) {
	groups := []goldenGroup{{rows: conformanceRows()}}
	if *allFigures {
		groups = append(groups, figureGroups(t)...)
		groups = append(groups, goldenGroup{rows: ablationRows(t)},
			goldenGroup{rows: campaignRows()}, goldenGroup{rows: cliRows()})
	}
	var cfgs []Config
	for _, g := range groups {
		for _, r := range g.rows {
			cfgs = append(cfgs, r.cfg)
		}
	}
	results, err := CampaignRunner{Store: conformanceStore}.Cells(cfgs, 1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var got, renders []goldenLine
	keys := map[string]bool{}
	i := 0
	for _, g := range groups {
		for _, r := range g.rows {
			key, err := CellKey(r.cfg, 1)
			if err != nil {
				t.Fatalf("%s: %v", r.label, err)
			}
			if !keys[key] {
				keys[key] = true
				bd := results[i].Breakdown
				got = append(got, goldenLine{Row: r.label, Key: key, Breakdown: &bd})
			}
			i++
		}
		if g.fig != 0 {
			figResults := results[i-len(g.rows) : i]
			var buf bytes.Buffer
			WriteFigure(&buf, g.fig, figResults)
			renders = append(renders, shaLine(fmt.Sprintf("render/fig%d", g.fig), buf.Bytes()))
			if g.fig == 6 {
				buf.Reset()
				ComputeRatios(figResults).Write(&buf)
				renders = append(renders, shaLine("render/ratios-fig6", buf.Bytes()))
			}
		}
	}
	got = append(got, renders...)
	if *allFigures {
		got = append(got, repsLines(t)...)
	}

	if *update && *allFigures {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, l := range got {
			if err := enc.Encode(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(figuresGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readFiguresGolden(t)
	wantBy := map[string]goldenLine{}
	for _, l := range want {
		// Without -figures only the conformance rows ran.
		if *allFigures || strings.HasPrefix(l.Row, "conformance/") {
			wantBy[l.Row] = l
		}
	}
	for _, g := range got {
		w, ok := wantBy[g.Row]
		delete(wantBy, g.Row)
		switch {
		case !ok:
			t.Errorf("%s: extra row, not in %s", g.Row, figuresGolden)
		case g.Key != w.Key:
			t.Errorf("%s: key %s, want %s", g.Row, g.Key, w.Key)
		case g.SHA256 != w.SHA256:
			t.Errorf("%s: rendered sha256 %s, want %s", g.Row, g.SHA256, w.SHA256)
		case g.Breakdown != nil && (w.Breakdown == nil || *g.Breakdown != *w.Breakdown):
			t.Errorf("%s: breakdown moved:\n%s", g.Row, breakdownDiff(*g.Breakdown, w.Breakdown))
		}
	}
	for row := range wantBy {
		t.Errorf("%s: missing row, in %s but not run", row, figuresGolden)
	}
}

// repsLines runs repsRows at three repetitions each and pins every row's
// label and averaged Breakdown. The rows carry no key and are matched by
// label alone: keyed, a rep could share a line with a one-rep row.
func repsLines(t *testing.T) []goldenLine {
	rows := repsRows(t)
	cfgs := make([]Config, len(rows))
	for i, r := range rows {
		cfgs[i] = r.cfg
	}
	results, err := CampaignRunner{Store: conformanceStore}.Cells(cfgs, 3)
	if err != nil {
		t.Fatalf("reps3: %v", err)
	}
	lines := make([]goldenLine, len(rows))
	for i, r := range rows {
		bd := results[i].Breakdown
		lines[i] = goldenLine{Row: r.label, Breakdown: &bd}
	}
	return lines
}

// repsRows are HPCCG with 0, 1 and 2 random failures and miniVite under an
// explicit schedule, on every design: failure-free, seeded and scheduled
// cells, 16 in all.
func repsRows(t *testing.T) []goldenRow {
	sched, err := fault.ParseSchedule("3@12")
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	for _, d := range Designs() {
		for k := 0; k <= 2; k++ {
			rows = append(rows, goldenRow{fmt.Sprintf("reps3/HPCCG/k%d/%s", k, d.ShortName()), Config{
				App: "HPCCG", Design: d, Procs: 16, Nodes: 8, Input: Small, Faults: k, FaultSeed: 3,
			}})
		}
		rows = append(rows, goldenRow{"reps3/miniVite/schedule/" + d.ShortName(), Config{
			App: "miniVite", Design: d, Procs: 16, Nodes: 8, Input: Small, Schedule: &sched, FaultSeed: 3,
		}})
	}
	return rows
}

func shaLine(row string, b []byte) goldenLine {
	sum := sha256.Sum256(b)
	return goldenLine{Row: row, SHA256: hex.EncodeToString(sum[:])}
}

func readFiguresGolden(t *testing.T) []goldenLine {
	t.Helper()
	f, err := os.Open(figuresGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update -figures): %v", err)
	}
	defer f.Close()
	var lines []goldenLine
	for dec := json.NewDecoder(f); dec.More(); {
		var l goldenLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("%s line %d: %v", figuresGolden, len(lines)+1, err)
		}
		lines = append(lines, l)
	}
	return lines
}

// breakdownDiff names each field of got that differs from want, with both
// values in their exact JSON spelling.
func breakdownDiff(got Breakdown, want *Breakdown) string {
	if want == nil {
		return "\tthe golden line has no breakdown"
	}
	g, w := reflect.ValueOf(got), reflect.ValueOf(*want)
	var b strings.Builder
	for f := 0; f < g.NumField(); f++ {
		gv, _ := json.Marshal(g.Field(f).Interface())
		wv, _ := json.Marshal(w.Field(f).Interface())
		if !bytes.Equal(gv, wv) {
			fmt.Fprintf(&b, "\t%s: %s, want %s\n", g.Type().Field(f).Name, gv, wv)
		}
	}
	return b.String()
}

// conformanceRows are TestDesignConformanceMatrix's cells.
func conformanceRows() []goldenRow {
	var rows []goldenRow
	for _, app := range apps.Names() {
		for _, d := range Designs() {
			rows = append(rows, goldenRow{"conformance/" + app + "/" + d.ShortName(), conformanceCell(app, d)})
		}
	}
	return rows
}

// figureGroups are Figs. 5-10 narrowed to two applications and two scales,
// in the order each figure's request enumerates them.
func figureGroups(t *testing.T) []goldenGroup {
	var groups []goldenGroup
	for fig := 5; fig <= 10; fig++ {
		req, err := FigureRequest(fig)
		if err != nil {
			t.Fatal(err)
		}
		req.Apps = []string{"HPCCG", "miniVite"}
		if len(req.Scales) > 0 {
			req.Scales = []int{64, 128}
		}
		g := goldenGroup{fig: fig}
		for _, c := range req.Configs() {
			g.rows = append(g.rows, goldenRow{
				fmt.Sprintf("fig%d/%s/p%d/%s/%s", fig, c.App, c.Procs, c.Input, c.Design), c})
		}
		groups = append(groups, g)
	}
	return groups
}

// ablationRows are the design-space ablations, one named cell per point.
func ablationRows(t *testing.T) []goldenRow {
	sched, err := fault.ParseSchedule("5@20:replica=1,5@45:replica=0")
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	// The checkpoint interval the paper fixes at 10.
	for _, stride := range []int{2, 5, 10, 25} {
		rows = append(rows, goldenRow{fmt.Sprintf("ablation/ckpt-stride/%d", stride), Config{
			App: "HPCCG", Design: ReinitFTI, Procs: 64,
			Input: Small, CkptPolicy: ckpt.Config{Stride: stride},
			Faults: 1, FaultSeed: 5,
		}})
	}
	// Checkpoint placement on the replica design.
	for _, kind := range []ckpt.Kind{ckpt.Fixed, ckpt.MultiLevel, ckpt.ReplicaAware, ckpt.Adaptive} {
		rows = append(rows, goldenRow{"ablation/ckpt-policy/" + kind.String(), Config{
			App: "HPCCG", Design: ReplicaFTI, Procs: 64,
			Input: Small, CkptPolicy: ckpt.Config{Kind: kind},
			Faults: 1, FaultSeed: 5,
		}})
	}
	// A double hit on one replica group, with and without a hot spare.
	for _, hs := range []bool{false, true} {
		rows = append(rows, goldenRow{"ablation/hot-spare/" + map[bool]string{false: "off", true: "on"}[hs], Config{
			App: "HPCCG", Design: ReplicaFTI, Procs: 64,
			Input: Small, Schedule: &sched, Replica: replica.Config{HotSpare: hs},
		}})
	}
	// The four FTI checkpoint levels.
	for _, level := range []fti.Level{fti.L1, fti.L2, fti.L3, fti.L4} {
		rows = append(rows, goldenRow{"ablation/fti-level/" + level.String(), Config{
			App: "CoMD", Design: ReinitFTI, Procs: 64,
			Input: Small, FTILevel: level,
		}})
	}
	// ULFM's failure detector period.
	for _, period := range []simnet.Time{25 * simnet.Millisecond, 100 * simnet.Millisecond, 400 * simnet.Millisecond} {
		rows = append(rows, goldenRow{fmt.Sprintf("ablation/heartbeat/%dms", period/simnet.Millisecond), Config{
			App: "HPCCG", Design: UlfmFTI, Procs: 64,
			Input: Small, Faults: 1, FaultSeed: 5,
			Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: period, DetectTimeout: 3 * period},
		}})
	}
	// ULFM's interposed-progress slowdown; zero means the default, so
	// "off" is a negligible factor.
	for _, p := range []struct {
		name   string
		factor float64
	}{{"off", 1e-9}, {"x0.25", 0.25}, {"x0.50", 0.5}} {
		rows = append(rows, goldenRow{"ablation/ulfm-progress/" + p.name, Config{
			App: "HPCCG", Design: UlfmFTI, Procs: 128,
			Input: Small, Ulfm: ulfm.Config{DeliveryFactor: p.factor},
		}})
	}
	return rows
}

// campaignRows are a multi-design campaign: two applications, all four
// designs, k = 0..2 scheduled failures and the hot-spare axis (30 cells).
func campaignRows() []goldenRow {
	req := CampaignRequest{
		Apps:      []string{"HPCCG", "miniVite"},
		MaxFaults: 2,
		Seed:      7,
		HotSpares: []bool{false, true},
	}
	var rows []goldenRow
	for _, c := range req.Configs() {
		label := fmt.Sprintf("campaign/%s/k%d/%s", c.App, c.Faults, c.Design)
		if c.Replica.HotSpare {
			label += "/hot-spare"
		}
		rows = append(rows, goldenRow{label, c})
	}
	return rows
}

// cliRows are `match -app A -design D -procs 8 -faults 2 -seed 3` for
// every app and design, plus that cell on reinit with an L3 checkpoint
// every second iteration (`-ckpt-policy multi-level -stride 2
// -ckpt-l3-every 1`) for the two apps whose state is a Field3D.
func cliRows() []goldenRow {
	cell := func(app string, d Design) Config {
		return Config{
			App: app, Design: d, Procs: 8, Nodes: 32, Input: Small,
			Faults: 2, FaultSeed: 3,
		}
	}
	var rows []goldenRow
	for _, app := range apps.Names() {
		for _, d := range Designs() {
			rows = append(rows, goldenRow{"cli/" + app + "/" + d.ShortName(), cell(app, d)})
		}
	}
	for _, app := range []string{"AMG", "LULESH"} {
		c := cell(app, ReinitFTI)
		c.CkptPolicy = ckpt.Config{Kind: ckpt.MultiLevel, Stride: 2, L3Every: 1}
		rows = append(rows, goldenRow{"cli-l3/" + app, c})
	}
	return rows
}
