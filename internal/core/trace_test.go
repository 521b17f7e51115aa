package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"match/internal/ckpt"
	"match/internal/trace"
)

// The recorder must be a pure observer: a traced run and an untraced run
// of the same configuration produce byte-identical breakdowns on every
// design under a multi-failure schedule. This doubles as the acceptance
// check for reconciliation — Run self-checks the trace's phase totals
// against the breakdown and errors on divergence, so a passing traced run
// proves the two accountings agree exactly.
func TestTraceOffByteIdentity(t *testing.T) {
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			params := tinyParams("HPCCG")
			cfg := Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4,
				Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 2, FaultSeed: 9}
			plain, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v untraced: %v", d, err)
			}
			traced := cfg
			traced.Trace = trace.New()
			traced.Trace.SetDetail(trace.DetailAll)
			got, err := Run(traced)
			if err != nil {
				t.Fatalf("%v traced: %v", d, err)
			}
			if got != plain {
				t.Errorf("%v: tracing perturbed the run:\nuntraced %+v\ntraced   %+v", d, plain, got)
			}
			if traced.Trace.Len() == 0 {
				t.Errorf("%v: traced run recorded no spans", d)
			}
		})
	}
}

// Corrupting a single recorded span must trip the reconciliation
// self-check: the trace is an independent re-derivation of the breakdown,
// so any drift between the two is a hard error, not a warning.
func TestTraceReconcileCatchesCorruption(t *testing.T) {
	params := tinyParams("HPCCG")
	cfg := Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 9}
	cfg.Trace = trace.New()
	bd, err := Run(cfg)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if err := cfg.Trace.Reconcile(TraceTotalsOf(bd), false); err != nil {
		t.Fatalf("clean trace failed reconciliation: %v", err)
	}
	spans := cfg.Trace.Spans()
	corrupted := false
	for i := range spans {
		if spans[i].Cat == trace.CatCkpt && spans[i].Rank == 0 {
			spans[i].Dur += 12345
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no rank-0 checkpoint span to corrupt")
	}
	err = cfg.Trace.Reconcile(TraceTotalsOf(bd), false)
	if err == nil {
		t.Fatal("reconciliation accepted a corrupted checkpoint span")
	}
	if !strings.Contains(err.Error(), "ckpt") {
		t.Errorf("divergence error does not name the ckpt phase: %v", err)
	}
}

// The Chrome export of a real 2-rank ULFM run with one injected failure
// must be well-formed trace-event JSON with the schema Perfetto expects:
// a traceEvents array of M/X/i events carrying pid/tid/ts, one named
// thread per rank plus the runtime bookkeeping tracks, and at least one
// checkpoint, recovery, and injection event.
func TestTraceChromeSchema(t *testing.T) {
	params := tinyParams("HPCCG")
	cfg := Config{App: "HPCCG", Design: UlfmFTI, Procs: 2, Nodes: 2,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 9}
	cfg.Trace = trace.New()
	if _, err := Run(cfg); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			TS   *float64       `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	threadNames := map[string]bool{}
	sawCat := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %d (%s): missing pid/tid", i, ev.Name)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				name, _ := ev.Args["name"].(string)
				threadNames[name] = true
			}
		case "X", "i":
			if ev.TS == nil {
				t.Fatalf("event %d (%s): %s event without ts", i, ev.Name, ev.Ph)
			}
			sawCat[ev.Name] = true
		default:
			t.Fatalf("event %d (%s): unexpected phase %q", i, ev.Name, ev.Ph)
		}
	}
	for _, want := range []string{"rank 0", "rank 1", "fault injector", "detector", "recovery"} {
		if !threadNames[want] {
			t.Errorf("no thread named %q (have %v)", want, threadNames)
		}
	}
	for _, want := range []string{"compute", "checkpoint", "recovery", "inject", "finish"} {
		if !sawCat[want] {
			t.Errorf("no %q event in a faulted ULFM run", want)
		}
	}
}
