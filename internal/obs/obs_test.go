package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"match/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/name, rewriting the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// fill populates a registry with a deterministic mix of every metric kind.
func fill() *Registry {
	r := New()
	r.Add(CEventsScheduled, 100)
	r.Add(CEventsFired, 97)
	r.Inc(CEventsCancelled)
	r.Add(CMessages, 42)
	r.Add(CMsgBytes, 42*1024)
	r.Inc(CCollectives)
	r.Inc(CInjections)
	r.Inc(CDetections)
	r.Inc(CRecoveries)
	r.SetMax(GHeapHighWater, 17)
	r.SetMax(GHeapHighWater, 9) // must not lower the high-water mark
	r.Observe(HMsgBytes, 512)
	r.Observe(HMsgBytes, 8<<10)
	r.Observe(HDetectNs, 2_500_000)
	r.Ckpt(1, 4096)
	r.Ckpt(1, 4096)
	r.Ckpt(4, 1<<20)
	r.Inc(CRestores)
	r.EnsureRanks(3)
	r.IncRankSend(0)
	r.IncRankSend(2)
	r.IncRankSend(2)
	return r
}

// Every method must be a no-op (and every getter zero-valued) on nil
// receivers: the instrumentation calls them unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Inc(CMessages)
	r.Add(CMsgBytes, 10)
	r.SetMax(GHeapHighWater, 5)
	r.Observe(HMsgBytes, 100)
	r.Ckpt(1, 64)
	r.EnsureRanks(4)
	r.IncRankSend(0)
	r.Merge(fill())
	if r.Enabled() || r.Get(CMessages) != 0 || r.Gauge(GHeapHighWater) != 0 {
		t.Error("nil registry is not inert")
	}
	if n, b := r.CkptAt(1); n != 0 || b != 0 || r.RankSends() != nil {
		t.Error("nil registry getters are not zero-valued")
	}
	if err := r.Reconcile(Expect{Messages: 99}); err != nil {
		t.Errorf("nil registry must reconcile trivially: %v", err)
	}

	var p *Probe
	p.Emit(trace.Span{Cat: trace.CatSend})
	p.Add(CMessages, 1)
	p.SetMax(GHeapHighWater, 5)
	if p.On(trace.CatSend) || p.JobOf("job") != 0 || p.NewActor() != 0 || NewProbe(nil, nil, nil) != nil {
		t.Error("nil probe is not inert")
	}

	var l *Log
	l.Event(100, "inject", "rank", 3)
	l.HostEvent("cell_start")
	if l.Enabled() || l.With("cell", 1) != nil {
		t.Error("nil log is not inert")
	}

	var s *SweepMeter
	s.AddTotal(10)
	s.CellDone("restart", fill())
	if st := s.Snapshot(); s.Enabled() || st.CellsTotal != 0 || st.Designs != nil {
		t.Error("nil sweep meter is not inert")
	}
	var buf bytes.Buffer
	if err := s.WriteOpenMetrics(&buf); err != nil {
		t.Errorf("nil meter exposition: %v", err)
	}
	if !strings.HasSuffix(buf.String(), "# EOF\n") {
		t.Error("nil meter exposition is not a terminated stream")
	}
}

// The registry exposition is deterministic, so it is pinned byte-for-byte.
func TestOpenMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fill().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "registry.om", buf.Bytes())
	validateOpenMetrics(t, buf.String())
}

// The sweep meter exposition (per-design labels plus progress gauges) is
// pinned with an injected clock.
func TestSweepMeterGolden(t *testing.T) {
	s := NewSweepMeter()
	s.start = time.Unix(1000, 0)
	s.now = func() time.Time { return time.Unix(1010, 0) }
	s.AddTotal(8)
	s.CellDone("restart", fill())
	s.CellDone("replica", fill())
	s.CellDone("replica", fill())

	var buf bytes.Buffer
	if err := s.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "sweep.om", buf.Bytes())
	validateOpenMetrics(t, buf.String())

	buf.Reset()
	if err := s.WriteStatus(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "status.json", buf.Bytes())
	var st Status
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatalf("status is not valid JSON: %v", err)
	}
	if st.CellsDone != 3 || st.CellsTotal != 8 {
		t.Errorf("status cells = %d/%d, want 3/8", st.CellsDone, st.CellsTotal)
	}
	if st.CellsPerSec != 0.3 {
		t.Errorf("cells/sec = %v, want 0.3 (3 cells / 10 s)", st.CellsPerSec)
	}
	if len(st.Designs) != 2 || st.Designs[1].CellsDone != 2 {
		t.Errorf("per-design status wrong: %+v", st.Designs)
	}
}

// validateOpenMetrics structurally checks an exposition stream: every
// sample belongs to a declared family, counter samples carry _total,
// histogram buckets are cumulative, and the stream terminates with # EOF.
func validateOpenMetrics(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatal("stream does not end with # EOF")
	}
	types := map[string]string{}
	for _, ln := range lines[:len(lines)-1] {
		if strings.HasPrefix(ln, "# TYPE ") {
			f := strings.Fields(ln)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", ln)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(ln, "#") {
			continue
		}
		name := ln
		if i := strings.IndexAny(ln, "{ "); i >= 0 {
			name = ln[:i]
		}
		family := name
		for _, suf := range []string{"_total", "_bucket", "_count", "_sum"} {
			if f, ok := types[strings.TrimSuffix(name, suf)]; ok && strings.HasSuffix(name, suf) {
				family = strings.TrimSuffix(name, suf)
				_ = f
				break
			}
		}
		typ, ok := types[family]
		if !ok {
			t.Errorf("sample %q has no TYPE declaration", name)
			continue
		}
		if typ == "counter" && family == name {
			t.Errorf("counter sample %q lacks the _total suffix", name)
		}
	}
}

// The slog event schema is pinned with the host timestamp stripped.
func TestLogSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	h := slog.NewJSONHandler(&buf, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	})
	l := NewLogWithHandler(h)
	l.Event(2_500_000_000, "inject", "rank", 3, "replica", 0, "kind", "crash", "absorbed", false)
	l.Event(2_600_000_000, "detect", "gid", 12, "latency_s", 0.1)
	l.With("cell", 7).HostEvent("cell_start", "app", "HPCCG", "design", "ulfm")
	golden(t, "events.jsonl", buf.Bytes())

	for i, ln := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("event %d is not valid JSON: %v", i, err)
		}
		if ev["msg"] == "" || ev["level"] != "INFO" {
			t.Errorf("event %d: missing msg/level: %v", i, ev)
		}
	}
}

// OpenLog maps a -log flag value to a log and something to close: no log
// for "", a file for a path (events land in it), an error for a bad path.
func TestOpenLog(t *testing.T) {
	l, c, err := OpenLog("")
	if err != nil || l.Enabled() || c.Close() != nil {
		t.Fatalf(`OpenLog("") = %v, %v, %v`, l, c, err)
	}
	if l, c, err = OpenLog("stderr"); err != nil || !l.Enabled() || c.Close() != nil {
		t.Fatalf(`OpenLog("stderr") = %v, %v, %v`, l, c, err)
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if l, c, err = OpenLog(path); err != nil {
		t.Fatal(err)
	}
	l.HostEvent("cell_start", "app", "HPCCG")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); !strings.Contains(string(b), `"msg":"cell_start"`) {
		t.Fatalf("event missing from the log file: %q", b)
	}
	if _, _, err := OpenLog(filepath.Join(path, "under-a-file")); err == nil {
		t.Fatal("OpenLog created a file under a file")
	}
}

// Merge sums counters and histograms, keeps gauge maxima, and grows the
// per-rank table.
func TestMerge(t *testing.T) {
	a, b := fill(), fill()
	b.SetMax(GHeapHighWater, 40)
	a.Merge(b)
	if got := a.Get(CMessages); got != 84 {
		t.Errorf("merged messages = %d, want 84", got)
	}
	if got := a.Gauge(GHeapHighWater); got != 40 {
		t.Errorf("merged gauge = %d, want max 40", got)
	}
	if got := a.RankSends()[2]; got != 4 {
		t.Errorf("merged rank-2 sends = %d, want 4", got)
	}
	if n, bts := a.CkptAt(1); n != 4 || bts != 16384 {
		t.Errorf("merged L1 ckpts = (%d, %d), want (4, 16384)", n, bts)
	}
}

// Reconcile accepts exactly-matching expectations and names every
// diverging figure otherwise.
func TestReconcile(t *testing.T) {
	r := fill()
	exp := Expect{
		Messages:   42,
		MsgBytes:   42 * 1024,
		Injections: 1, Detections: 1, Recoveries: 1,
		Checkpoints: 3, CkptBytes: 4096*2 + 1<<20,
		Restores: 1,
	}
	exp.CkptCountAt[1], exp.CkptBytesAt[1] = 2, 8192
	exp.CkptCountAt[4], exp.CkptBytesAt[4] = 1, 1<<20
	if err := r.Reconcile(exp); err != nil {
		t.Fatalf("exact expectation rejected: %v", err)
	}
	bad := exp
	bad.Messages = 41
	bad.CkptCountAt[1] = 3
	err := r.Reconcile(bad)
	if err == nil {
		t.Fatal("divergent expectation accepted")
	}
	for _, want := range []string{"messages", "ckpt-count-l1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("divergence error does not name %s: %v", want, err)
		}
	}
}

// Histogram buckets are cumulative in exposition but exact in storage:
// observations land in the first bucket whose bound is >= the value, and
// +Inf catches the rest.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	r.Observe(HMsgBytes, 1)     // <= 256
	r.Observe(HMsgBytes, 256)   // <= 256 (inclusive)
	r.Observe(HMsgBytes, 257)   // <= 1Ki
	r.Observe(HMsgBytes, 1<<30) // +Inf
	h := &r.hists[HMsgBytes]
	if h.counts[0] != 2 || h.counts[1] != 1 {
		t.Errorf("bucket counts = %v", h.counts)
	}
	if h.counts[len(byteBounds)] != 1 {
		t.Errorf("overflow bucket = %d, want 1", h.counts[len(byteBounds)])
	}
	if h.n != 4 || h.sum != 1+256+257+1<<30 {
		t.Errorf("n/sum = %d/%d", h.n, h.sum)
	}
}
