package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// A nil recorder must be inert: every method safe, nothing recorded.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Wants(CatCompute) || r.Wants(CatSend) {
		t.Fatal("nil recorder Wants a category")
	}
	r.Emit(Span{Cat: CatCompute})
	r.SetDetail(DetailAll)
	if r.JobOf("job") != 0 {
		t.Fatal("nil recorder interned a job")
	}
	if r.NewActor() != 0 {
		t.Fatal("nil recorder allocated an actor")
	}
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder has spans")
	}
	if err := r.Reconcile(Totals{Total: 123}, false); err != nil {
		t.Fatalf("nil recorder failed reconciliation: %v", err)
	}
}

func TestDetailGating(t *testing.T) {
	r := New()
	if !r.Wants(CatCompute) || !r.Wants(CatDetect) {
		t.Fatal("always-on category not wanted by default")
	}
	if r.Wants(CatSend) || r.Wants(CatHeartbeat) || r.Wants(CatEvent) {
		t.Fatal("detail category wanted without detail set")
	}
	r.SetDetail(DetailMessages)
	if !r.Wants(CatSend) || !r.Wants(CatCollective) || !r.Wants(CatDedup) {
		t.Fatal("DetailMessages did not enable message categories")
	}
	if r.Wants(CatHeartbeat) || r.Wants(CatTransfer) {
		t.Fatal("DetailMessages enabled unrelated categories")
	}
	r.SetDetail(DetailAll)
	for c := Cat(1); c < numCats; c++ {
		if !r.Wants(c) {
			t.Fatalf("DetailAll does not enable %v", c)
		}
	}
}

func TestParseDetail(t *testing.T) {
	d, err := ParseDetail("messages, heartbeats")
	if err != nil || d != DetailMessages|DetailHeartbeats {
		t.Fatalf("ParseDetail = %v, %v", d, err)
	}
	if d, err = ParseDetail("all"); err != nil || d != DetailAll {
		t.Fatalf("ParseDetail(all) = %v, %v", d, err)
	}
	if d, err = ParseDetail(""); err != nil || d != 0 {
		t.Fatalf("ParseDetail(empty) = %v, %v", d, err)
	}
	if _, err = ParseDetail("bogus"); err == nil {
		t.Fatal("ParseDetail accepted bogus flag")
	}
}

// seedRun builds a synthetic two-rank run: two checkpoints and a compute
// span per rank, one detected failure, one recovery, finish marks.
func seedRun(r *Recorder) Totals {
	job := r.JobOf("job-a")
	a0, a1 := r.NewActor(), r.NewActor()
	r.Emit(Span{Cat: CatCompute, Rank: 0, Job: job, Start: 0, Dur: 100})
	r.Emit(Span{Cat: CatCompute, Rank: 1, Job: job, Start: 0, Dur: 100})
	r.Emit(Span{Cat: CatCkpt, Rank: 0, Job: job, Actor: a0, Start: 100, Dur: 10, Level: 1})
	r.Emit(Span{Cat: CatCkpt, Rank: 1, Job: job, Actor: a1, Start: 100, Dur: 10, Level: 1})
	r.Emit(Span{Cat: CatDetect, Rank: -1, Job: job, Start: 150, Dur: 30, Aux: 7})
	r.Emit(Span{Cat: CatRecovery, Rank: 1, Start: 150, Dur: 50})
	r.Emit(Span{Cat: CatCkpt, Rank: 0, Job: job, Actor: a0, Start: 230, Dur: 10, Level: 1})
	r.Emit(Span{Cat: CatFinish, Rank: 0, Job: job, Start: 300})
	r.Emit(Span{Cat: CatFinish, Rank: 1, Job: job, Start: 290})
	return Totals{
		Total:            300,
		Ckpt:             20, // rank 0 only: 10 + 10
		Recovery:         50,
		App:              230,
		DetectLatency:    30,
		DetectedFailures: 1,
	}
}

func TestTotalsAndReconcile(t *testing.T) {
	r := New()
	want := seedRun(r)
	got := r.Totals(false)
	if got != want {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
	if err := r.Reconcile(want, false); err != nil {
		t.Fatalf("Reconcile failed on matching totals: %v", err)
	}
	if err := r.Reconcile(Totals{}, false); err == nil {
		t.Fatal("Reconcile passed against zero totals")
	}
}

// Corrupting a single span must trip the self-check.
func TestReconcileDetectsCorruption(t *testing.T) {
	r := New()
	want := seedRun(r)
	spans := r.Spans()
	for i := range spans {
		if spans[i].Cat == CatCkpt && spans[i].Rank == 0 {
			spans[i].Dur++ // live slice: mutation visible to Reconcile
			break
		}
	}
	err := r.Reconcile(want, false)
	if err == nil {
		t.Fatal("Reconcile missed a corrupted checkpoint span")
	}
	if !strings.Contains(err.Error(), "ckpt") {
		t.Fatalf("corruption error does not name the ckpt phase: %v", err)
	}
}

// Replica dedup: per job only the largest FTI-instance sum counts; the
// sequential designs sum every instance.
func TestTotalsCkptDedup(t *testing.T) {
	r := New()
	j1, j2 := r.JobOf("incarnation-1"), r.JobOf("incarnation-2")
	primary, shadow, relaunch := r.NewActor(), r.NewActor(), r.NewActor()
	r.Emit(Span{Cat: CatCkpt, Rank: 0, Job: j1, Actor: primary, Start: 0, Dur: 40})
	r.Emit(Span{Cat: CatCkpt, Rank: 0, Job: j1, Actor: shadow, Start: 0, Dur: 25})
	r.Emit(Span{Cat: CatCkpt, Rank: 0, Job: j2, Actor: relaunch, Start: 100, Dur: 10})
	r.Emit(Span{Cat: CatFinish, Rank: 0, Job: j2, Start: 200})
	if got := r.Totals(true).Ckpt; got != 50 { // max(40,25) + 10
		t.Fatalf("dedup Ckpt = %d, want 50", got)
	}
	if got := r.Totals(false).Ckpt; got != 75 { // 40+25+10
		t.Fatalf("summed Ckpt = %d, want 75", got)
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	r := New()
	r.SetDetail(DetailAll)
	seedRun(r)
	r.Emit(Span{Cat: CatInject, Rank: 1, Start: 140, Aux: 1})
	r.Emit(Span{Cat: CatSend, Rank: 0, Start: 10, Dur: 5, Aux: 64})
	r.Emit(Span{Cat: CatHeartbeat, Rank: -1, Start: 50, Aux: 2})

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			Ts   *float64        `json:"ts"`
			Dur  *float64        `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing name/pid/tid: %+v", e)
		}
		switch e.Ph {
		case "X":
			if e.Ts == nil || e.Dur == nil {
				t.Fatalf("complete event missing ts/dur: %+v", e)
			}
			spans++
		case "i":
			if e.Ts == nil {
				t.Fatalf("instant missing ts: %+v", e)
			}
			instants++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if spans == 0 || instants == 0 || meta == 0 {
		t.Fatalf("trace missing event kinds: X=%d i=%d M=%d", spans, instants, meta)
	}
}

func TestWriteMetricsReportsVerdict(t *testing.T) {
	r := New()
	want := seedRun(r)
	var buf bytes.Buffer
	r.WriteMetrics(&buf, want, false)
	out := buf.String()
	if !strings.Contains(out, "reconciliation: OK") {
		t.Fatalf("metrics table missing OK verdict:\n%s", out)
	}
	if !strings.Contains(out, "checkpoint") || !strings.Contains(out, "compute") {
		t.Fatalf("metrics table missing category rows:\n%s", out)
	}
	buf.Reset()
	r.WriteMetrics(&buf, Totals{Total: 1}, false)
	if !strings.Contains(buf.String(), "reconciliation: FAILED") {
		t.Fatalf("metrics table missing FAILED verdict:\n%s", buf.String())
	}
}
