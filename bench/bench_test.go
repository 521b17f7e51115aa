package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestRequestsRepeatAndDiffer(t *testing.T) {
	for _, w := range workloads {
		ids := map[string]bool{}
		for r := 0; r < 3; r++ {
			a, b := w.round(7, r), w.round(7, r)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s round %d: same seed, different requests", w.name, r)
			}
			if reflect.DeepEqual(a, w.round(8, r)) {
				t.Errorf("%s round %d: seeds 7 and 8 give the same requests", w.name, r)
			}
			for _, req := range a {
				if err := req.Validate(); err != nil {
					t.Errorf("%s round %d: %v", w.name, r, err)
				}
				if !w.serve {
					continue
				}
				id, err := req.Hash()
				if err != nil {
					t.Fatal(err)
				}
				if ids[id] {
					t.Errorf("%s round %d: campaign %s submitted twice", w.name, r, id[:12])
				}
				ids[id] = true
			}
		}
		if w.serve {
			if id, _ := w.prefill.Hash(); ids[id] {
				t.Errorf("%s: a timed op repeats the prefill campaign", w.name)
			}
		}
	}
}

func TestOpSeed(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 7, 13} {
		for n := 0; n < 2000; n++ {
			s := opSeed(seed, n)
			if s == 0 || s == 1 || seen[s] {
				t.Fatalf("opSeed(%d, %d) = %d: zero, the prefill seed, or a repeat", seed, n, s)
			}
			seen[s] = true
		}
	}
}

func TestStatHelpers(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v", m)
	}
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if p := percentile(v, 50); p != 5 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(v, 99); p != 10 {
		t.Errorf("p99 = %v", p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(v)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if !near(q1, 1.5) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles of 1..5 = %v %v %v", q1, q2, q3)
	}
	if s := quartileSpread(v); !near(s, 1) {
		t.Errorf("spread of 1..10 = %v", s)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFile holds BENCHMARK.json and the harness together: every
// workload and metric the file names is one the harness emits, with the
// same unit and direction, and the other way round.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, harness %q", i, bf.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or a why that is not one short line", w.name)
		}
		seen[w.name] = true
	}

	if len(bf.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the harness", len(bf.EndToEnd), len(endToEndSpecs))
	}
	for i, s := range endToEndSpecs {
		m := bf.EndToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end[%d]: file has %v, harness %v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := endToEndSpecs[0]; s.name != "setup_s" || s.unit != "s" || s.better != "lower" {
		t.Errorf("the set-up metric is %v", s)
	}
	if len(bf.PerLayer) != len(perLayerSpecs) || len(perLayerSpecs) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the harness", len(bf.PerLayer), len(perLayerSpecs))
	}
	for i, s := range perLayerSpecs {
		if m := bf.PerLayer[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d]: file has %v, harness %v", i, m, s)
		}
	}
	for _, s := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		if !nameRE.MatchString(s.name) || !unitRE.MatchString(s.unit) || seen[s.name] {
			t.Errorf("metric %q (%q): bad name, bad unit, or a repeat", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("metric %q: better = %q", s.name, s.better)
		}
		seen[s.name] = true
	}
	// A run emits every spec, measured or not, and nothing else.
	if got := metricValues(nil, perLayerSpecs, true); len(got) != len(perLayerSpecs) {
		t.Errorf("a traced run emits %d metrics, the file lists %d", len(got), len(perLayerSpecs))
	}
	for _, name := range shareNames {
		if !seen["share."+name] {
			t.Errorf("bucket %q has no share.%s metric", name, name)
		}
	}
}

// TestEveryInternalPackageHasABucket fails when a package is added under
// internal/ without saying which CPU share it belongs to.
func TestEveryInternalPackageHasABucket(t *testing.T) {
	root := filepath.Join("..", "internal")
	found := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		srcs, _ := filepath.Glob(filepath.Join(path, "*.go"))
		if len(srcs) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		pkg := "match/internal/" + filepath.ToSlash(rel)
		found++
		if _, ok := bucketOfPackage(pkg); !ok {
			t.Errorf("%s maps to no bucket: add it to packageBucket in profile.go", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found < 20 {
		t.Errorf("found only %d packages under %s", found, root)
	}
	for pkg, bucket := range packageBucket {
		ok := false
		for _, name := range shareNames {
			ok = ok || name == bucket
		}
		if !ok {
			t.Errorf("%s maps to unknown bucket %q", pkg, bucket)
		}
	}
}

func TestBucketOfStack(t *testing.T) {
	cases := []struct {
		want  string
		stack []string
	}{
		{"apps", []string{"match/internal/apps/hpccg.spmv", "match/internal/apps/hpccg.(*State).Step"}},
		{"go_map", []string{"runtime.mapaccess1_fast64", "match/internal/apps/minivite.(*State).Step"}},
		{"go_map", []string{"internal/runtime/maps.(*Map).getWithKey", "match/internal/apps/minivite.Step"}},
		{"go_sched", []string{"runtime.lock2", "runtime.chansend", "match/internal/simnet.procWake"}},
		{"go_sched", []string{"runtime.futex", "runtime.notewakeup", "runtime.schedule"}},
		{"go_mem", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "match/internal/mpi.Send"}},
		{"enc", []string{"runtime.memmove", "match/internal/enc.Float64sToBytes", "match/internal/fti.(*FTI).serialize"}},
		{"store", []string{"syscall.Syscall", "os.(*File).Write", "match/internal/store.(*Store).Put"}},
		{"core", []string{"encoding/json.Marshal", "match/internal/core.encodeCachedCell"}},
		{"rs", []string{"match/internal/rs.gfMul", "match/internal/rs.(*Code).Encode"}},
		{"designs", []string{"match/internal/reinit.(*Runtime).recover"}},
		{"other", []string{"main.calibrate", "main.main"}},
		{"other", nil},
	}
	for _, c := range cases {
		if got := bucketOfStack(c.stack); got != c.want {
			t.Errorf("bucketOfStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestAddProfileDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("a CPU profile is already running:", err)
	}
	for end := time.Now().Add(150 * time.Millisecond); time.Now().Before(end); {
		calibrate()
	}
	pprof.StopCPUProfile()
	shares := map[string]float64{}
	if err := addProfile(buf.Bytes(), shares); err != nil {
		t.Fatal(err)
	}
	// The spin is harness code: whatever was sampled lands in "other".
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total > 0 && shares["other"] < 0.5*total {
		t.Errorf("shares of a harness-only profile: %v", shares)
	}
	if err := addProfile([]byte("not a profile"), shares); err == nil {
		t.Error("garbage decoded without an error")
	}
}

func TestParseOpenMetrics(t *testing.T) {
	text := `# TYPE match_mpi_messages counter
match_mpi_messages_total{design="reinit"} 120
match_mpi_messages_total{design="replica"} 480
match_cells{state="done"} 3
match_cells_per_sec 1.5
# EOF
`
	sums := parseOpenMetrics([]byte(text))
	if sums["match_mpi_messages_total"] != 600 || sums["match_cells"] != 3 || sums["match_cells_per_sec"] != 1.5 {
		t.Errorf("sums = %v", sums)
	}
	layer := map[string]float64{}
	totals := tracedTotals{ops: 4, hostS: 2, virtS: 8}
	if err := totals.addTo(layer, sums); err != nil {
		t.Fatal(err)
	}
	if layer["mpi.msgs_per_op"] != 150 || layer["simnet.events_per_op"] != 0 || layer["core.virt_s_per_host_s"] != 4 {
		t.Errorf("layer = %v", layer)
	}
	if (&tracedTotals{}).addTo(layer, sums) == nil {
		t.Error("a run without a traced round reported counts")
	}
}

func TestSpanLog(t *testing.T) {
	var off *spanLog
	if id := off.open("x", 0); id != 0 {
		t.Errorf("a nil log handed out id %d", id)
	}
	off.end(0)
	l := &spanLog{}
	run := l.open("run", 0)
	op := l.add("op", run, time.Now(), time.Now().Add(time.Millisecond))
	l.end(run)
	if run != 1 || op != 2 || l.spans[1].Parent != run || l.spans[0].End.IsZero() {
		t.Errorf("spans = %+v", l.spans)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := l.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || !bytes.Contains(b, []byte(`"traceEvents"`)) {
		t.Errorf("trace file: %v %s", err, b)
	}
}
