package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"match/internal/obs"
	"match/internal/simnet"
)

// Result pairs a configuration with its measured breakdown.
type Result struct {
	Config    Config
	Breakdown Breakdown
}

// Key renders the identifying columns of a result.
func (r Result) Key() string {
	return fmt.Sprintf("%s/%s/p%d/%s", r.Config.App, r.Config.Design, r.Config.Procs, r.Config.Input)
}

// Verdict judges recovered cell r against ref, the failure-free run of the
// same app: the status a report prints, and an error unless r's answer is
// bitwise equal to ref's and every fault r asked for fired — a cell whose
// faults never fired tested no recovery. A mismatch is reported before a
// shortfall. At reps > 1 r's FaultsInjected is the reps' mean, rounded, so
// a shortfall in one rep can round away.
func Verdict(ref, r Result) (string, error) {
	bd, cell := r.Breakdown, r.Config.App+"/"+r.Config.Design.String()
	if math.Float64bits(bd.Signature) != math.Float64bits(ref.Breakdown.Signature) {
		return fmt.Sprintf("MISMATCH %g != %g", bd.Signature, ref.Breakdown.Signature),
			fmt.Errorf("%s: recovered answer differs", cell)
	}
	if want := r.Config.FaultCount(); bd.FaultsInjected < want {
		return fmt.Sprintf("UNTESTED (fired %d/%d)", bd.FaultsInjected, want),
			fmt.Errorf("%s: %d of %d faults fired", cell, bd.FaultsInjected, want)
	}
	return "OK (bitwise equal)", nil
}

// repConfig is rep r (counted from 1) of cfg: the same cell with its fault
// seed moved by 1009 per earlier rep, so a faulty cell's reps draw distinct
// failures. resolve drops the seed of a failure-free or explicitly
// scheduled cell, so all of that cell's reps are one cell.
func repConfig(cfg Config, r int) Config {
	cfg.FaultSeed += int64(r-1) * 1009
	return cfg
}

// add sums o into b, one rep of a fold: times and counts add, Completed is
// ANDed, and b keeps its Signature.
func (b *Breakdown) add(o Breakdown) {
	b.Total += o.Total
	b.App += o.App
	b.Ckpt += o.Ckpt
	b.Recovery += o.Recovery
	b.DetectLatency += o.DetectLatency
	b.DetectedFailures += o.DetectedFailures
	b.Recoveries += o.Recoveries
	b.FaultsInjected += o.FaultsInjected
	b.Completed = b.Completed && o.Completed
	b.CkptCount += o.CkptCount
	b.CkptBytes += o.CkptBytes
	for l := range o.CkptCountAt {
		b.CkptCountAt[l] += o.CkptCountAt[l]
		b.CkptBytesAt[l] += o.CkptBytesAt[l]
	}
	b.CkptAvoided += o.CkptAvoided
	b.Messages += o.Messages
	b.NetBytes += o.NetBytes
	b.Respawns += o.Respawns
	b.SpawnTime += o.SpawnTime
	b.LeakedEvents += o.LeakedEvents
}

// div turns a sum over n reps into their mean, which describes one run:
// times divide, and counts round half up so they stay integers.
func (b *Breakdown) div(n int) {
	t := simnet.Time(n)
	b.Total /= t
	b.App /= t
	b.Ckpt /= t
	b.Recovery /= t
	b.DetectLatency /= t
	b.SpawnTime /= t
	count := func(v int64) int64 { return (v + int64(n)/2) / int64(n) }
	for _, v := range []*int{&b.DetectedFailures, &b.Recoveries, &b.FaultsInjected,
		&b.CkptCount, &b.CkptAvoided, &b.Respawns, &b.LeakedEvents} {
		*v = int(count(int64(*v)))
	}
	for _, v := range []*int64{&b.CkptBytes, &b.Messages, &b.NetBytes} {
		*v = count(*v)
	}
	for l := range b.CkptCountAt {
		b.CkptCountAt[l] = int(count(int64(b.CkptCountAt[l])))
		b.CkptBytesAt[l] = count(b.CkptBytesAt[l])
	}
}

// Progress observes a sweep as it runs: invoked once per completed cell
// with the completion count so far, the total cell count, the cell's
// result, and its host wall-clock duration. Calls are serialized (safe to
// write a status line from) but arrive in completion order, not config
// order. Wall-clock is host time — a throughput diagnostic, never part of
// the measured (virtual-time) results, so progress consumers must keep it
// off the deterministic output streams.
type Progress func(done, total int, r Result, wall time.Duration)

// Cells executes configurations on the runner's worker pool with reps
// repetitions each (fewer than one means one) — the one sweep executor:
// campaigns, figures, ratios and the verification matrix all run their
// cells here. A worker takes one configuration and walks its reps (see
// cell); its row is the reps' mean Breakdown. The result slice is ordered
// like cfgs regardless of the worker count or completion order, so sweep
// output is deterministic. An error stops new configurations from starting
// (in-flight ones finish); the successful prefix — every configuration
// before the lowest-indexed failing one — is returned with that error.
//
// With a store attached, each rep is looked up by its CellKey before
// simulating: a hit reuses the cached Breakdown (byte-identical results,
// zero simulation), a miss runs the rep and stores it back. Cache traffic
// is invisible on the deterministic output streams — only the store's
// Stats and the side channels see it.
//
// A configuration whose simulation panics (scheduler context: a protocol
// bug, an application's scheduled callback) is a failed cell like any
// other, with the error "cell panicked: <value>" — a sweep or a service
// outlives it.
func (rn CampaignRunner) Cells(cfgs []Config, reps int) ([]Result, error) {
	reps = max(reps, 1)
	workers := rn.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	rn.Meter.AddTotal(len(cfgs))
	results := make([]Result, len(cfgs))
	next := make(chan int)
	// Fail fast: failedAt is the lowest failing index so far (len(cfgs)
	// while none) and firstErr its error. Cells above it are skipped; cells
	// below it were handed out earlier and still run, so the prefix before
	// it is always whole.
	var failedAt atomic.Int64
	failedAt.Store(int64(len(cfgs)))
	var firstErr error
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes Progress calls and failure bookkeeping
	completed := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if int64(i) > failedAt.Load() {
					continue
				}
				cfg := cfgs[i]
				if rn.Log.Enabled() {
					cfg.Log = rn.Log.With("cell", i)
					cfg.Log.HostEvent("cell_start", "app", cfg.App,
						"design", cfg.Design.ShortName(), "procs", cfg.Procs,
						"input", cfg.Input.String(), "faults", cfg.FaultCount())
				}
				start := time.Now()
				if rn.Meter.Enabled() {
					cfg.Metrics = obs.New()
				}
				bd, cached, err := rn.cell(cfg, reps)
				if err != nil {
					if rn.Log.Enabled() {
						cfg.Log.HostEvent("cell_finish", "app", cfg.App,
							"design", cfg.Design.ShortName(), "procs", cfg.Procs,
							"wall_ms", time.Since(start).Milliseconds(),
							"error", err.Error(), "cached", false)
					}
					mu.Lock()
					if int64(i) < failedAt.Load() {
						failedAt.Store(int64(i))
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				rn.Meter.CellDone(cfg.Design.ShortName(), cfg.Metrics)
				if rn.Log.Enabled() {
					cfg.Log.HostEvent("cell_finish", "app", cfg.App,
						"design", cfg.Design.ShortName(), "procs", cfg.Procs,
						"wall_ms", time.Since(start).Milliseconds(),
						"total_s", bd.Total.Seconds(), "recoveries", bd.Recoveries,
						"cached", cached)
				}
				res := Result{Config: cfgs[i], Breakdown: bd}
				results[i] = res
				if rn.Progress != nil {
					mu.Lock()
					completed++
					rn.Progress(completed, len(cfgs), res, time.Since(start))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results[:failedAt.Load()], firstErr
}

// cell runs reps repetitions of cfg and returns their mean Breakdown, and
// whether no rep simulated. Each rep is one cell, repConfig(cfg, r): with a
// store it is looked up first, and on a miss simulated and stored back. A
// rep whose key equals rep 1's — every rep of a failure-free or explicitly
// scheduled cell — reuses rep 1's Breakdown with no store traffic. With
// one rep and no store no key is computed. A key error (an invalid detector
// or policy) falls through to the run, which reports it properly; a
// corrupt or stale cached value counts as a miss and is re-run.
//
// Each simulated rep runs and reconciles against its own fresh registry,
// which is then merged into cfg.Metrics, so a registry (unlike a trace
// recorder) may serve a multi-rep cell and counts the reps that simulated.
func (rn CampaignRunner) cell(cfg Config, reps int) (avg Breakdown, cached bool, err error) {
	if cfg.Trace != nil && reps > 1 {
		return Breakdown{}, false, fmt.Errorf("core: one trace recorder serves one run; tracing with %d repetitions would interleave their timelines (trace a single rep instead)", reps)
	}
	defer func() {
		if v := recover(); v != nil {
			avg, cached, err = Breakdown{}, false, fmt.Errorf("cell panicked: %v", v)
		}
	}()
	cached = true
	var key1 string
	var bd1 Breakdown
	for r := 1; r <= reps; r++ {
		c := repConfig(cfg, r)
		key, hit := "", false
		var bd Breakdown
		if reps > 1 || rn.Store.Enabled() {
			key, _ = CellKey(cfg, r)
		}
		if r > 1 && key != "" && key == key1 {
			bd, hit = bd1, true
		} else if key != "" && rn.Store.Enabled() {
			hit = rn.Store.Load(key, func(b []byte) (err error) {
				bd, err = decodeCachedCell(b)
				return err
			})
		}
		if !hit {
			cached = false
			if cfg.Metrics.Enabled() {
				c.Metrics = obs.New()
			}
			bd, err = Run(c)
			cfg.Metrics.Merge(c.Metrics)
			if err != nil {
				return Breakdown{}, false, fmt.Errorf("%s rep %d: %w", Result{Config: c}.Key(), r, err)
			}
			if key != "" && rn.Store.Enabled() {
				// Best-effort: a failed write only costs a future
				// rerun, never the sweep.
				_ = rn.Store.Put(key, encodeCachedCell(bd))
			}
		}
		if r == 1 {
			key1, bd1, avg = key, bd, bd
		} else {
			avg.add(bd)
		}
	}
	avg.div(reps)
	return avg, cached, nil
}

// figures is the paper's evaluation (§V), one row per figure: its sweep
// (scaling sizes at the Small input, or input sizes at the default scale),
// the failures each run recovers from, and whether it plots the recovery
// time alone. Figures 7 and 10 replot the runs of 6 and 9.
var figures = map[int]struct {
	title                    string
	faults                   int
	scaleSweep, recoveryOnly bool
}{
	5:  {"Execution time breakdown in different scaling sizes, no process failures (Fig. 5)", 0, true, false},
	6:  {"Execution time breakdown recovering from a process failure, scaling sizes (Fig. 6)", 1, true, false},
	7:  {"Recovery time for different scaling sizes (Fig. 7)", 1, true, true},
	8:  {"Execution time breakdown in different input problem sizes, no failures (Fig. 8)", 0, false, false},
	9:  {"Execution time breakdown recovering from a process failure, input sizes (Fig. 9)", 1, false, false},
	10: {"Recovery time for different input problem sizes (Fig. 10)", 1, false, true},
}

// FigureRequest is the sweep behind one of the paper's figures (5-10) over
// all of Table I; callers narrow it like any other request.
func FigureRequest(fig int) (CampaignRequest, error) {
	f, ok := figures[fig]
	if !ok {
		return CampaignRequest{}, fmt.Errorf("core: figure %d is not an evaluation figure (5-10)", fig)
	}
	req := CampaignRequest{MinFaults: f.faults, MaxFaults: f.faults}
	if f.scaleSweep {
		req.Scales = tableIScales()
	} else {
		req.Inputs = InputSizes()
	}
	return req, nil
}

// WriteFigure renders results in the layout of the paper's figure: one
// block per application, one row per (x-axis value, design).
func WriteFigure(w io.Writer, fig int, results []Result) {
	f := figures[fig]
	fmt.Fprintf(w, "== %s ==\n", f.title)
	xLabel := "input"
	if f.scaleSweep {
		xLabel = "procs"
	}
	byApp := map[string][]Result{}
	var apps []string
	for _, r := range results {
		if _, ok := byApp[r.Config.App]; !ok {
			apps = append(apps, r.Config.App)
		}
		byApp[r.Config.App] = append(byApp[r.Config.App], r)
	}
	sort.Strings(apps)
	for _, app := range apps {
		fmt.Fprintf(w, "\n-- %s --\n", app)
		if f.recoveryOnly {
			fmt.Fprintf(w, "%-8s %-12s %10s\n", xLabel, "design", "recovery(s)")
		} else {
			fmt.Fprintf(w, "%-8s %-12s %12s %12s %12s %12s\n",
				xLabel, "design", "app(s)", "ckpt(s)", "recovery(s)", "total(s)")
		}
		for _, r := range byApp[app] {
			x := fmt.Sprintf("%d", r.Config.Procs)
			if !f.scaleSweep {
				x = r.Config.Input.String()
			}
			bd := r.Breakdown
			if f.recoveryOnly {
				fmt.Fprintf(w, "%-8s %-12s %10.3f\n", x, r.Config.Design, bd.Recovery.Seconds())
			} else {
				fmt.Fprintf(w, "%-8s %-12s %12.3f %12.3f %12.3f %12.3f\n",
					x, r.Config.Design, bd.App.Seconds(), bd.Ckpt.Seconds(),
					bd.Recovery.Seconds(), bd.Total.Seconds())
			}
		}
	}
	fmt.Fprintln(w)
}

// WriteCSV emits results as CSV for external plotting. The faults column
// is the scheduled failure count of the configuration (campaign sweeps
// vary it; the paper's figures have it at 0 or 1); ckpt_policy, rfactor,
// and hot_spare label the placement, replication, and respawn axes; the
// ckpt_l* columns split the checkpoint count by FTI level, ckpt_avoided
// counts the checkpoints the placement policy skipped relative to fixed
// placement, and respawns/spawn_s report the hot spares that went live
// and their summed spawn latency.
func WriteCSV(w io.Writer, results []Result) {
	fmt.Fprintln(w, "app,design,procs,input,faults,detector,ckpt_policy,rfactor,hot_spare,app_s,ckpt_s,recovery_s,detect_s,total_s,recoveries,respawns,spawn_s,ckpts,ckpt_l1,ckpt_l2,ckpt_l3,ckpt_l4,ckpt_avoided,messages,net_bytes")
	for _, r := range results {
		bd := r.Breakdown
		hs := 0
		if HotSpareOf(r.Config) {
			hs = 1
		}
		fmt.Fprintf(w, "%s,%s,%d,%s,%d,%s,%s,%g,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d\n",
			r.Config.App, r.Config.Design, r.Config.Procs, r.Config.Input,
			r.Config.FaultCount(), csvField(r.Config.Detector.String()),
			csvField(r.Config.CkptPolicy.String()), ReplicaFactorOf(r.Config), hs,
			bd.App.Seconds(), bd.Ckpt.Seconds(),
			bd.Recovery.Seconds(), bd.DetectLatency.Seconds(), bd.Total.Seconds(), bd.Recoveries,
			bd.Respawns, bd.SpawnTime.Seconds(),
			bd.CkptCount, bd.CkptCountAt[1], bd.CkptCountAt[2], bd.CkptCountAt[3], bd.CkptCountAt[4],
			bd.CkptAvoided, bd.Messages, bd.NetBytes)
	}
}

// csvField quotes a rendered label when it would otherwise split the row:
// detector and placement strings carry their tuning in parentheses with
// comma separators (e.g. "multi-level(s=10,l2=3,l4=10)").
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteTableI renders the paper's Table I along with the reproduction's
// scaled-down equivalents.
func WriteTableI(w io.Writer) {
	fmt.Fprintln(w, "== Table I: experimentation configuration (paper input -> scaled reproduction) ==")
	fmt.Fprintf(w, "%-10s %-8s %-26s %-28s %-10s %s\n",
		"app", "input", "paper parameters", "reproduction parameters", "bytes x", "procs")
	for _, e := range TableI() {
		repro := describeParams(e)
		procs := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(e.ProcCounts)), ","), "[]")
		fmt.Fprintf(w, "%-10s %-8s %-26s %-28s %-10.1f %s\n",
			e.App, e.Input, e.PaperInput, repro, e.BytesScale, procs)
	}
}

func describeParams(e TableIEntry) string {
	p := e.Params
	switch {
	case e.App == "LULESH":
		return fmt.Sprintf("-s %d, %d steps", p.S, p.MaxIter)
	case e.App == "miniVite":
		return fmt.Sprintf("-n %d, %d sweeps", p.NVerts, p.MaxIter)
	default:
		return fmt.Sprintf("%dx%dx%d, %d iters", p.NX, p.NY, p.NZ, p.MaxIter)
	}
}
