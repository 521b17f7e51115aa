package core

import (
	"fmt"
	"io"
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

// RunAveraged executes cfg reps times (distinct fault seeds when injection
// is on, mirroring the paper's five repetitions) and returns the mean
// breakdown plus the individual results. Every component — the times and
// the counts alike — is divided by reps, so the averaged breakdown
// describes one run (counts round half-up to the nearest integer).
func RunAveraged(cfg Config, reps int) (Breakdown, []Result, error) {
	if reps <= 0 {
		reps = 1
	}
	if cfg.Trace != nil && reps > 1 {
		return Breakdown{}, nil, fmt.Errorf("core: one trace recorder serves one run; tracing with %d repetitions would interleave their timelines (trace a single rep instead)", reps)
	}
	var acc Breakdown
	acc.Completed = true // AND over reps (Run errors on incompletion today)
	var results []Result
	for i := 0; i < reps; i++ {
		c := cfg
		c.FaultSeed = cfg.FaultSeed + int64(i)*1009
		// Each rep runs (and reconciles) against its own fresh registry,
		// which is then merged into the caller's — so a registry, unlike a
		// trace recorder, may serve a multi-rep cell.
		if cfg.Metrics.Enabled() {
			c.Metrics = obs.New()
		}
		bd, err := Run(c)
		if cfg.Metrics.Enabled() {
			cfg.Metrics.Merge(c.Metrics)
		}
		if err != nil {
			return Breakdown{}, results, fmt.Errorf("%s rep %d: %w", Result{Config: c}.Key(), i, err)
		}
		results = append(results, Result{Config: c, Breakdown: bd})
		acc.Completed = acc.Completed && bd.Completed
		acc.Total += bd.Total
		acc.App += bd.App
		acc.Ckpt += bd.Ckpt
		acc.Recovery += bd.Recovery
		acc.DetectLatency += bd.DetectLatency
		acc.DetectedFailures += bd.DetectedFailures
		acc.Recoveries += bd.Recoveries
		acc.FaultsInjected += bd.FaultsInjected
		acc.CkptCount += bd.CkptCount
		acc.CkptBytes += bd.CkptBytes
		for l := range bd.CkptCountAt {
			acc.CkptCountAt[l] += bd.CkptCountAt[l]
			acc.CkptBytesAt[l] += bd.CkptBytesAt[l]
		}
		acc.CkptAvoided += bd.CkptAvoided
		acc.Messages += bd.Messages
		acc.NetBytes += bd.NetBytes
		acc.Respawns += bd.Respawns
		acc.SpawnTime += bd.SpawnTime
		acc.LeakedEvents += bd.LeakedEvents
	}
	n := simnet.Time(reps)
	acc.Total /= n
	acc.App /= n
	acc.Ckpt /= n
	acc.Recovery /= n
	acc.DetectLatency /= n
	acc.DetectedFailures = int(divRound(int64(acc.DetectedFailures), reps))
	acc.Recoveries = int(divRound(int64(acc.Recoveries), reps))
	acc.FaultsInjected = int(divRound(int64(acc.FaultsInjected), reps))
	acc.CkptCount = int(divRound(int64(acc.CkptCount), reps))
	acc.CkptBytes = divRound(acc.CkptBytes, reps)
	for l := range acc.CkptCountAt {
		acc.CkptCountAt[l] = int(divRound(int64(acc.CkptCountAt[l]), reps))
		acc.CkptBytesAt[l] = divRound(acc.CkptBytesAt[l], reps)
	}
	acc.CkptAvoided = int(divRound(int64(acc.CkptAvoided), reps))
	acc.Messages = divRound(acc.Messages, reps)
	acc.NetBytes = divRound(acc.NetBytes, reps)
	acc.Respawns = int(divRound(int64(acc.Respawns), reps))
	acc.SpawnTime /= n
	acc.LeakedEvents = int(divRound(int64(acc.LeakedEvents), reps))
	acc.Signature = results[0].Breakdown.Signature
	return acc, results, nil
}

// divRound divides a summed count by the repetition count, rounding half
// up, so averaged breakdowns keep integer-typed fields.
func divRound(sum int64, reps int) int64 {
	return (sum + int64(reps)/2) / int64(reps)
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
// repetitions each — the one sweep executor: campaigns, figures, ratios and
// the verification matrix all run their cells here. The result slice is
// ordered like cfgs regardless of the worker count or completion order, so
// sweep output is deterministic. An error stops new runs from starting
// (in-flight ones finish); the successful prefix — every configuration
// before the lowest-indexed failing one — is returned with that error.
//
// With a store attached, each cell is looked up by its CellKey before
// simulating: a hit reuses the cached Breakdown (byte-identical results,
// zero simulation), a miss runs the cell and stores it back. Cache traffic
// is invisible on the deterministic output streams — only the store's
// Stats and the side channels see it.
//
// A cell whose simulation panics (scheduler context: a protocol bug, an
// application's scheduled callback) is a failed cell like any other, with
// the error "cell panicked: <value>" — a sweep or a service outlives it.
func (rn CampaignRunner) Cells(cfgs []Config, reps int) ([]Result, error) {
	simulate := func(cfg Config) (bd Breakdown, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("cell panicked: %v", v)
			}
		}()
		bd, _, err = RunAveraged(cfg, reps)
		return bd, err
	}
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
				// Consult the store first: a hit skips the simulation
				// entirely. A key error (invalid detector/policy) falls
				// through to the run, which reports it properly; a corrupt
				// or stale cached value counts as a miss and is re-run.
				key := ""
				cached := false
				var bd Breakdown
				if rn.Store.Enabled() {
					if k, kerr := CellKey(cfg, reps); kerr == nil {
						key = k
						if raw, ok := rn.Store.Get(key); ok {
							if dec, derr := decodeCachedCell(raw); derr == nil {
								bd, cached = dec, true
							}
						}
					}
				}
				if !cached {
					if rn.Meter.Enabled() {
						cfg.Metrics = obs.New()
					}
					var err error
					bd, err = simulate(cfg)
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
					if key != "" {
						if enc, eerr := encodeCachedCell(bd); eerr == nil {
							// Best-effort: a failed write only costs a
							// future rerun, never the sweep.
							_ = rn.Store.Put(key, enc)
						}
					}
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
