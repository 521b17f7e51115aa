// Command matchsuite regenerates the paper's evaluation: Table I and every
// figure (5-10), plus the §V-C headline ratios and a correctness
// verification pass.
//
// Usage:
//
//	matchsuite -list                 # print Table I
//	matchsuite -fig 7                # regenerate one figure
//	matchsuite -all -reps 5          # the full paper evaluation
//	matchsuite -ratios               # headline ratios from Fig. 6 data
//	matchsuite -verify               # recovered-answer correctness matrix
//	matchsuite -csv out.csv -fig 5   # raw series for plotting
//	matchsuite -campaign -max-faults 3 -j 8   # multi-failure sweep, k=0..3
//	matchsuite -campaign -detector ring -hb-period 50ms,150ms   # detection-axis sweep
//	matchsuite -campaign -ckpt-policy fixed,replica-aware,adaptive   # placement-axis sweep
//	matchsuite -replica-sweep 0,0.25,0.5,1.0   # PartRePer overhead-vs-ReplicaFactor curve
//	matchsuite -hot-spare-sweep -max-faults 2   # respawn axis: crossover per hot-spare variant
//	matchsuite -all -cache ~/.cache/match   # memoize cells; warm reruns simulate nothing
//	matchsuite -fig 6 -server http://host:8080   # run the sweep on a matchserve instance
//
// Every mode is core.CampaignRequests — a figure, -ratios and -campaign one
// each, -verify two: the failure-free references and the single-failure
// cells — run in-process or on a matchserve instance (-server, -verify
// included) and rendered locally either way; every request runs its cells
// through one core.CampaignRunner, so -j, -progress, -log, -pprof-http,
// -cache and -cache-entries apply to all.
// Cells are memoized by content even without -cache (in memory, for the
// invocation): -all enumerates 480 cells of which 272 are distinct — Figs. 7
// and 10 replot 6 and 9, and the Small-input cells of Figs. 8/9 are the
// 64-process cells of 5/6 — and simulates only those.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"match/cmd/internal/axisflags"
	"match/cmd/internal/serveapi"
	"match/internal/core"
	"match/internal/obs"
	"match/internal/store"
)

func main() {
	list := flag.Bool("list", false, "print Table I and exit")
	fig := flag.Int("fig", 0, "regenerate one figure (5-10)")
	all := flag.Bool("all", false, "regenerate every figure")
	ratios := flag.Bool("ratios", false, "compute §V-C headline ratios (runs Fig. 6 matrix)")
	verify := flag.Bool("verify", false, "verify recovered answers equal failure-free answers")
	campaign := flag.Bool("campaign", false, "run the multi-failure campaign sweep (k = 0..-max-faults failures per run)")
	maxFaults := flag.Int("max-faults", 3, "campaign mode: largest failure count per run")
	procs := flag.Int("procs", 0, "campaign mode: process count (default 64)")
	appsFlag := flag.String("apps", "", "comma-separated app filter")
	scalesFlag := flag.String("scales", "", "comma-separated process-count filter")
	reps := flag.Int("reps", 1, "repetitions per configuration (paper: 5)")
	workers := flag.Int("j", 0, "sweep worker pool size (default GOMAXPROCS); result order is unaffected")
	csvPath := flag.String("csv", "", "also write raw results as CSV")
	seed := flag.Int64("seed", 1, "base fault seed")
	axes := axisflags.Register(flag.CommandLine, false)
	replicaSweep := flag.String("replica-sweep", "", "campaign the replica design over these ReplicaFactors (e.g. 0,0.25,0.5,1.0; 0 = replication off) and print the combined overhead-vs-ReplicaFactor curve")
	hotSpareSweep := flag.Bool("hot-spare-sweep", false, "campaign the replica design with hot-spare respawn off and on and print the Replica-vs-Reinit crossover per variant")
	modelIngress := flag.Bool("model-ingress", false, "serialize receiver NICs too (richer network model; shifts calibrated timings)")
	serverURL := flag.String("server", "", "submit the sweep (-fig/-all/-ratios/-verify/-campaign) to a matchserve instance at this base URL instead of simulating in-process; output stays byte-identical")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty: in-memory, this invocation only); cached cells are reused, simulated cells are stored")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory cache capacity in cells (0 = default)")
	progress := flag.Bool("progress", true, "report per-cell completion, wall-clock, and throughput on stderr while a sweep runs (stdout stays byte-stable)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile at sweep end to this file")
	pprofHTTP := flag.String("pprof-http", "", "serve net/http/pprof plus live /metrics (OpenMetrics) and /status (JSON) on this address (e.g. localhost:6060)")
	logDest := flag.String("log", "", `write structured JSON lifecycle events (cell start/finish, inject, detect, failover, ...) to this destination: "stderr" or a file path`)
	flag.Parse()

	if *maxFaults < 0 {
		fmt.Fprintf(os.Stderr, "-max-faults %d invalid (want >= 0; 0 runs the failure-free baseline only)\n", *maxFaults)
		os.Exit(2)
	}
	// A ReplicaFactor sweep is a campaign over the replication axis.
	var factors []float64
	if *replicaSweep != "" {
		for _, s := range strings.Split(*replicaSweep, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			// The negated comparison also rejects NaN, which would sail
			// through "f < 0 || f > 1".
			if err != nil || !(f >= 0 && f <= 1) {
				fmt.Fprintf(os.Stderr, "bad -replica-sweep entry %q (want factors in [0,1])\n", s)
				os.Exit(2)
			}
			factors = append(factors, f)
		}
		*campaign = true
	}
	// The hot-spare sweep is a campaign over the respawn axis; it needs
	// the unreplicated designs as comparison, so it cannot combine with
	// -replica-sweep (which restricts the matrix to the replica design).
	if *hotSpareSweep {
		if *replicaSweep != "" {
			fmt.Fprintln(os.Stderr, "-hot-spare-sweep and -replica-sweep are mutually exclusive")
			os.Exit(2)
		}
		*campaign = true
	}
	if *campaign {
		if *fig != 0 || *all || *ratios || *verify || *list {
			fmt.Fprintln(os.Stderr, "-campaign/-replica-sweep are exclusive with -fig/-all/-ratios/-verify/-list")
			os.Exit(2)
		}
		if *scalesFlag != "" {
			fmt.Fprintln(os.Stderr, "-campaign runs at a single scale: use -procs instead of -scales")
			os.Exit(2)
		}
	} else if *procs != 0 {
		fmt.Fprintln(os.Stderr, "-procs only applies to -campaign; figure sweeps take -scales")
		os.Exit(2)
	}
	if *serverURL != "" && *cacheDir != "" {
		fmt.Fprintln(os.Stderr, "-server and -cache are mutually exclusive: a remote campaign uses the server's cache")
		os.Exit(2)
	}
	// The detection and placement sweep lists (one entry outside -campaign).
	detectors, err := axes.Detectors()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	policies, err := axes.Policies(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(detectors) > 1 && !*campaign {
		fmt.Fprintln(os.Stderr, "multiple -hb-period values sweep the detection axis; that needs -campaign")
		os.Exit(2)
	}

	if len(policies) > 1 && !*campaign {
		fmt.Fprintln(os.Stderr, "multiple -ckpt-policy values sweep the placement axis; that needs -campaign")
		os.Exit(2)
	}

	// Profiling, progress, metering, and the event log are pure
	// observability: they write to stderr, files, or HTTP only, so the
	// deterministic stdout/CSV streams stay byte-stable. The sweep meter —
	// and with it the per-cell metric registries and their reconciliation
	// self-checks — is armed only when an HTTP address serves it, keeping
	// the default sweep's hot path at the one-branch metrics-off cost.
	var meter *obs.SweepMeter
	if *pprofHTTP != "" {
		meter = obs.NewSweepMeter()
		http.Handle("/metrics", meter.MetricsHandler())
		http.Handle("/status", meter.StatusHandler())
	}
	elog, logFile, err := obs.OpenLog(*logDest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "log:", err)
		os.Exit(1)
	}
	defer logFile.Close()
	if *logDest == "stderr" {
		// Structured cell_finish events carry what the ad-hoc progress
		// line reports; don't interleave both on stderr.
		*progress = false
	}
	st, err := store.Open(*cacheDir, *cacheEntries)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stopProf := startProfiling(*cpuprofile, *memprofile, *pprofHTTP)
	fail := func(status int, err error) {
		fmt.Fprintln(os.Stderr, err)
		stopProf()
		os.Exit(status)
	}
	sweepStart := time.Now()
	// done/total count the current sweep; cellsDone and cellWall run over
	// every sweep of the invocation (-all runs six), like sweepStart.
	cellsDone := 0
	var cellWall time.Duration
	prog := func(done, total int, r core.Result, wall time.Duration) {
		cellsDone++
		cellWall += wall
		if *progress {
			rate := float64(cellsDone) / time.Since(sweepStart).Seconds()
			fmt.Fprintf(os.Stderr, "[%d/%d] %s faults=%d  %6.2fs wall  (%.2f cells/s)\n",
				done, total, r.Key(), r.Config.FaultCount(), wall.Seconds(), rate)
		}
	}

	// The one execution environment every mode's cells run in.
	rn := core.CampaignRunner{Workers: *workers, Progress: prog, Meter: meter, Log: elog, Store: st}

	// base is what the flags say about every sweep; a mode adds its axes.
	base := core.CampaignRequest{Reps: *reps, Seed: *seed, Detectors: detectors,
		Policies: policies, ModelIngress: *modelIngress}
	if *appsFlag != "" {
		base.Apps = strings.Split(*appsFlag, ",")
	}
	var scales []int
	if *scalesFlag != "" {
		for _, s := range strings.Split(*scalesFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bad -scales:", err)
				os.Exit(2)
			}
			scales = append(scales, v)
		}
	}
	// run is the one place a sweep executes. Local and remote runs return
	// the same raw results and everything below renders from them, so a
	// -server run is byte-identical to the in-process run of the request.
	// A failed cell ends the sweep: the results before it (none from a
	// server) come back with the error.
	run := func(req core.CampaignRequest) ([]core.Result, error) {
		if err := req.Validate(); err != nil {
			fail(2, err)
		}
		if *serverURL != "" {
			return runRemoteCampaign(*serverURL, req, *progress)
		}
		return rn.Run(req, nil)
	}
	// Each figure's output is self-contained; the cells it shares with an
	// earlier figure come out of the runner's store.
	figure := func(n int) []core.Result {
		req, err := figureRequest(n, base, scales)
		if err != nil {
			fail(1, err)
		}
		results, err := run(req)
		if err != nil {
			fail(1, err)
		}
		core.WriteFigure(os.Stdout, n, results)
		return results
	}

	switch {
	case *list:
		core.WriteTableI(os.Stdout)
	case *campaign:
		req := base
		req.Procs, req.MaxFaults, req.ReplicaFactors = *procs, *maxFaults, factors
		if *hotSpareSweep {
			req.HotSpares = []bool{false, true}
		}
		results, err := run(req)
		if err != nil {
			fail(1, err)
		}
		core.WriteCampaign(os.Stdout, results)
		if len(detectors) > 0 {
			core.WriteDetectionTradeoff(os.Stdout, core.ComputeDetectionTradeoff(results))
		}
		switch {
		case len(factors) > 0:
			core.WriteReplicaTradeoff(os.Stdout, core.ComputeReplicaTradeoff(results))
		case *hotSpareSweep:
			off, on, swept := core.HotSpareCrossovers(results)
			if swept {
				fmt.Println("-- hot-spare off --")
				off.Write(os.Stdout)
				fmt.Println("-- hot-spare on --")
				on.Write(os.Stdout)
			} else {
				core.ComputeCrossover(results).Write(os.Stdout)
			}
		default:
			core.ComputeCrossover(results).Write(os.Stdout)
		}
		writeCSV(*csvPath, results)
	case *verify:
		if err := runVerify(os.Stdout, run, base); err != nil {
			fail(1, err)
		}
	case *ratios:
		results := figure(6)
		core.ComputeRatios(results).Write(os.Stdout)
		writeCSV(*csvPath, results)
	case *all:
		var everything []core.Result
		for _, f := range []int{5, 6, 7, 8, 9, 10} {
			everything = append(everything, figure(f)...)
		}
		core.ComputeRatios(everything).Write(os.Stdout)
		writeCSV(*csvPath, everything)
	case *fig != 0:
		writeCSV(*csvPath, figure(*fig))
	default:
		flag.Usage()
		os.Exit(2)
	}
	// Final sweep summary (stderr side channel, like progress): cumulative
	// per-cell wall is the worker-pool aggregate, mean cells/sec is against
	// host wall-clock, and peak heap is the runtime's high-water mark.
	if cellsDone > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		elapsed := time.Since(sweepStart)
		fmt.Fprintf(os.Stderr, "sweep summary: %d cells, %.2fs wall (%.2fs cumulative cell time), %.2f cells/s mean, peak heap %.1f MiB\n",
			cellsDone, elapsed.Seconds(), cellWall.Seconds(),
			float64(cellsDone)/elapsed.Seconds(), float64(ms.HeapSys)/(1<<20))
		cs := st.Stats()
		fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d puts=%d evictions=%d (%.0f%% hit rate)\n",
			cs.Hits, cs.Misses, cs.Puts, cs.Evictions, 100*cs.HitRate())
	}
	stopProf()
}

// figureRequest is figure n's sweep narrowed by the command line: base's
// apps, repetitions, seed and ablation axes, and the -scales list — which
// replaces the scaling sweep of Figs. 5-7, and moves the single scale
// Figs. 8-10 run at when it names exactly one.
func figureRequest(n int, base core.CampaignRequest, scales []int) (core.CampaignRequest, error) {
	fig, err := core.FigureRequest(n)
	req := base
	req.Scales, req.Inputs, req.MinFaults, req.MaxFaults = fig.Scales, fig.Inputs, fig.MinFaults, fig.MaxFaults
	if len(fig.Scales) > 0 && len(scales) > 0 {
		req.Scales = scales
	} else if len(scales) == 1 {
		req.Procs = scales[0]
	}
	return req, err
}

// runRemoteCampaign submits the request to a matchserve instance, polls it
// to completion (progress on stderr, like a local sweep), and returns the
// raw results for the caller to render through the local code paths.
func runRemoteCampaign(base string, req core.CampaignRequest, progress bool) ([]core.Result, error) {
	base = strings.TrimSuffix(base, "/")
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var st serveapi.Status
	if err := decodeRemote(resp, &st); err != nil {
		return nil, err
	}
	if progress {
		fmt.Fprintf(os.Stderr, "remote campaign %.12s: %d cells on %s (%s)\n",
			st.ID, st.CellsTotal, base, st.State)
	}
	lastDone := -1
	for st.State != "done" && st.State != "failed" {
		time.Sleep(250 * time.Millisecond)
		resp, err := http.Get(base + "/campaigns/" + st.ID)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		if err := decodeRemote(resp, &st); err != nil {
			return nil, err
		}
		if progress && st.CellsDone != lastDone {
			lastDone = st.CellsDone
			fmt.Fprintf(os.Stderr, "[%d/%d] remote\n", st.CellsDone, st.CellsTotal)
		}
	}
	if st.State == "failed" {
		return nil, fmt.Errorf("remote campaign failed: %s", st.Error)
	}
	resp, err = http.Get(base + st.ResultsURL + "?format=json")
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var results []core.Result
	if err := decodeRemote(resp, &results); err != nil {
		return nil, err
	}
	return results, nil
}

// decodeRemote decodes a matchserve JSON response, turning error statuses
// into errors carrying the server's message.
func decodeRemote(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// startProfiling arms the requested host-side profilers and returns the
// teardown that flushes them; every exit path of a profiled sweep must run
// it (os.Exit skips defers), or the CPU profile ends up truncated.
func startProfiling(cpu, mem, httpAddr string) func() {
	var stops []func()
	if httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof-http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: live profiles at http://%s/debug/pprof/\n", httpAddr)
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		})
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}
}

func writeCSV(path string, results []core.Result) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		os.Exit(1)
	}
	defer f.Close()
	core.WriteCSV(f, results)
}

// verifyRequests are the two sweeps -verify runs under the flags' base, at
// the default scale: per app, the failure-free reference on reinit, and one
// single-failure cell per design.
func verifyRequests(base core.CampaignRequest) (ref, faulty core.CampaignRequest) {
	ref, faulty = base, base
	ref.Designs, ref.MaxFaults = []core.Design{core.ReinitFTI}, 0
	faulty.MinFaults, faulty.MaxFaults = 1, 1
	return ref, faulty
}

// runVerify checks that every faulty cell of verifyRequests fires its fault
// and recovers the answer of its app's failure-free reference, writing the
// verdicts to w in sweep order once both sweeps have run. On a failed
// faulty cell the verdicts of the cells before it are still written.
func runVerify(w io.Writer, run func(core.CampaignRequest) ([]core.Result, error), base core.CampaignRequest) error {
	refReq, faultyReq := verifyRequests(base)
	refs, err := run(refReq)
	if err != nil {
		return err
	}
	ref := map[string]core.Result{}
	for _, r := range refs {
		ref[r.Config.App] = r
	}
	results, err := run(faultyReq)
	fmt.Fprintln(w, "== Recovery correctness verification ==")
	for _, r := range results {
		status, verr := core.Verdict(ref[r.Config.App], r)
		fmt.Fprintf(w, "  %-10s %-12s recoveries=%d  %s\n", r.Config.App, r.Config.Design, r.Breakdown.Recoveries, status)
		if verr != nil {
			return verr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "all designs recover to the failure-free answer")
	return nil
}
