// Command bench is the host-time benchmark of the MATCH simulator: five
// workloads, five end-to-end metrics, per-layer probes and a traced run.
// It measures every layer from outside, through public functions and the
// matchserve binary, and changes no program code. bench_test.go,
// cmd/matchbench and BENCH_baseline.json gate virtual-time figures; this
// gates the host time it takes to produce them. See README.md.
//
// Run it through run.sh (the command in BENCHMARK.json), from the root of
// the checkout:
//
//	bash bench/run.sh --workload campaign-comm --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh --workload serve-warm --seed 7 --seconds 15 --trace 1
//	bash bench/run.sh --probes
//	bash bench/run.sh --aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 7, "the only input: fault seeds and campaign identities derive from it")
	seconds := flag.Float64("seconds", 15, "how long the timed phase measures (whole rounds, at least each workload's minimum)")
	traced := flag.Int("trace", 0, "1: run with tracing on and report the per-layer metrics instead of the end-to-end ones")
	probes := flag.Bool("probes", false, "run the layer probes alone (median of 5) and print them")
	aa := flag.Int("aa", 0, "A/A mode: two interleaved sets of N >= 5 runs per workload (or of -workload alone)")
	flag.Parse()

	if runtime.NumCPU() < 2 {
		// A serve workload needs a core for the client beside the server's.
		fatal("bench: refusing to run on %d CPU; the benchmark needs 2", runtime.NumCPU())
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traced != 0, outDir: os.Getenv("BENCH_OUT")}
	if opts.outDir == "" {
		fatal("bench: BENCH_OUT is not set; run the benchmark through bench/run.sh")
	}
	buildS, _ := strconv.ParseFloat(os.Getenv("BENCH_BUILD_S"), 64)

	switch {
	case *probes:
		printJSON(map[string]interface{}{"probes": metricValues(runProbes(opts.outDir, 5, 5), perLayerSpecs, false)})
	case *aa > 0:
		if *aa < 5 {
			fatal("bench: -aa wants at least 5 runs per set")
		}
		if !runAA(*aa, *name, opts) {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal("bench: unknown workload %q (valid: %s)", *name, strings.Join(workloadNames(), ", "))
		}
		out, err := runWorkload(w, opts)
		if err != nil {
			fatal("bench: %s: %v", w.name, err)
		}
		for _, n := range out.notes {
			fmt.Fprintln(os.Stderr, "bench: failed op:", n)
		}
		for i, r := range out.rounds {
			fmt.Fprintf(os.Stderr, "bench: round %d: %d ops in %.3f s (%.3f cpu s) traced=%v\n", i, r.ops, r.wall, r.cpu, r.traced)
		}
		// Information a reader wants but the result line has no key for.
		printJSON(map[string]interface{}{
			"workload": w.name, "seed": opts.seed, "traced": opts.trace,
			"ops": out.attempted, "ops_failed": out.failed, "rounds": len(out.rounds),
			"build_s": buildS, "setup_s_samples": out.setups, "virt_digest": out.virt,
		})
		metrics := metricValues(out.endToEnd(), endToEndSpecs, true)
		if opts.trace {
			metrics = metricValues(out.layer, perLayerSpecs, true)
		}
		// The result: the last line of standard output.
		printJSON(map[string]interface{}{
			"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
		})
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValues pairs measured values with the units of their specs. With
// all set, every spec is reported (0 when a metric does not apply to the
// workload); otherwise only what was measured.
func metricValues(values map[string]float64, specs []metricSpec, all bool) map[string]metricValue {
	out := map[string]metricValue{}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok && !all {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[s.name] = metricValue{v, s.unit}
	}
	return out
}

func printJSON(v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal("bench: %v", err)
	}
	fmt.Println(string(b))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// stopOnSignal runs cleanup and exits when the harness is interrupted, so
// that no matchserve child or scratch directory outlives it.
func stopOnSignal(cleanup func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		cleanup()
		os.Exit(130)
	}()
}
