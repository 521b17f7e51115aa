package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// A/A mode: the same code measured twice. Two sets of n runs per workload,
// interleaved (A1 B1 A2 B2 ...) so that drift in the host hits both alike,
// each run a child process of this binary with a seed of its own. For every
// end-to-end metric it prints both medians, each set's quartile spread and
// a verdict against the bound in BENCHMARK.json: the spread must stay
// within the bound, and B's median must not be worse than A's by more than
// the bound. That is the test the benchmark itself has to pass before any
// change can be judged with it.

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// childRun runs one workload in a child process and returns its metrics.
func childRun(workload string, seed int64, seconds float64) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res struct {
		Correct bool                   `json:"correct"`
		Failed  int                    `json:"failed"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d ops failed", workload, seed, res.Failed)
	}
	out := map[string]float64{}
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out, nil
}

// runAA reports whether every metric of every workload passed.
func runAA(n int, only string, opts options) bool {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fatal("bench: -aa needs the bounds: %v", err)
	}
	pass := true
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		a, b := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for _, set := range []map[string][]float64{a, b} {
				m, err := childRun(w.name, opts.seed+int64(i), opts.seconds)
				if err != nil {
					fatal("bench: %v", err)
				}
				for name, v := range m {
					set[name] = append(set[name], v)
				}
			}
		}
		fmt.Printf("\n%s  (2 x %d runs, seeds %d..%d, %g s each)\n", w.name, n, opts.seed, opts.seed+int64(n)-1, opts.seconds)
		fmt.Printf("  %-13s %12s %12s %8s %9s %9s %7s  %s\n", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			ma, mb := median(a[m.Name]), median(b[m.Name])
			worse := (mb - ma) / ma // how much worse B is than A
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a[m.Name]), quartileSpread(b[m.Name])
			verdict := "pass"
			switch {
			case worse > m.Bound:
				verdict = "FAIL: medians apart"
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "FAIL: spread over bound"
			case m.Name != "setup_s" && (sa > m.Bound/3 || sb > m.Bound/3):
				verdict = "pass (spread over a third of the bound)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				pass = false
			}
			fmt.Printf("  %-13s %12.5g %12.5g %+7.1f%% %8.1f%% %8.1f%% %6.0f%%  %s\n",
				m.Name, ma, mb, (mb-ma)/ma*100, sa*100, sb*100, m.Bound*100, verdict)
		}
	}
	return pass
}
