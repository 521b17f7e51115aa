// Command matchbench turns `go test -bench` output into a benchmark-
// trajectory gate. The suite's benchmarks report figure-level series —
// per-design breakdown components, headline overhead ratios, ablation
// curves — as custom metrics in *virtual* seconds, so they are
// deterministic: any drift between two runs of the same code is exactly
// zero, and any drift against a checked-in baseline is a real change to
// the modeled figures, never machine noise. CI runs the benchmarks once
// per push, extracts the figures, and fails when any of them moved more
// than the tolerance from BENCH_baseline.json.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x -json . | matchbench -out BENCH_ci.json -baseline BENCH_baseline.json
//	go test -run='^$' -bench=. -benchtime=1x . | matchbench -out BENCH_baseline.json   # (re)seed the baseline
//
// Both the `go test -json` stream and raw benchmark output are accepted.
// Host-dependent metrics (ns/op, B/op, allocs/op, MB/s, cells/sec) are
// dropped by the extraction; everything else a benchmark reports is
// virtual-time derived and gated. Host time is measured in one place only,
// bench/ (see bench/README.md). Subset runs (a single benchmark against
// the full baseline) pass -allow-missing so absent figures warn instead of
// fail.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// hostUnits are benchmark metrics measured in host time or host memory —
// noisy by nature, excluded from the deterministic figure set.
var hostUnits = map[string]bool{
	"ns/op": true, "B/op": true, "allocs/op": true, "MB/s": true, "cells/sec": true,
}

// benchLine matches a benchmark result line: name, iteration count, then
// the metric list. The -<procs> GOMAXPROCS suffix is stripped from the
// name so the figure keys are machine-independent.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(-\d+)?\s+\d+\s+(.+)$`)

// testEvent is the subset of the `go test -json` stream we consume.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// baseline is the on-disk format: one flat, sorted map of figure keys
// ("Benchmark/metric") to their deterministic values.
type baseline struct {
	Comment string             `json:"comment,omitempty"`
	Figures map[string]float64 `json:"figures"`
}

func main() {
	in := flag.String("in", "-", `benchmark output to read ("-" = stdin); go test -json or raw`)
	out := flag.String("out", "", "write the extracted figures as JSON (e.g. BENCH_ci.json)")
	basePath := flag.String("baseline", "", "compare against this baseline JSON and fail on drift")
	tol := flag.Float64("tol", 0.10, "allowed relative drift per figure before failing")
	allowMissing := flag.Bool("allow-missing", false, "warn instead of fail on baseline figures absent from this run (for subset bench runs)")
	flag.Parse()
	if *tol < 0 {
		fmt.Fprintf(os.Stderr, "matchbench: -tol %g invalid (want >= 0)\n", *tol)
		os.Exit(2)
	}

	r := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	figures, err := extract(r)
	if err != nil {
		fatal(err)
	}
	if len(figures) == 0 {
		fatal(fmt.Errorf("no benchmark figures found in input (did the bench run emit custom metrics?)"))
	}
	fmt.Printf("matchbench: extracted %d figures from %d benchmarks\n", len(figures), benchCount(figures))

	if *out != "" {
		b, err := json.MarshalIndent(baseline{
			Comment: "deterministic figure-level benchmark metrics (virtual seconds/ratios); regenerate with: go test -run='^$' -bench=. -benchtime=1x . | go run ./cmd/matchbench -out BENCH_baseline.json",
			Figures: figures,
		}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("matchbench: wrote %s\n", *out)
	}
	if *basePath == "" {
		return
	}
	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *basePath, err))
	}
	if compare(base.Figures, figures, *tol, *allowMissing) != 0 {
		os.Exit(1)
	}
	fmt.Printf("matchbench: all %d baseline figures within %.0f%% of %s\n",
		len(base.Figures), 100**tol, *basePath)
}

// extract pulls the figure map out of benchmark output, accepting both the
// go test -json event stream and raw text. The event stream splits one
// result line across several output events (the name fragment carries no
// newline), so fragments are reassembled per test before parsing.
func extract(r io.Reader) (map[string]float64, error) {
	figures := map[string]float64{}
	partial := map[string]string{} // per (package, test): unterminated output fragment
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action != "output" {
					continue
				}
				key := ev.Package + "\x00" + ev.Test
				buf := partial[key] + ev.Output
				for {
					nl := strings.IndexByte(buf, '\n')
					if nl < 0 {
						break
					}
					parseLine(figures, buf[:nl])
					buf = buf[nl+1:]
				}
				partial[key] = buf
				continue
			}
		}
		parseLine(figures, line)
	}
	for _, rest := range partial {
		parseLine(figures, rest)
	}
	return figures, sc.Err()
}

// parseLine records the custom metrics of one benchmark result line,
// dropping the host units.
func parseLine(figures map[string]float64, line string) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return
	}
	name, rest := m[1], m[3]
	fields := strings.Fields(rest)
	for i := 0; i+1 < len(fields); i += 2 {
		unit := fields[i+1]
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		if hostUnits[unit] {
			continue
		}
		figures[name+"/"+unit] = v
	}
}

func benchCount(figures map[string]float64) int {
	seen := map[string]bool{}
	for k := range figures {
		seen[k[:strings.LastIndex(k, "/")]] = true
	}
	return len(seen)
}

// compare reports drift of current figures against the baseline. Missing
// figures fail (a benchmark or metric silently disappeared) unless
// allowMissing is set — subset runs legitimately skip most of the suite;
// new figures only warn (they need a baseline reseed, not a red build).
func compare(base, cur map[string]float64, tol float64, allowMissing bool) int {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failed := 0
	for _, k := range keys {
		want := base[k]
		got, ok := cur[k]
		if !ok {
			if allowMissing {
				continue
			}
			fmt.Printf("FAIL %-60s baseline %.6g, missing from this run\n", k, want)
			failed++
			continue
		}
		drift := relDrift(want, got)
		if drift > tol {
			fmt.Printf("FAIL %-60s baseline %.6g, got %.6g (drift %.1f%%)\n", k, want, got, 100*drift)
			failed++
		}
	}
	var news []string
	for k := range cur {
		if _, ok := base[k]; !ok {
			news = append(news, k)
		}
	}
	sort.Strings(news)
	for _, k := range news {
		fmt.Printf("note %-60s new figure %.6g (not in baseline; reseed to gate it)\n", k, cur[k])
	}
	if failed > 0 {
		fmt.Printf("matchbench: %d figure(s) drifted beyond %.0f%% — if the change is intended, reseed the baseline\n",
			failed, 100*tol)
		return 1
	}
	return 0
}

// relDrift is |got-want| relative to the baseline magnitude; tiny baseline
// values fall back to absolute drift so zero-valued figures can't divide
// by zero (and can't drift invisibly).
func relDrift(want, got float64) float64 {
	d := math.Abs(got - want)
	if m := math.Abs(want); m > 1e-9 {
		return d / m
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matchbench:", err)
	os.Exit(1)
}
