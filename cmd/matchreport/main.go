// Command matchreport turns campaign results into one human-oriented
// markdown report: given one campaign CSV, the per-cell design winner
// table; given two, the crossover diff between the two campaign runs.
//
// Usage:
//
//	matchreport -campaign results.csv -out report.md
//	matchreport -campaign before.csv -campaign2 after.csv   # crossover diff to stdout
//	matchreport -campaign http://host:8080/campaigns/<id>/results   # straight off matchserve
//
// A -campaign argument may be a matchserve results URL instead of a local
// CSV; the report then also includes the server's result-cache hit rate.
// Campaign totals are virtual seconds; host-time questions belong to
// bench/ (see bench/README.md).
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"match/cmd/internal/serveapi"
)

// cell is one campaign CSV row, keyed by the axes that identify a sweep
// cell across runs and carrying the figures the report compares.
type cell struct {
	App, Design, Input string
	Procs, Faults      int
	TotalS             float64
}

func (c cell) key() string {
	return fmt.Sprintf("%s|%s|%d|%d", c.App, c.Input, c.Procs, c.Faults)
}

func main() {
	campA := flag.String("campaign", "", "campaign CSV (matchsuite -campaign -csv)")
	campB := flag.String("campaign2", "", "second campaign CSV to diff against -campaign")
	outPath := flag.String("out", "-", `markdown output path ("-" = stdout)`)
	flag.Parse()
	if *campA == "" {
		fmt.Fprintln(os.Stderr, "matchreport: nothing to report (need -campaign)")
		flag.Usage()
		os.Exit(2)
	}

	w := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	fmt.Fprintln(bw, "# MATCH campaign report")
	fmt.Fprintln(bw)

	a, err := readCampaign(*campA)
	if err != nil {
		fatal(err)
	}
	if *campB == "" {
		writeWinners(bw, *campA, a)
	} else {
		b, err := readCampaign(*campB)
		if err != nil {
			fatal(err)
		}
		writeCampaignDiff(bw, *campA, *campB, a, b)
	}
	// Campaigns fetched from a matchserve instance bring the server's
	// result-cache statistics along (one section per distinct server).
	seen := map[string]bool{}
	for _, p := range []string{*campA, *campB} {
		if base := serverBase(p); base != "" && !seen[base] {
			seen[base] = true
			writeCacheSection(bw, base)
		}
	}
}

// isURL reports whether a -campaign argument names a matchserve resource
// rather than a local CSV file.
func isURL(p string) bool {
	return strings.HasPrefix(p, "http://") || strings.HasPrefix(p, "https://")
}

// serverBase extracts the matchserve base URL from a results URL ("" when
// the argument is a local path).
func serverBase(p string) string {
	if !isURL(p) {
		return ""
	}
	if i := strings.Index(p, "/campaigns/"); i > 0 {
		return p[:i]
	}
	return ""
}

// writeCacheSection renders the server's result-cache hit rate. The cache
// endpoint being unreachable degrades to a note, not a failed report.
func writeCacheSection(w io.Writer, base string) {
	fmt.Fprintf(w, "## Result cache (%s)\n\n", base)
	resp, err := http.Get(base + "/cache")
	if err != nil {
		fmt.Fprintf(w, "_cache stats unavailable: %v_\n\n", err)
		return
	}
	defer resp.Body.Close()
	var cs serveapi.CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(w, "_cache stats unavailable (HTTP %d)_\n\n", resp.StatusCode)
		return
	}
	if !cs.Enabled {
		fmt.Fprintln(w, "_The server runs without a result cache._")
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintln(w, "| lookups | hits (mem/disk) | misses | simulated cells | hit rate |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|")
	fmt.Fprintf(w, "| %d | %d (%d/%d) | %d | %d | %.1f%% |\n",
		cs.Hits+cs.Misses, cs.Hits, cs.MemHits, cs.DiskHits, cs.Misses, cs.Puts, 100*cs.HitRate)
	fmt.Fprintln(w)
}

// readCampaign loads the cells of a matchsuite campaign CSV, from a local
// file or straight off a matchserve results URL. Columns are located by
// header name so the report survives column additions.
func readCampaign(path string) ([]cell, error) {
	f, err := openCampaign(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("%s: no data rows", path)
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	for _, need := range []string{"app", "design", "input", "procs", "faults", "total_s"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("%s: missing column %q (not a campaign CSV?)", path, need)
		}
	}
	cells := make([]cell, 0, len(rows)-1)
	for i, row := range rows[1:] {
		procs, err1 := strconv.Atoi(row[col["procs"]])
		faults, err2 := strconv.Atoi(row[col["faults"]])
		total, err3 := strconv.ParseFloat(row[col["total_s"]], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%s row %d: bad numeric field", path, i+2)
		}
		cells = append(cells, cell{
			App: row[col["app"]], Design: row[col["design"]], Input: row[col["input"]],
			Procs: procs, Faults: faults, TotalS: total,
		})
	}
	return cells, nil
}

// openCampaign opens a local CSV, or fetches a matchserve results URL in
// CSV form (?format=csv is appended unless the URL already picks one).
func openCampaign(path string) (io.ReadCloser, error) {
	if !isURL(path) {
		return os.Open(path)
	}
	u := path
	if !strings.Contains(u, "format=") {
		if strings.Contains(u, "?") {
			u += "&format=csv"
		} else {
			u += "?format=csv"
		}
	}
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return resp.Body, nil
}

// winners reduces a campaign to, per cell key, the design with the lowest
// mean total time (designs can appear several times per key when other
// axes — rfactor, hot spares, detectors — are swept; the mean keeps the
// comparison stable across such variants).
func winners(cells []cell) map[string]map[string]float64 {
	sums := map[string]map[string]struct{ sum, n float64 }{}
	for _, c := range cells {
		k := c.key()
		if sums[k] == nil {
			sums[k] = map[string]struct{ sum, n float64 }{}
		}
		agg := sums[k][c.Design]
		agg.sum += c.TotalS
		agg.n++
		sums[k][c.Design] = agg
	}
	out := map[string]map[string]float64{}
	for k, designs := range sums {
		out[k] = map[string]float64{}
		for d, agg := range designs {
			out[k][d] = agg.sum / agg.n
		}
	}
	return out
}

// best returns the winning design (lowest mean total_s) of one cell.
func best(designs map[string]float64) (string, float64) {
	name, t := "", math.Inf(1)
	for d, v := range designs {
		if v < t || (v == t && d < name) {
			name, t = d, v
		}
	}
	return name, t
}

// writeWinners renders the single-campaign winner table.
func writeWinners(w io.Writer, path string, cells []cell) {
	fmt.Fprintf(w, "## Campaign winners (%s)\n\n", path)
	fmt.Fprintln(w, "| app | input | procs | faults | winner | total_s | runner-up | margin |")
	fmt.Fprintln(w, "|---|---|---:|---:|---|---:|---|---:|")
	wins := winners(cells)
	for _, k := range sortedCellKeys(wins) {
		designs := wins[k]
		win, t := best(designs)
		rest := map[string]float64{}
		for d, v := range designs {
			if d != win {
				rest[d] = v
			}
		}
		second, t2 := best(rest)
		margin := "—"
		if second != "" && t > 0 {
			margin = fmt.Sprintf("%.2fx", t2/t)
		} else {
			second = "—"
		}
		app, input, procs, faults := splitKey(k)
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %.3f | %s | %s |\n",
			app, input, procs, faults, win, t, second, margin)
	}
	fmt.Fprintln(w)
}

// writeCampaignDiff renders the crossover diff between two campaign runs:
// every cell present in both, flagging winner changes and total-time
// movement of the shared winner.
func writeCampaignDiff(w io.Writer, pathA, pathB string, a, b []cell) {
	fmt.Fprintf(w, "## Campaign diff: %s vs %s\n\n", pathA, pathB)
	winsA, winsB := winners(a), winners(b)
	var keys []string
	for k := range winsA {
		if _, ok := winsB[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		fmt.Fprintln(w, "_The two campaigns share no cells (different apps/inputs/fault counts)._")
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintln(w, "| app | input | procs | faults | winner A | winner B | total A | total B | delta | note |")
	fmt.Fprintln(w, "|---|---|---:|---:|---|---|---:|---:|---:|---|")
	changed := 0
	for _, k := range keys {
		winA, tA := best(winsA[k])
		winB, tB := best(winsB[k])
		note := ""
		if winA != winB {
			note = "**winner changed**"
			changed++
		}
		app, input, procs, faults := splitKey(k)
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %.3f | %.3f | %s | %s |\n",
			app, input, procs, faults, winA, winB, tA, tB, pct(tA, tB), note)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%d of %d shared cells changed winning design. Totals are modeled (virtual) seconds of the winning design, so deltas are figure drift, not machine noise.\n\n", changed, len(keys))
}

func sortedCellKeys(m map[string]map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func splitKey(k string) (app, input, procs, faults string) {
	p := strings.SplitN(k, "|", 4)
	return p[0], p[1], p[2], p[3]
}

// pct renders the relative movement from was to now.
func pct(was, now float64) string {
	if was == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", 100*(now-was)/was)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matchreport:", err)
	os.Exit(1)
}
