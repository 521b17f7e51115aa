package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"match/internal/core"
	"match/internal/store"
)

// server is one matchserve child: GOMAXPROCS=1 -j 1 -campaigns 1, for the
// reason campaigns run on one P (README.md), over a cache directory of its
// own.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string
	stderr bytes.Buffer
}

// startServer boots matchserve on a loopback port the harness picked
// itself (a fixed port races with the previous run's socket) and waits for
// /healthz.
func startServer(bin, dir string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	s := &server{base: "http://" + addr, dir: dir}
	s.cmd = exec.Command(bin, "-addr", addr, "-cache", dir, "-j", "1", "-campaigns", "1", "-max-per-client", "0")
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	s.cmd.Stderr = &s.stderr
	// Should the harness die without running its deferred calls, the
	// kernel stops the child.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("matchserve did not answer /healthz: %s", s.stderr.String())
}

// stop kills the child, waits until it has ended and removes its cache.
func (s *server) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	os.RemoveAll(s.dir)
}

// serveDriver drives serve workloads: a closed loop of one client, each op
// a submit -> SSE watch to the terminal event -> results?format=json.
type serveDriver struct {
	w      *workload
	opts   options
	tmp    string
	t      *tally
	srv    *server
	client *http.Client

	coldMS      float64
	first, last *servedOp // compared with an in-process run at the end
	rss0KB      float64   // child's VmRSS when the timed phase began

	// Traced rounds only.
	postMS, watchMS, resultsMS, scrapeMS []float64
	counts                               map[string]float64 // summed /metrics deltas
	totals                               tracedTotals
}

type servedOp struct {
	req  core.CampaignRequest
	body []byte
}

func newServeDriver(w *workload, opts options, tmp string, t *tally) *serveDriver {
	return &serveDriver{w: w, opts: opts, tmp: tmp, t: t, counts: map[string]float64{},
		// One client, one connection: the load comes from a single caller
		// that waits for each reply.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (s *serveDriver) setup() error {
	dir, err := os.MkdirTemp(s.tmp, "cache-*")
	if err != nil {
		return err
	}
	srv, err := startServer(filepath.Join(s.opts.outDir, "matchserve"), dir)
	if err != nil {
		return err
	}
	s.srv = srv
	_, t, err := s.op(s.w.prefill)
	if err != nil {
		return fmt.Errorf("cold submit: %w", err)
	}
	s.coldMS = t.ms(0, 3)
	for i := 0; i < s.w.warmOps; i++ {
		req := s.w.prefill
		req.Seed = opSeed(s.opts.seed, 900_000+i) // beyond any timed op's seed
		if _, _, err := s.op(req); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	s.rss0KB, err = procStatusKB(srv.cmd.Process.Pid, "VmRSS")
	return err
}

func (s *serveDriver) teardown() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
}

func (s *serveDriver) peakRSSMB() (float64, error) {
	kb, err := procStatusKB(s.srv.cmd.Process.Pid, "VmHWM")
	return kb / 1024, err
}

func (s *serveDriver) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.srv.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// status is the part of matchserve's campaign status the client reads.
type status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// opTimes are the boundaries of an op's three phases: post, watch, results.
type opTimes [4]time.Time

func (t opTimes) ms(from, to int) float64 {
	return float64(t[to].Sub(t[from]).Nanoseconds()) / 1e6
}

// op performs one round trip and returns the results body.
func (s *serveDriver) op(req core.CampaignRequest) (body []byte, t opTimes, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, t, err
	}

	t[0] = time.Now()
	post, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.base+"/campaigns", bytes.NewReader(payload))
	if err != nil {
		return nil, t, err
	}
	post.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(post)
	if err != nil {
		return nil, t, err
	}
	var st status
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) {
		return nil, t, fmt.Errorf("submit: %s (%v)", resp.Status, err)
	}

	t[1] = time.Now()
	watch, err := http.NewRequestWithContext(ctx, http.MethodGet, s.srv.base+"/campaigns/"+st.ID+"?watch=1", nil)
	if err != nil {
		return nil, t, err
	}
	resp, err = s.client.Do(watch)
	if err != nil {
		return nil, t, err
	}
	// Read the stream to its end, so the connection is reused; the last
	// event is the terminal one.
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data := strings.TrimPrefix(sc.Text(), "data: "); data != sc.Text() {
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				resp.Body.Close()
				return nil, t, fmt.Errorf("watch event: %w", err)
			}
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, t, fmt.Errorf("watch: %w", err)
	}
	if st.State != "done" {
		return nil, t, fmt.Errorf("campaign ended %q: %s", st.State, st.Error)
	}

	t[2] = time.Now()
	body, err = s.get(ctx, "/campaigns/"+st.ID+"/results?format=json")
	t[3] = time.Now()
	return body, t, err
}

func (s *serveDriver) cacheStats() (store.Stats, error) {
	b, err := s.get(context.Background(), "/cache")
	if err != nil {
		return store.Stats{}, err
	}
	var st store.Stats
	return st, json.Unmarshal(b, &st)
}

func (s *serveDriver) round(r int, traced bool, parent int) (roundStat, error) {
	reqs := s.w.round(s.opts.seed, r)
	pid := s.srv.cmd.Process.Pid
	var metrics0 map[string]float64
	if traced {
		b, err := s.get(context.Background(), "/metrics")
		if err != nil {
			return roundStat{}, err
		}
		metrics0 = parseOpenMetrics(b)
	}
	cache0, err := s.cacheStats()
	if err != nil {
		return roundStat{}, err
	}
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return roundStat{}, err
	}
	t0 := time.Now()
	s.t.attempted += len(reqs)
	completed := 0
	// Bodies are hashed and parsed after the clock stops: client-side work
	// between ops would count against the service's rate.
	keep := s.t.digest != nil || traced
	var bodies [][]byte
	for i, req := range reqs {
		body, t, err := s.op(req)
		if err != nil {
			s.t.fail(1, "seed %d: %v", req.Seed, err)
			continue
		}
		s.t.latMS = append(s.t.latMS, t.ms(0, 3))
		completed++
		if traced {
			op := s.t.spans.add(fmt.Sprintf("op seed %d", req.Seed), parent, t[0], t[3])
			s.t.spans.add("post", op, t[0], t[1])
			s.t.spans.add("watch", op, t[1], t[2])
			s.t.spans.add("results", op, t[2], t[3])
			s.postMS = append(s.postMS, t.ms(0, 1))
			s.watchMS = append(s.watchMS, t.ms(1, 2))
			s.resultsMS = append(s.resultsMS, t.ms(2, 3))
		}
		if keep {
			bodies = append(bodies, body)
		}
		if s.first == nil {
			s.first = &servedOp{req, body}
		}
		if i == len(reqs)-1 {
			s.last = &servedOp{req, body}
		}
	}
	stat := roundStat{ops: len(reqs), wall: time.Since(t0).Seconds(), traced: traced}
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return roundStat{}, err
	}
	stat.cpu = cpu1 - cpu0
	for _, body := range bodies {
		if s.t.digest != nil {
			s.t.digest.Write(body)
		}
		if traced {
			s.totals.virtS += virtSeconds(body)
		}
	}
	cache1, err := s.cacheStats()
	if err != nil {
		return roundStat{}, err
	}
	// A warm op that simulates anything is not the op this workload
	// measures. /cache is read per round, so the whole round is suspect.
	if s.w.name == "serve-warm" && (cache1.Misses != cache0.Misses || cache1.Puts != cache0.Puts) {
		s.t.fail(completed, "round %d: %d new misses, %d new puts on a warm store",
			r, cache1.Misses-cache0.Misses, cache1.Puts-cache0.Puts)
	}
	if traced {
		t := time.Now()
		b, err := s.get(context.Background(), "/metrics")
		if err != nil {
			return roundStat{}, err
		}
		s.scrapeMS = append(s.scrapeMS, float64(time.Since(t).Nanoseconds())/1e6)
		for name, v := range parseOpenMetrics(b) {
			s.counts[name] += v - metrics0[name]
		}
		s.totals.addStore(cache1, cache0)
		s.totals.ops += stat.ops
		s.totals.hostS += stat.wall
	}
	return stat, nil
}

// virtSeconds sums the simulated run time of the cells in a results body.
func virtSeconds(body []byte) float64 {
	var results []core.Result
	if json.Unmarshal(body, &results) != nil {
		return 0
	}
	t := 0.0
	for _, r := range results {
		t += r.Breakdown.Total.Seconds()
	}
	return t
}

// renderResults encodes results the way matchserve's results?format=json does.
func renderResults(results []core.Result) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(results) // a bytes.Buffer does not fail
	return buf.Bytes()
}

func (s *serveDriver) finish(layer map[string]float64) error {
	// What the service returned must be what the library computes: run the
	// first and the last request in-process, against a store of the
	// harness's own, and compare the bytes.
	ref := core.CampaignRunner{Workers: 1, Store: store.NewMemory(0)}
	for _, op := range []*servedOp{s.first, s.last} {
		if op == nil {
			continue
		}
		results, err := ref.Run(op.req, nil)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		if !bytes.Equal(renderResults(results), op.body) {
			s.t.fail(1, "seed %d: results differ from an in-process run", op.req.Seed)
		}
	}
	if layer == nil {
		return nil
	}
	if err := s.totals.addTo(layer, s.counts); err != nil {
		return err
	}
	layer["matchserve.post_ms_p50"] = median(s.postMS)
	layer["matchserve.watch_ms_p50"] = median(s.watchMS)
	layer["matchserve.results_ms_p50"] = median(s.resultsMS)
	layer["matchserve.op_ms_p99"] = percentile(s.t.latMS, 99)
	layer["matchserve.cold_submit_ms"] = s.coldMS
	layer["matchserve.metrics_scrape_ms"] = median(s.scrapeMS)
	rss, err := procStatusKB(s.srv.cmd.Process.Pid, "VmRSS")
	if err != nil {
		return err
	}
	layer["matchserve.rss_kb_per_campaign"] = (rss - s.rss0KB) / float64(s.t.attempted)
	return nil
}
