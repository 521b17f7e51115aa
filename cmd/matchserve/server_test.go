package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"match/cmd/internal/serveapi"
	"match/internal/core"
	"match/internal/store"
)

func testServer(t *testing.T, cfg serverConfig, executors int) (*server, *httptest.Server) {
	t.Helper()
	if cfg.store == nil {
		cfg.store = store.NewMemory(0)
	}
	srv := newServer(cfg)
	if executors > 0 {
		srv.start(executors)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, req core.CampaignRequest) (serveapi.Status, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v serveapi.Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) serveapi.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var v serveapi.Status
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitDone(t *testing.T, ts *httptest.Server, id string) serveapi.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		v := getStatus(t, ts, id)
		if v.State == stateDone || v.State == stateFailed {
			return v
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return serveapi.Status{}
}

func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func tinyRequest() core.CampaignRequest {
	return core.CampaignRequest{
		Apps:    []string{"HPCCG"},
		Designs: []core.Design{core.RestartFTI, core.UlfmFTI},
		Procs:   8, MaxFaults: 1, Seed: 7,
	}
}

// The service must hand back exactly what an in-process run of the same
// request produces: equal results, and a byte-identical table and CSV.
// A paper figure is a request like any other: Fig. 6 narrowed to one app and
// one scale goes through the same assertions.
func TestServeCampaignEndToEnd(t *testing.T) {
	fig6, err := core.FigureRequest(6)
	if err != nil {
		t.Fatal(err)
	}
	fig6.Apps, fig6.Scales = []string{"miniFE"}, []int{64}
	t.Run("campaign", func(t *testing.T) { serveEndToEnd(t, tinyRequest()) })
	t.Run("figure", func(t *testing.T) {
		if testing.Short() {
			t.Skip("64-proc figure cells skipped in -short mode")
		}
		serveEndToEnd(t, fig6)
	})
}

func serveEndToEnd(t *testing.T, req core.CampaignRequest) {
	_, ts := testServer(t, serverConfig{workers: 2}, 1)

	v, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if want := len(req.Configs()); v.CellsTotal != want {
		t.Fatalf("cells_total = %d, want %d", v.CellsTotal, want)
	}
	final := waitDone(t, ts, v.ID)
	if final.State != stateDone {
		t.Fatalf("campaign failed: %s", final.Error)
	}
	if final.CellsDone != final.CellsTotal {
		t.Fatalf("done with %d/%d cells", final.CellsDone, final.CellsTotal)
	}
	if final.ResultsURL == "" {
		t.Fatal("done campaign has no results URL")
	}

	// The same request, run in-process, is the reference.
	var localTable bytes.Buffer
	localRes, err := core.CampaignRunner{Workers: 2}.Run(req, &localTable)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + final.ResultsURL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: HTTP %d: %s", resp.StatusCode, body)
	}
	var remoteRes []core.Result
	if err := json.Unmarshal(body, &remoteRes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remoteRes, localRes) {
		t.Fatal("remote results diverge from the in-process run")
	}
	// The body is what json.Encoder with SetIndent("", "  ") writes of the
	// in-process results, sent whole with its length.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(localRes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("results body differs from encoding/json's:\n%s\nwant\n%s", body, want.Bytes())
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("results sent with Content-Length %q, transfer encoding %v; want %d and none", cl, resp.TransferEncoding, len(body))
	}

	code, table := fetch(t, ts.URL+final.ResultsURL+"?format=table")
	if code != http.StatusOK || !bytes.Equal(table, localTable.Bytes()) {
		t.Fatalf("remote table diverges (HTTP %d):\n--- remote ---\n%s--- local ---\n%s",
			code, table, &localTable)
	}

	var localCSV bytes.Buffer
	core.WriteCSV(&localCSV, localRes)
	code, csv := fetch(t, ts.URL+final.ResultsURL+"?format=csv")
	if code != http.StatusOK || !bytes.Equal(csv, localCSV.Bytes()) {
		t.Fatalf("remote CSV diverges (HTTP %d)", code)
	}

	// Every cell was simulated once and cached.
	code, cache := fetch(t, ts.URL+"/cache")
	if code != http.StatusOK {
		t.Fatalf("cache: HTTP %d", code)
	}
	var cs serveapi.CacheStats
	if err := json.Unmarshal(cache, &cs); err != nil {
		t.Fatal(err)
	}
	if !cs.Enabled || cs.Puts != int64(final.CellsTotal) {
		t.Fatalf("cache stats after one campaign: %+v", cs)
	}

	// Resubmitting the equivalent request is idempotent: 200, same ID, no
	// second run (the registry already holds the campaign).
	again, code := submit(t, ts, req)
	if code != http.StatusOK || again.ID != v.ID {
		t.Fatalf("resubmit: HTTP %d, id %s (want %s)", code, again.ID, v.ID)
	}

	// A request spelling the defaults out hashes to the same campaign.
	explicit := req
	explicit.Reps = 1
	explicit.Input = core.Small
	spelled, code := submit(t, ts, explicit)
	if code != http.StatusOK || spelled.ID != v.ID {
		t.Fatalf("explicit-defaults resubmit: HTTP %d, id %s (want %s)", code, spelled.ID, v.ID)
	}
}

// A done campaign whose results hold a value JSON cannot carry (a custom
// app's answer that diverged to NaN) is answered 500, naming the cell and
// the field, and never 200 with a truncated body.
func TestServeNonFiniteResultIs500(t *testing.T) {
	srv, ts := testServer(t, serverConfig{}, 0)
	done := make(chan struct{})
	close(done)
	srv.campaigns["nan"] = &campaign{id: "nan", state: stateDone, done: done, results: []core.Result{
		{Config: core.Config{App: "HPCCG", Procs: 8}, Breakdown: core.Breakdown{Signature: 1}},
		{Config: core.Config{App: "custom", Design: core.UlfmFTI, Procs: 8}, Breakdown: core.Breakdown{Signature: math.NaN()}},
	}}
	for _, q := range []string{"", "?format=json"} {
		code, body := fetch(t, ts.URL+"/campaigns/nan/results"+q)
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("results%s: HTTP %d, body %q is not a JSON error: %v", q, code, body, err)
		}
		if code != http.StatusInternalServerError ||
			!strings.Contains(e["error"], "result 1 (custom/ULFM-FTI/p8/Small)") || !strings.Contains(e["error"], "Breakdown.Signature is NaN") {
			t.Fatalf("results%s: HTTP %d %q, want 500 naming the cell and the field", q, code, e["error"])
		}
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, serverConfig{}, 1)
	for name, body := range map[string]string{
		"garbage":       "{not json",
		"unknown field": `{"appz": ["HPCCG"]}`,
		"unknown app":   `{"apps": ["NotAnApp"], "max_faults": 0}`,
		"bad factor":    `{"replica_factors": [2.0], "max_faults": 0}`,
		"hostile k":     `{"max_faults": 1000000000}`,
		"hostile procs": `{"procs": 1000000000}`,
		"hostile reps":  `{"reps": 1000000000}`,
		"two scales":    `{"scales": [64], "procs": 64}`,
		"two inputs":    `{"inputs": ["Large"], "input": "Medium"}`,
		"k range":       `{"min_faults": 2, "max_faults": 1}`,
		"bad scale":     `{"scales": [100]}`,
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
}

// With no executors started, submissions stay queued — which makes the
// per-client limit deterministic to test.
func TestServePerClientLimit(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxPerClient: 1}, 0)
	a := core.CampaignRequest{Apps: []string{"HPCCG"}, MaxFaults: 0}
	b := core.CampaignRequest{Apps: []string{"CoMD"}, MaxFaults: 0}

	va, code := submit(t, ts, a)
	if code != http.StatusAccepted || va.State != stateQueued {
		t.Fatalf("first submit: HTTP %d, state %s", code, va.State)
	}
	if _, code = submit(t, ts, b); code != http.StatusTooManyRequests {
		t.Fatalf("second distinct submit: HTTP %d, want 429", code)
	}
	// Resubmitting the queued campaign is not a new campaign: no 429.
	if again, code := submit(t, ts, a); code != http.StatusOK || again.ID != va.ID {
		t.Fatalf("resubmit while queued: HTTP %d, id %s", code, again.ID)
	}
}

// A submission refused because the queue is full leaves nothing behind: it
// is not listed, has no status, and a resubmit of the same request is
// queued and runs once an executor is free. The queue is unbuffered, so
// with no executor waiting every submission is refused.
func TestServeQueueFullLeavesNoCampaign(t *testing.T) {
	srv := newServer(serverConfig{store: store.NewMemory(0)})
	srv.queue = make(chan *campaign)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	req := core.CampaignRequest{Apps: []string{"HPCCG"}, Designs: []core.Design{core.RestartFTI}, Procs: 8, MaxFaults: 0}

	for i := 0; i < 2; i++ {
		if _, code := submit(t, ts, req); code != http.StatusServiceUnavailable {
			t.Fatalf("submit %d with no executor: HTTP %d, want 503", i, code)
		}
	}
	if code, body := fetch(t, ts.URL+"/campaigns"); code != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("list after refusals: HTTP %d %s, want an empty list", code, body)
	}
	id, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := fetch(t, ts.URL+"/campaigns/"+id); code != http.StatusNotFound {
		t.Fatalf("status of a refused campaign: HTTP %d, want 404", code)
	}
	srv.mu.Lock()
	held := len(srv.perClient)
	srv.mu.Unlock()
	if held != 0 {
		t.Fatalf("%d clients still hold a refused campaign", held)
	}

	// An executor takes from the unbuffered queue only while it waits on
	// it, so resubmit until one is waiting.
	srv.start(1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, code := submit(t, ts, req)
		if code == http.StatusAccepted {
			if v.ID != id {
				t.Fatalf("queued campaign %s, want %s", v.ID, id)
			}
			break
		}
		if code != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("resubmit with an executor: HTTP %d, want 202", code)
		}
		time.Sleep(time.Millisecond)
	}
	if v := waitDone(t, ts, id); v.State != stateDone {
		t.Fatalf("resubmitted campaign ended %s: %s", v.State, v.Error)
	}
}

func TestServeRouting(t *testing.T) {
	_, ts := testServer(t, serverConfig{}, 1)
	if code, _ := fetch(t, ts.URL+"/campaigns/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: HTTP %d, want 404", code)
	}
	if code, _ := fetch(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: HTTP %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /campaigns: HTTP %d, want 405", resp.StatusCode)
	}
	for _, p := range []string{"/metrics", "/status", "/healthz", "/cache", "/campaigns"} {
		if code, _ := fetch(t, ts.URL+p); code != http.StatusOK {
			t.Errorf("GET %s: HTTP %d, want 200", p, code)
		}
	}
}

// Watching a finished campaign yields a single terminal SSE event; an
// unfinished one streams progress until done.
func TestServeWatchSSE(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2}, 1)
	req := core.CampaignRequest{Apps: []string{"HPCCG"},
		Designs: []core.Design{core.RestartFTI}, Procs: 8, MaxFaults: 0}
	v, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + v.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	var last serveapi.Status
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 || last.State != stateDone {
		t.Fatalf("watch ended after %d events in state %q", events, last.State)
	}
	if last.CellsDone != last.CellsTotal {
		t.Fatalf("terminal event at %d/%d cells", last.CellsDone, last.CellsTotal)
	}
}

// A second, overlapping campaign served warm from the shared store returns
// results identical to its own cold in-process run.
func TestServeWarmOverlap(t *testing.T) {
	st := store.NewMemory(0)
	_, ts := testServer(t, serverConfig{workers: 2, store: st}, 1)

	first := tinyRequest()
	v1, _ := submit(t, ts, first)
	if final := waitDone(t, ts, v1.ID); final.State != stateDone {
		t.Fatalf("first campaign failed: %s", final.Error)
	}
	base := st.Stats()

	// Superset: same cells plus the reinit design's.
	second := first
	second.Designs = []core.Design{core.RestartFTI, core.UlfmFTI, core.ReinitFTI}
	v2, code := submit(t, ts, second)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", code)
	}
	if final := waitDone(t, ts, v2.ID); final.State != stateDone {
		t.Fatalf("second campaign failed: %s", final.Error)
	}
	cs := st.Stats()
	if wantHits := base.Puts; cs.Hits-base.Hits != wantHits {
		t.Fatalf("overlap reused %d cells, want %d: %+v", cs.Hits-base.Hits, wantHits, cs)
	}

	code, body := fetch(t, ts.URL+"/campaigns/"+v2.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: HTTP %d", code)
	}
	var remote []core.Result
	if err := json.Unmarshal(body, &remote); err != nil {
		t.Fatal(err)
	}
	local, err := core.CampaignRunner{Workers: 2}.Run(second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatal("warm overlapping campaign diverges from a cold in-process run")
	}
}
