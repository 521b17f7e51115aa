package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"match/cmd/internal/serveapi"
	"match/internal/core"
	"match/internal/obs"
	"match/internal/store"
)

// serverConfig is the execution environment shared by every campaign the
// service runs: one result store, one sweep meter, one event log.
type serverConfig struct {
	store        *store.Store
	workers      int // per-campaign worker pool (0 = GOMAXPROCS)
	maxPerClient int // queued+running campaigns per client (0 = unlimited)
	log          *obs.Log
}

const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// campaign is one submitted request and everything its execution produces.
// The ID is the request hash, so an equivalent resubmission maps to the
// same campaign instead of a second run.
type campaign struct {
	id     string
	req    core.CampaignRequest
	client string

	mu         sync.Mutex
	state      string
	errMsg     string
	cellsDone  int
	cellsTotal int
	wall       time.Duration
	results    []core.Result
	subs       map[chan serveapi.Status]bool
	done       chan struct{} // closed on done/failed
}

func (c *campaign) view() serveapi.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked()
}

func (c *campaign) viewLocked() serveapi.Status {
	v := serveapi.Status{
		ID:         c.id,
		State:      c.state,
		Error:      c.errMsg,
		CellsDone:  c.cellsDone,
		CellsTotal: c.cellsTotal,
		WallMS:     c.wall.Milliseconds(),
	}
	if c.state == stateDone {
		v.ResultsURL = "/campaigns/" + c.id + "/results"
	}
	return v
}

func (c *campaign) subscribe() chan serveapi.Status {
	ch := make(chan serveapi.Status, 64)
	c.mu.Lock()
	if c.subs == nil {
		c.subs = map[chan serveapi.Status]bool{}
	}
	c.subs[ch] = true
	c.mu.Unlock()
	return ch
}

func (c *campaign) unsubscribe(ch chan serveapi.Status) {
	c.mu.Lock()
	delete(c.subs, ch)
	c.mu.Unlock()
}

// broadcast pushes the current status to every watcher. Slow watchers drop
// intermediate events rather than stalling the sweep.
func (c *campaign) broadcast() {
	c.mu.Lock()
	v := c.viewLocked()
	for ch := range c.subs {
		select {
		case ch <- v:
		default:
		}
	}
	c.mu.Unlock()
}

// server is the matchserve HTTP backend: a campaign registry plus a
// bounded pool of campaign executors.
type server struct {
	cfg   serverConfig
	meter *obs.SweepMeter

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // submission order, for listing
	perClient map[string]int
	queue     chan *campaign
}

func newServer(cfg serverConfig) *server {
	return &server{
		cfg:       cfg,
		meter:     obs.NewSweepMeter(),
		campaigns: map[string]*campaign{},
		perClient: map[string]int{},
		queue:     make(chan *campaign, 1024),
	}
}

// start launches n campaign executors. Submissions beyond n concurrent
// campaigns wait in the queue.
func (s *server) start(n int) {
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		go func() {
			for c := range s.queue {
				s.runCampaign(c)
			}
		}()
	}
}

func (s *server) runCampaign(c *campaign) {
	start := time.Now()
	c.mu.Lock()
	c.state = stateRunning
	c.mu.Unlock()
	c.broadcast()

	rn := core.CampaignRunner{
		Workers: s.cfg.workers,
		Meter:   s.meter,
		Log:     s.cfg.log,
		Store:   s.cfg.store,
		Progress: func(done, total int, _ core.Result, _ time.Duration) {
			c.mu.Lock()
			c.cellsDone, c.cellsTotal = done, total
			c.mu.Unlock()
			c.broadcast()
		},
	}
	results, err := rn.Run(c.req, nil)

	c.mu.Lock()
	c.wall = time.Since(start)
	if err != nil {
		c.state = stateFailed
		c.errMsg = err.Error()
	} else {
		c.state = stateDone
		c.results = results
	}
	close(c.done)
	c.mu.Unlock()
	s.release(c.client)
}

func (s *server) release(client string) {
	s.mu.Lock()
	if s.perClient[client]--; s.perClient[client] <= 0 {
		delete(s.perClient, client)
	}
	s.mu.Unlock()
}

func (s *server) lookup(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// ServeHTTP routes by hand: go.mod pins Go 1.21, which predates ServeMux
// wildcard patterns.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/campaigns":
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			s.handleList(w)
		default:
			httpError(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list")
		}
	case strings.HasPrefix(r.URL.Path, "/campaigns/"):
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "campaign resources are read-only")
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
		parts := strings.Split(rest, "/")
		c := s.lookup(parts[0])
		if c == nil {
			httpError(w, http.StatusNotFound, "unknown campaign %q", parts[0])
			return
		}
		switch {
		case len(parts) == 1:
			s.handleStatus(w, r, c)
		case len(parts) == 2 && parts[1] == "results":
			s.handleResults(w, r, c)
		default:
			httpError(w, http.StatusNotFound, "unknown campaign resource %q", rest)
		}
	case r.URL.Path == "/cache":
		writeJSON(w, http.StatusOK, cacheView(s.cfg.store))
	case r.URL.Path == "/metrics":
		s.meter.MetricsHandler().ServeHTTP(w, r)
	case r.URL.Path == "/status":
		s.meter.StatusHandler().ServeHTTP(w, r)
	case r.URL.Path == "/healthz":
		w.Write([]byte("ok\n"))
	default:
		httpError(w, http.StatusNotFound, "no such resource %q", r.URL.Path)
	}
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req core.CampaignRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad campaign request: %v", err)
		return
	}
	cells, err := req.CellCount()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid campaign: %v", err)
		return
	}
	id, err := req.Hash()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "hash: %v", err)
		return
	}
	client := clientKey(r)

	s.mu.Lock()
	if c, ok := s.campaigns[id]; ok {
		s.mu.Unlock()
		// Idempotent resubmit: same canonical request, same campaign.
		writeJSON(w, http.StatusOK, c.view())
		return
	}
	if s.cfg.maxPerClient > 0 && s.perClient[client] >= s.cfg.maxPerClient {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests,
			"client %s already has %d campaigns in flight", client, s.cfg.maxPerClient)
		return
	}
	c := &campaign{
		id:         id,
		req:        req,
		client:     client,
		state:      stateQueued,
		cellsTotal: cells,
		done:       make(chan struct{}),
	}
	// A refused campaign is never registered, so a resubmit is queued
	// afresh. An executor that takes c at once releases its client only
	// after the lock below is given up, so the count stays balanced.
	select {
	case s.queue <- c:
	default:
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "campaign queue full")
		return
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.perClient[client]++
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, c.view())
}

func (s *server) handleList(w http.ResponseWriter) {
	s.mu.Lock()
	views := make([]serveapi.Status, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.campaigns[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request, c *campaign) {
	if r.URL.Query().Get("watch") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.watchCampaign(w, r, c)
		return
	}
	writeJSON(w, http.StatusOK, c.view())
}

// watchCampaign streams progress as server-sent events until the campaign
// finishes or the client goes away.
func (s *server) watchCampaign(w http.ResponseWriter, r *http.Request, c *campaign) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	send := func(v serveapi.Status) {
		b, _ := json.Marshal(v)
		fmt.Fprintf(w, "data: %s\n\n", b)
		fl.Flush()
	}
	sub := c.subscribe()
	defer c.unsubscribe(sub)
	v0 := c.view()
	send(v0)
	if v0.State == stateDone || v0.State == stateFailed {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case v := <-sub:
			if v.State == stateDone || v.State == stateFailed {
				continue // the done channel delivers the terminal event once
			}
			send(v)
		case <-c.done:
			send(c.view())
			return
		}
	}
}

func (s *server) handleResults(w http.ResponseWriter, r *http.Request, c *campaign) {
	c.mu.Lock()
	state, errMsg, results := c.state, c.errMsg, c.results
	c.mu.Unlock()
	switch state {
	case stateFailed:
		httpError(w, http.StatusInternalServerError, "campaign failed: %s", errMsg)
		return
	case stateDone:
	default:
		httpError(w, http.StatusConflict, "campaign is %s; results not ready", state)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, results)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		core.WriteCSV(w, results)
	case "table":
		// Rendered per request: WriteCampaign sorts copies, so this is
		// the table CampaignRunner.Run would have written.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		core.WriteCampaign(w, results)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (valid: json, csv, table)", format)
	}
}

func cacheView(st *store.Store) serveapi.CacheStats {
	v := serveapi.CacheStats{Enabled: st.Enabled()}
	if st.Enabled() {
		v.Stats = st.Stats()
		v.HitRate = v.Stats.HitRate()
	}
	return v
}

// clientKey identifies a client for the per-client concurrency limit: the
// host part of the remote address.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
