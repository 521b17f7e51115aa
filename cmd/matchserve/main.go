// Command matchserve runs MATCH campaigns as a service: clients POST a
// canonical CampaignRequest, the server executes it on a bounded worker
// pool backed by the content-addressed result cache, and the results come
// back as the same table, CSV, and JSON the in-process harness produces —
// byte-identical, because the rendering code is shared.
//
// Usage:
//
//	matchserve -addr localhost:8080 -cache /var/cache/match -j 8
//
// API:
//
//	POST /campaigns                  submit a CampaignRequest (JSON body)
//	GET  /campaigns                  list campaigns (JSON)
//	GET  /campaigns/{id}             status (JSON); ?watch=1 streams SSE
//	GET  /campaigns/{id}/results     results: ?format=json|csv|table
//	GET  /cache                      result-cache statistics (JSON)
//	GET  /metrics                    live sweep counters (OpenMetrics)
//	GET  /status                     live sweep status (JSON)
//
// A campaign's ID is its request hash, so resubmitting an equivalent
// request — defaults spelled out or not — returns the existing campaign
// instead of running it twice, and the cell cache makes even distinct
// overlapping sweeps skip already-simulated cells.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"match/internal/obs"
	"match/internal/store"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty: in-memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory cache capacity in cells (0 = default)")
	workers := flag.Int("j", 0, "worker pool size per campaign (default GOMAXPROCS)")
	campaigns := flag.Int("campaigns", 2, "campaigns executed concurrently (further submissions queue)")
	maxPerClient := flag.Int("max-per-client", 4, "max queued+running campaigns per client (0 = unlimited)")
	logDest := flag.String("log", "", `structured JSON event log destination: "stderr" or a file path`)
	flag.Parse()

	st, err := store.Open(*cacheDir, *cacheEntries)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elog, logFile, err := obs.OpenLog(*logDest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "log:", err)
		os.Exit(1)
	}
	defer logFile.Close()

	srv := newServer(serverConfig{
		store:        st,
		workers:      *workers,
		maxPerClient: *maxPerClient,
		log:          elog,
	})
	srv.start(*campaigns)

	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "matchserve: result cache at %s\n", *cacheDir)
	}
	fmt.Fprintf(os.Stderr, "matchserve: listening on http://%s\n", *addr)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
