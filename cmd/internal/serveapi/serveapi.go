// Package serveapi declares the JSON wire types of the matchserve HTTP
// API once, for the server and for its clients (matchsuite -server,
// matchreport).
package serveapi

import "match/internal/store"

// Status is a campaign's status: the body of POST /campaigns and
// GET /campaigns/{id}, and each event of the ?watch=1 stream.
type Status struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Error      string `json:"error,omitempty"`
	CellsDone  int    `json:"cells_done"`
	CellsTotal int    `json:"cells_total"`
	WallMS     int64  `json:"wall_ms,omitempty"`
	ResultsURL string `json:"results_url,omitempty"`
}

// CacheStats is the body of GET /cache: store.Stats plus the derived hit
// rate and whether a cache is attached at all.
type CacheStats struct {
	Enabled bool `json:"enabled"`
	store.Stats
	HitRate float64 `json:"hit_rate"`
}
