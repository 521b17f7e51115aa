package core

// Campaign-as-a-service: CampaignRequest is the canonical, serializable
// description of a campaign — pure data, no callbacks, no I/O — and
// CampaignRunner is the execution environment that runs one. The split is
// what lets a campaign travel: the same request JSON drives the in-process
// runner (cmd/matchsuite), the HTTP service (cmd/matchserve), and the
// content-addressed result cache (internal/store), whose keys are the
// SHA-256 of the canonical encoding defined here.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/enc"
	"match/internal/obs"
	"match/internal/simnet"
	"match/internal/store"
)

// cacheVersion stamps every canonical encoding (campaign requests, cell
// keys, and cached cell values). Bump it whenever a simulator change makes
// previously cached Breakdowns stale — calibration constants, scheduling
// order, new cost components — so every old cache entry misses cleanly
// instead of serving results the current simulator would not produce.
var cacheVersion = 1

// CampaignRequest is the canonical sweep description, the only one: the
// axes as pure data — for every app and design, campaigns of k =
// MinFaults..MaxFaults scheduled failures at each scale and input size,
// optionally multiplied by the detection, placement, replication and
// respawn axes; a paper figure is one (FigureRequest). Its canonical JSON
// encoding (defaults filled, version-stamped) is the campaign's identity —
// two requests that run the same cells hash identically even when one
// spells the defaults out and the other leaves them zero.
type CampaignRequest struct {
	// Apps lists the proxy applications (default: all of Table I).
	Apps []string `json:"apps,omitempty"`
	// Designs lists the fault-tolerance designs (default: all four).
	Designs []Design  `json:"designs,omitempty"`
	Procs   int       `json:"procs,omitempty"` // default: DefaultProcs
	Input   InputSize `json:"input,omitempty"`
	// Scales replaces Procs with a scaling sweep: each app runs the listed
	// scales Table I prescribes for it (LULESH: cubes only), in its order.
	Scales []int `json:"scales,omitempty"`
	// Inputs replaces Input with an input-size sweep, in the listed order.
	Inputs []InputSize `json:"inputs,omitempty"`
	// MinFaults starts the failure-count axis above zero: the paper's
	// with-failure figures are k = 1 only.
	MinFaults int `json:"min_faults,omitempty"`
	// MaxFaults is K: the sweep covers k = MinFaults..K failures per run.
	// Zero is meaningful — a failure-free baseline-only sweep; negative
	// selects the default of 3. Deliberately not omitempty: an explicit
	// zero must survive the wire.
	MaxFaults int   `json:"max_faults"`
	Reps      int   `json:"reps,omitempty"` // repetitions per cell (default 1)
	Seed      int64 `json:"seed,omitempty"` // fault seed (default 1)
	// Detectors multiplies the matrix by the detection axis; empty keeps
	// the per-design calibrated presets. Sweeping e.g. a ring detector at
	// several heartbeat periods measures the detection-latency/interference
	// trade-off — including the regime where a failure lands inside the
	// previous failure's detection window, which only exists in-band.
	Detectors []detect.Config `json:"detectors,omitempty"`
	// Policies multiplies the matrix by the checkpoint-placement axis;
	// empty keeps fixed-stride placement.
	Policies []ckpt.Config `json:"ckpt_policies,omitempty"`
	// ReplicaFactors adds the replication axis (the PartRePer trade-off):
	// every entry runs the matrix at that fraction of replicated ranks, 0
	// meaning replication off (dup-degree 1). Setting it restricts Designs
	// to the replica design — the factor means nothing elsewhere — and the
	// results feed ComputeReplicaTradeoff.
	ReplicaFactors []float64 `json:"replica_factors,omitempty"`
	// HotSpares sweeps the replica design's respawn switch (the other
	// designs have no respawn and run each cell once): {false, true}
	// measures what background respawn buys a degraded group — fallbacks
	// converted into failovers and, under replica-aware placement, the
	// stretched strides restored once a spare is live. Empty keeps it off.
	HotSpares []bool `json:"hot_spares,omitempty"`
	// ModelIngress switches receiver-NIC serialization on for every run.
	ModelIngress bool `json:"model_ingress,omitempty"`
}

// Canonical returns the request with every default filled — the exact
// sweep a run of this request performs, and the form whose encoding is
// hashed.
func (r CampaignRequest) Canonical() CampaignRequest {
	if len(r.Apps) == 0 {
		r.Apps = TableIApps()
	}
	if len(r.Designs) == 0 {
		r.Designs = Designs()
	}
	if r.Procs == 0 && len(r.Scales) == 0 {
		r.Procs = DefaultProcs
	}
	// Output order is Table I's whatever the spelling, so {128,64} and
	// {64,128} are one campaign; input order is row order and stays.
	r.Scales = dedupe(r.Scales)
	slices.Sort(r.Scales)
	r.Inputs = dedupe(r.Inputs)
	r.MinFaults = max(r.MinFaults, 0)
	if r.MaxFaults < 0 {
		r.MaxFaults = 3
	}
	if r.Reps <= 0 {
		r.Reps = 1
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if len(r.Detectors) == 0 {
		r.Detectors = []detect.Config{{}} // per-design preset
	}
	if len(r.Policies) == 0 {
		r.Policies = []ckpt.Config{{}} // fixed-stride placement
	}
	if len(r.ReplicaFactors) > 0 {
		r.Designs = []Design{ReplicaFTI}
	}
	r.HotSpares = dedupe(r.HotSpares)
	if len(r.HotSpares) == 0 {
		r.HotSpares = []bool{false}
	}
	return r
}

// versioned wraps a canonical encoding with the cache version, so a
// simulator change invalidates every previously issued identity.
type versioned struct {
	V   int         `json:"v"`
	Req interface{} `json:"req"`
}

// CanonicalJSON is the request's canonical encoding: defaults filled,
// fields in declaration order (encoding/json is deterministic for
// structs), version-stamped.
func (r CampaignRequest) CanonicalJSON() ([]byte, error) {
	return json.Marshal(versioned{V: cacheVersion, Req: r.Canonical()})
}

// Hash is the hex SHA-256 of CanonicalJSON — the campaign's identity
// (matchserve uses it as the campaign ID, so resubmitting an equivalent
// request is idempotent).
func (r CampaignRequest) Hash() (string, error) {
	b, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// What a request arriving from outside may ask for. The paper's largest
// scale is 512 processes and its whole evaluation 480 cells.
const (
	maxProcs  = 512
	maxFaults = 16
	maxReps   = 32
	maxCells  = 2048
)

// Validate rejects requests that could never run: out-of-range axes and
// oversized sweeps first — a count that stops one cell past the cap — and
// then, by resolving every cell the way Run will, unknown applications, bad
// input sizes, and detector or placement configurations a cell would fail
// on. The HTTP service turns the error into a 400 before queueing.
func (r CampaignRequest) Validate() error {
	_, err := r.CellCount()
	return err
}

// CellCount is Validate that also returns how many cells Configs
// enumerates, counted on the way without building them.
func (r CampaignRequest) CellCount() (int, error) {
	c := r.Canonical()
	switch {
	case len(c.Scales) > 0 && c.Procs != 0:
		return 0, fmt.Errorf("core: campaign sets both procs and scales")
	case len(c.Inputs) > 0 && c.Input != Small:
		return 0, fmt.Errorf("core: campaign sets both input and inputs")
	case len(c.Scales) == 0 && (c.Procs < 1 || c.Procs > maxProcs):
		return 0, fmt.Errorf("core: campaign procs %d out of range (1..%d)", c.Procs, maxProcs)
	case r.MinFaults < 0 || c.MinFaults > c.MaxFaults:
		return 0, fmt.Errorf("core: campaign min_faults %d outside 0..max_faults (%d)", r.MinFaults, c.MaxFaults)
	case c.MaxFaults > maxFaults:
		return 0, fmt.Errorf("core: campaign max_faults %d above %d", c.MaxFaults, maxFaults)
	case c.Reps > maxReps:
		return 0, fmt.Errorf("core: campaign reps %d above %d", c.Reps, maxReps)
	}
	for _, p := range c.Scales {
		if valid := tableIScales(); !slices.Contains(valid, p) {
			return 0, fmt.Errorf("core: campaign scale %d is not a Table I scale %v", p, valid)
		}
	}
	// resolve rejects a factor above 1; a negative one is Configs' "leave
	// Config.Replica alone" sentinel and would never reach resolve.
	for _, f := range c.ReplicaFactors {
		if f < 0 {
			return 0, fmt.Errorf("core: replica factor %g outside [0,1]", f)
		}
	}
	n := 0
	c.each(func(Config) bool {
		n++
		return n <= maxCells
	})
	switch {
	case n == 0: // LULESH at 128
		return 0, fmt.Errorf("core: Table I prescribes none of the scales %v for the apps %v", c.Scales, c.Apps)
	case n > maxCells:
		return 0, fmt.Errorf("core: campaign enumerates more than %d cells", maxCells)
	}
	var err error
	c.each(func(cfg Config) bool {
		_, err = resolve(cfg)
		return err == nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// scalesOf lists the process counts a canonical request runs app at: Procs,
// or the listed scales Table I prescribes for the app, in Table I order.
func (r CampaignRequest) scalesOf(app string) []int {
	if len(r.Scales) == 0 {
		return []int{r.Procs}
	}
	return slices.DeleteFunc(ProcCounts(app), func(p int) bool { return !slices.Contains(r.Scales, p) })
}

// Configs enumerates the run matrix: app x detector x policy x factor x
// scale x input x k x design (x hot-spare for the replica design), k =
// MinFaults..MaxFaults — the one place sweep cells are enumerated. A k=1
// cell is configured exactly like the paper's single-failure runs (same
// seed, same draw), so campaign output embeds the calibrated Figure 6/9
// numbers verbatim.
func (r CampaignRequest) Configs() []Config {
	var out []Config
	r.each(func(cfg Config) bool {
		out = append(out, cfg)
		return true
	})
	return out
}

// each calls yield with the cells of Configs in order until yield returns
// false, so a caller that only looks at cells holds none of them.
func (r CampaignRequest) each(yield func(Config) bool) {
	r = r.Canonical()
	factors := r.ReplicaFactors
	if len(factors) == 0 {
		factors = []float64{-1} // sentinel: leave Config.Replica alone
	}
	inputs := r.Inputs
	if len(inputs) == 0 {
		inputs = []InputSize{r.Input}
	}
	for _, app := range r.Apps {
		scales := r.scalesOf(app)
		if len(scales) == 0 {
			continue // before the other axes, so Validate's count ends within maxCells+1 steps
		}
		for _, dc := range r.Detectors {
			for _, pc := range r.Policies {
				for _, rf := range factors {
					for _, procs := range scales {
						for _, in := range inputs {
							for k := r.MinFaults; k <= r.MaxFaults; k++ {
								for _, d := range r.Designs {
									// Respawn is a replica-only axis: the other
									// designs run each cell exactly once, whatever
									// the swept variant list contains.
									variants := []bool{false}
									if d == ReplicaFTI {
										variants = r.HotSpares
									}
									for _, hs := range variants {
										cfg := Config{
											App:          app,
											Design:       d,
											Procs:        procs,
											Input:        in,
											Faults:       k,
											FaultSeed:    r.Seed,
											Detector:     dc,
											CkptPolicy:   pc,
											ModelIngress: r.ModelIngress,
										}
										if rf >= 0 {
											cfg.Replica = replicaConfigFor(rf)
										}
										cfg.Replica.HotSpare = hs
										if !yield(cfg) {
											return
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// CampaignRunner is the execution environment every sweep runs in — a
// CampaignRequest's matrix (Run) or any other list of cells (Cells) —
// everything that is not cell identity. The zero value runs in-process on
// GOMAXPROCS workers with no observers and no cache.
type CampaignRunner struct {
	// Workers bounds the sweep worker pool; 0 means GOMAXPROCS.
	Workers int
	// Progress observes every completed cell (side channel only; campaign
	// stdout and CSV are diffed by the determinism gate).
	Progress Progress
	// Meter aggregates per-cell metric registries into the live sweep
	// meter behind /metrics and /status.
	Meter *obs.SweepMeter
	// Log receives cell lifecycle and in-run structured events.
	Log *obs.Log
	// Store, when non-nil, memoizes cells: before simulating a cell the
	// runner looks its CellKey up and reuses the stored Breakdown on a
	// hit; every simulated cell is stored back. Overlapping sweeps sharing
	// a store skip already-simulated cells; a warm rerun of an identical
	// campaign simulates nothing and is byte-identical to the cold run.
	Store *store.Store
}

// Run executes the request's matrix on the runner's worker pool, writes
// the per-app campaign tables to w (unless w is nil), and returns the raw
// results, ordered like Configs regardless of worker count or cache hits.
func (rn CampaignRunner) Run(req CampaignRequest, w io.Writer) ([]Result, error) {
	req = req.Canonical()
	results, err := rn.Cells(req.Configs(), req.Reps)
	if err != nil {
		return results, err
	}
	if w != nil {
		WriteCampaign(w, results)
	}
	return results, nil
}

// dedupe keeps the first occurrence of each axis value, in order, so a
// repeated entry cannot duplicate campaign cells.
func dedupe[T comparable](vs []T) []T {
	var out []T
	seen := map[T]bool{}
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// CellKey is the content address of rep rep (counted from 1) of a cell:
// the hex SHA-256 of the JSON encoding of repConfig(cfg, rep)'s resolved
// form — the same value Run executes (see resolve). Two configurations
// that Run identically — one spelling defaults out, one leaving them zero
// — produce the same key, and so do all reps of a cell whose resolved form
// drops the seed; any change to an axis the simulation consumes, or to
// cacheVersion, produces a different one. rep < 1 is an error.
func CellKey(cfg Config, rep int) (string, error) {
	if rep < 1 {
		return "", fmt.Errorf("core: repetition %d invalid (reps count from 1)", rep)
	}
	rc, err := resolve(repConfig(cfg, rep))
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(rc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// cachedCellWords is the length, in 8-byte words, of a stored cell: the
// cacheVersion word and one word per Breakdown field, an array one word per
// element.
const cachedCellWords = 29

// encodeCachedCell is the stored value of one cell: one rep's Breakdown as
// a fixed little-endian record, version-stamped (belt and braces — the
// version is already in the key). The fields follow in declaration order,
// times and counts as int64, Signature as its Float64bits and Completed as
// 0 or 1.
func encodeCachedCell(bd Breakdown) []byte {
	completed := int64(0)
	if bd.Completed {
		completed = 1
	}
	w := make([]int64, 0, cachedCellWords)
	w = append(w, int64(cacheVersion),
		int64(bd.Total), int64(bd.App), int64(bd.Ckpt), int64(bd.Recovery),
		int64(bd.DetectLatency), int64(bd.DetectedFailures),
		int64(math.Float64bits(bd.Signature)), int64(bd.Recoveries),
		int64(bd.FaultsInjected), completed, int64(bd.CkptCount), bd.CkptBytes)
	for _, n := range bd.CkptCountAt {
		w = append(w, int64(n))
	}
	w = append(w, bd.CkptBytesAt[:]...)
	w = append(w, int64(bd.CkptAvoided), bd.Messages, bd.NetBytes,
		int64(bd.Respawns), int64(bd.SpawnTime), int64(bd.LeakedEvents))
	return enc.Int64sToBytes(w)
}

// decodeCachedCell reads encodeCachedCell's record. Any other length or
// version, or a Completed word other than 0 or 1, is an error, so an entry
// in another format (the JSON of older builds) is a miss and re-simulates.
func decodeCachedCell(b []byte) (Breakdown, error) {
	if len(b) != 8*cachedCellWords {
		return Breakdown{}, fmt.Errorf("core: cached cell is %d bytes, want %d", len(b), 8*cachedCellWords)
	}
	next := func() int64 {
		v := enc.Int64(b)
		b = b[8:]
		return v
	}
	if v := next(); v != int64(cacheVersion) {
		return Breakdown{}, fmt.Errorf("core: cached cell version %d, want %d", v, cacheVersion)
	}
	var bd Breakdown
	bd.Total = simnet.Time(next())
	bd.App = simnet.Time(next())
	bd.Ckpt = simnet.Time(next())
	bd.Recovery = simnet.Time(next())
	bd.DetectLatency = simnet.Time(next())
	bd.DetectedFailures = int(next())
	bd.Signature = math.Float64frombits(uint64(next()))
	bd.Recoveries = int(next())
	bd.FaultsInjected = int(next())
	switch v := next(); v {
	case 0, 1:
		bd.Completed = v == 1
	default:
		return Breakdown{}, fmt.Errorf("core: cached cell Completed word %d, want 0 or 1", v)
	}
	bd.CkptCount = int(next())
	bd.CkptBytes = next()
	for i := range bd.CkptCountAt {
		bd.CkptCountAt[i] = int(next())
	}
	for i := range bd.CkptBytesAt {
		bd.CkptBytesAt[i] = next()
	}
	bd.CkptAvoided = int(next())
	bd.Messages = next()
	bd.NetBytes = next()
	bd.Respawns = int(next())
	bd.SpawnTime = simnet.Time(next())
	bd.LeakedEvents = int(next())
	return bd, nil
}

// MarshalJSON renders a design as its canonical CLI spelling ("ulfm"), so
// campaign requests and results read naturally on the wire. An
// out-of-range value falls back to its number.
func (d Design) MarshalJSON() ([]byte, error) {
	for _, v := range Designs() {
		if v == d {
			return json.Marshal(d.ShortName())
		}
	}
	return json.Marshal(int(d))
}

// UnmarshalJSON accepts both spellings ParseDesign does, plus the numeric
// form for compatibility with mechanically generated requests.
func (d *Design) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, perr := ParseDesign(s)
		if perr != nil {
			return perr
		}
		*d = v
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("core: design must be a name or a number, got %s", b)
	}
	*d = Design(n)
	return nil
}

// ParseInputSize resolves a problem-size name case-insensitively.
func ParseInputSize(name string) (InputSize, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "small", "s":
		return Small, nil
	case "medium", "m":
		return Medium, nil
	case "large", "l":
		return Large, nil
	}
	return 0, fmt.Errorf("core: unknown input size %q (valid: Small, Medium, Large)", name)
}

// MarshalJSON renders an input size by name ("Small").
func (s InputSize) MarshalJSON() ([]byte, error) {
	if s >= Small && s <= Large {
		return json.Marshal(s.String())
	}
	return json.Marshal(int(s))
}

// UnmarshalJSON accepts names (any case) and numbers.
func (s *InputSize) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err == nil {
		v, perr := ParseInputSize(str)
		if perr != nil {
			return perr
		}
		*s = v
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("core: input size must be a name or a number, got %s", b)
	}
	*s = InputSize(n)
	return nil
}
