// Package match is the public facade of MATCH-Go, a reproduction of
// "MATCH: An MPI Fault Tolerance Benchmark Suite" (IISWC 2020) as a pure
// Go library: six HPC proxy applications wired to four MPI fault-
// tolerance designs — the paper's three (FTI checkpointing combined with
// Restart, Reinit, or ULFM recovery) plus ReplicaFTI, a replication-based
// design in the spirit of the paper's §V-E extension invitation — running
// on a deterministic discrete-event cluster simulation.
//
// Typical use:
//
//	bd, err := match.Run(match.Config{
//		App:    "HPCCG",
//		Design: match.ReinitFTI,
//		Procs:  64,
//		Input:  match.Small,
//	})
//
// See cmd/match for the CLI, cmd/matchsuite for regenerating every table
// and figure of the paper, and cmd/matchdep for the checkpoint data-object
// analysis (Algorithm 1).
package match

import (
	"io"

	"match/internal/apps"
	"match/internal/apps/appkit"
	"match/internal/ckpt"
	"match/internal/core"
	"match/internal/depanal"
	"match/internal/fault"
	"match/internal/obs"
	"match/internal/replica"
	"match/internal/store"
	"match/internal/trace"
)

// Re-exported harness types.
type (
	// Config describes one benchmark run.
	Config = core.Config
	// Breakdown is the measured execution-time breakdown.
	Breakdown = core.Breakdown
	// Design selects the fault-tolerance composition.
	Design = core.Design
	// InputSize selects Small/Medium/Large from Table I.
	InputSize = core.InputSize
	// Result pairs a config with its breakdown.
	Result = core.Result
	// Params configures a custom application run.
	Params = appkit.Params
	// App is the application contract for extending the suite.
	App = appkit.App
	// ReplicaConfig holds the replication design's settable knobs (dup
	// degree, partial replication factor, failover detection and election
	// delays, hot-spare respawn with its spawn delay and bandwidth); set it
	// as Config.Replica. A zero field selects its calibrated default; the
	// rest of the design's cost model, its checkpoint-only fallback
	// included, is fixed.
	ReplicaConfig = replica.Config
	// FaultSchedule is an ordered multi-failure injection schedule; set it
	// as Config.Schedule for explicit campaigns, or let Config.Faults draw
	// one deterministically from the seed.
	FaultSchedule = fault.Schedule
	// CampaignRequest is the canonical, serializable description of a sweep
	// (k = MinFaults..MaxFaults failures per run, per app, design, scale and
	// input size): the axes as pure data; a paper figure is one
	// (FigureRequest). Its version-stamped canonical JSON (defaults filled)
	// is the campaign's identity — the cache key, and the campaign ID on a
	// matchserve instance. The zero value is the full default campaign.
	CampaignRequest = core.CampaignRequest
	// CampaignRunner is the execution environment every sweep runs in:
	// worker pool size, progress/metering/logging observers, and an
	// optional content-addressed ResultStore that memoizes cells across
	// sweeps. The zero value runs in-process with no observers.
	// Cells(cfgs, reps) is the one sweep executor (one row per config, the
	// mean of its reps; results ordered like cfgs; on an error, the cells
	// before the failing one plus that error — a cell that panics or trips
	// the virtual deadline is such an error, never a dead process);
	// Run(req, w) is Cells over the request's matrix plus the per-app tables
	// written to w.
	CampaignRunner = core.CampaignRunner
	// ResultStore is a content-addressed cell cache (in-memory LRU front,
	// optional disk backing); share one across campaigns — or attach it to
	// matchserve — so overlapping sweeps skip already-simulated cells.
	ResultStore = store.Store
	// CacheStats summarizes a ResultStore's traffic (hits, misses,
	// simulated-and-stored cells, evictions).
	CacheStats = store.Stats
	// Crossover is the campaign-level Replica-vs-Reinit analysis.
	Crossover = core.Crossover
	// CkptPolicyConfig selects and tunes the checkpoint-placement policy
	// any design runs under (fixed stride / multi-level interleaving /
	// replica-aware stretching / adaptive Young–Daly); set it as
	// Config.CkptPolicy, or sweep a list via CampaignRequest.Policies.
	CkptPolicyConfig = ckpt.Config
	// CkptPolicyKind names a checkpoint-placement strategy.
	CkptPolicyKind = ckpt.Kind
)

// The checkpoint-placement strategies (Config.CkptPolicy.Kind).
// FixedPlacement — the zero value — keeps the classic stride placement.
const (
	FixedPlacement        = ckpt.Fixed
	MultiLevelPlacement   = ckpt.MultiLevel
	ReplicaAwarePlacement = ckpt.ReplicaAware
	AdaptivePlacement     = ckpt.Adaptive
	NeverPlacement        = ckpt.Never
)

// ParseCkptPolicyKind resolves a placement-policy name ("fixed",
// "multi-level", "replica-aware", "adaptive", "never") case-insensitively.
func ParseCkptPolicyKind(name string) (CkptPolicyKind, error) { return ckpt.ParseKind(name) }

// The four fault-tolerance designs.
const (
	RestartFTI = core.RestartFTI
	ReinitFTI  = core.ReinitFTI
	UlfmFTI    = core.UlfmFTI
	ReplicaFTI = core.ReplicaFTI
)

// The three input problem sizes.
const (
	Small  = core.Small
	Medium = core.Medium
	Large  = core.Large
)

// Run executes one configuration and returns its breakdown. A simulation
// that deadlocks trips the scheduler's virtual deadline and comes back as an
// error ("core: virtual deadline ... exceeded") with the partial breakdown.
func Run(cfg Config) (Breakdown, error) { return core.Run(cfg) }

// NewMemoryResultStore returns a memory-only result store (tests, or
// sharing cells between campaigns within one process).
func NewMemoryResultStore(maxEntries int) *ResultStore { return store.NewMemory(maxEntries) }

// CellKey is the content address of rep rep (counted from 1) of a campaign
// cell: the hex SHA-256 of the resolved cell Run executes (defaults filled,
// observers and inactive designs excluded, version-stamped). Rep r runs
// with fault seed FaultSeed + 1009·(r−1). Two configs that Run identically
// share a key, so all reps of a failure-free cell share rep 1's.
func CellKey(cfg Config, rep int) (string, error) { return core.CellKey(cfg, rep) }

// ParseInputSize resolves a problem-size name ("Small", "medium", "L")
// case-insensitively.
func ParseInputSize(name string) (InputSize, error) { return core.ParseInputSize(name) }

// ParseFaultSchedule parses the campaign DSL, e.g. "3@40,3@55:after=1"
// (rank@iter[:after=N][:replica=R][:kind=node]).
func ParseFaultSchedule(spec string) (FaultSchedule, error) {
	return fault.ParseSchedule(spec)
}

// ComputeCrossover derives the Replica-vs-Reinit crossover analysis from
// campaign results: the failure count from which replication wins
// end-to-end.
func ComputeCrossover(results []Result) Crossover {
	return core.ComputeCrossover(results)
}

// FigureRequest returns the sweep behind one of the paper's evaluation
// figures (5-10) over all of Table I; narrow Apps or Scales like any other
// request before running it.
func FigureRequest(fig int) (CampaignRequest, error) { return core.FigureRequest(fig) }

// WriteTableI renders the paper's Table I with the reproduction's
// scaled-down equivalents.
func WriteTableI(w io.Writer) { core.WriteTableI(w) }

// WriteCampaign renders the per-app campaign tables (recovery time and
// total overhead vs failure count) from raw results — the same rendering a
// CampaignRunner applies, usable on results fetched from a matchserve
// instance.
func WriteCampaign(w io.Writer, results []Result) { core.WriteCampaign(w, results) }

// Apps lists the registered proxy applications.
func Apps() []string { return apps.Names() }

// RegisterApp adds a custom application to the suite (§V-E: MATCH is meant
// to be extended with new applications and designs).
func RegisterApp(name string, factory func() App) error {
	return apps.Register(name, func() appkit.App { return factory() })
}

// Execution-trace re-exports (internal/trace). Distinct from the
// dependency-analysis Tracer below: a TraceRecorder captures the
// simulation's own timeline — per-rank compute/checkpoint/recovery spans
// plus injector/detector/runtime events — for Perfetto export and
// Breakdown reconciliation.
type (
	// TraceRecorder collects spans from a run; allocate with
	// NewTraceRecorder and set it as Config.Trace (one recorder per run).
	TraceRecorder = trace.Recorder
	// TraceDetail selects which high-volume categories are recorded.
	TraceDetail = trace.Detail
	// TraceTotals are the phase sums a trace reconciles against.
	TraceTotals = trace.Totals
)

// NewTraceRecorder returns an enabled execution-trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// ParseTraceDetail resolves a detail spec — a comma list of "messages",
// "heartbeats", "sim", "all" — case-insensitively; the empty spec keeps
// phase spans only.
func ParseTraceDetail(spec string) (TraceDetail, error) { return trace.ParseDetail(spec) }

// TraceTotalsOf converts a breakdown into the totals a trace recorder
// reconciles against (Run already self-checks this when tracing).
func TraceTotalsOf(bd Breakdown) TraceTotals { return core.TraceTotalsOf(bd) }

// Observability re-exports (internal/obs). Every simulator layer reports
// an event as one span through one probe; a MetricsRegistry, a
// TraceRecorder and an EventLog are the three consumers of that span, so
// they cannot disagree about what happened. A MetricsRegistry is a pure
// observer of one run: set it as Config.Metrics and Run self-checks the
// write-time totals against the returned Breakdown, failing hard on
// divergence. An EventLog streams the lifecycle events as JSON lines.
type (
	// MetricsRegistry counts simulator activity; allocate with
	// NewMetricsRegistry and set it as Config.Metrics. Unlike a
	// TraceRecorder it may serve a multi-rep cell of CampaignRunner.Cells:
	// each simulated rep reconciles a fresh registry and the caller's
	// receives the merged totals.
	MetricsRegistry = obs.Registry
	// EventLog emits structured JSON events (log/slog); set it as
	// Config.Log.
	EventLog = obs.Log
)

// The headline registry counters (MetricsRegistry.Get). The full set —
// scheduler internals, dedup drops, policy arms, per-level checkpoint
// splits — is in the exposition; these are the ones library callers
// typically assert on.
const (
	CounterMessages    = obs.CMessages
	CounterMsgBytes    = obs.CMsgBytes
	CounterCheckpoints = obs.CCheckpoints
	CounterInjections  = obs.CInjections
	CounterDetections  = obs.CDetections
	CounterFailovers   = obs.CFailovers
	CounterAbsorbs     = obs.CAbsorbs
	CounterRespawns    = obs.CRespawns
)

// NewMetricsRegistry returns an empty, enabled metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// NewEventLog returns an event log writing JSON lines to w.
func NewEventLog(w io.Writer) *EventLog { return obs.NewLog(w) }

// Dependency-analysis re-exports (Algorithm 1).
type (
	// Tracer records dynamic execution traces from instrumented kernels.
	Tracer = depanal.Tracer
	// TraceResult is the outcome of the checkpoint-object analysis.
	TraceResult = depanal.Result
)

// NewTracer returns an empty execution tracer.
func NewTracer() *Tracer { return depanal.NewTracer() }

// AnalyzeTrace runs Algorithm 1 over a recorded trace.
func AnalyzeTrace(t *Tracer) TraceResult { return depanal.Analyze(t.Trace()) }
