// Package restart implements the baseline MPI fault-tolerance design: when
// any rank dies, the job launcher (mpirun/srun) tears the whole job down
// and redeploys it from scratch. Application state survives only through
// checkpoints; MPI state is rebuilt by paying the full job-launch cost,
// which is why the paper measures Restart recovery as roughly an order of
// magnitude slower than online recovery (16x Reinit, 2-3x ULFM on average).
//
// Failure detection goes through the shared internal/detect subsystem.
// The preset is the Launcher strategy — the waitpid/SIGCHLD chain sees the
// death instantly and the launcher reacts DetectDelay later. Under an
// in-band detector (ring/tree) the launcher is notified at the detector's
// confirmation instead, so detection latency and heartbeat interference
// become measurable for this design too.
package restart

import (
	"match/internal/detect"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/trace"
)

// Config is the job-launcher cost model.
type Config struct {
	// DetectDelay is the time for the launcher to notice a dead rank
	// (waitpid on the orted/slurmstepd chain). It applies only under the
	// Launcher detection preset; an in-band detector replaces it with its
	// own confirmation latency.
	DetectDelay simnet.Time
	// TeardownDelay covers killing surviving ranks and cleaning up.
	TeardownDelay simnet.Time
	// LaunchBase is the fixed redeployment cost (allocation handshake,
	// binary broadcast, wire-up).
	LaunchBase simnet.Time
	// LaunchPerProc is the per-rank start cost (fork/exec, MPI_Init
	// wire-up grows with job size).
	LaunchPerProc simnet.Time
	// MaxRelaunches bounds restart loops (safety against repeated failure).
	MaxRelaunches int
	// Detect overrides the failure-detection strategy (ablation). The zero
	// value keeps the instant launcher preset.
	Detect detect.Config
}

// Resolved returns the configuration with every zero cost field replaced
// by its calibrated default — exactly the fill Supervise performs.
// Canonicalization (core.CellKey) hashes the resolved form, so an empty
// Config and an explicit DefaultConfig() are the same cache entry.
func (c Config) Resolved() Config {
	def := DefaultConfig()
	if c.DetectDelay == 0 {
		c.DetectDelay = def.DetectDelay
	}
	if c.TeardownDelay == 0 {
		c.TeardownDelay = def.TeardownDelay
	}
	if c.LaunchBase == 0 {
		c.LaunchBase = def.LaunchBase
	}
	if c.LaunchPerProc == 0 {
		c.LaunchPerProc = def.LaunchPerProc
	}
	if c.MaxRelaunches == 0 {
		c.MaxRelaunches = def.MaxRelaunches
	}
	return c
}

// DefaultConfig reflects typical mpirun redeployment costs on a cluster of
// the paper's scale.
func DefaultConfig() Config {
	return Config{
		DetectDelay:   500 * simnet.Millisecond,
		TeardownDelay: 500 * simnet.Millisecond,
		LaunchBase:    5 * simnet.Second,
		LaunchPerProc: 4 * simnet.Millisecond,
		MaxRelaunches: 8,
	}
}

// DetectPreset is Restart's detection model: the launcher's own SIGCHLD
// chain, i.e. instant out-of-band detection.
func (c Config) DetectPreset() detect.Config { return detect.LauncherConfig() }

// Supervisor relaunches a job until it completes without a failure.
type Supervisor struct {
	cluster *simnet.Cluster
	cfg     Config
	dcfg    detect.Config
	n       int
	nodes   []int
	main    func(*mpi.Rank)

	// Jobs lists every launched incarnation, newest last.
	Jobs []*mpi.Job
	// Detectors lists the per-incarnation failure detectors, parallel to
	// Jobs (the harness sums their confirmed failures' latencies).
	Detectors []detect.Detector
	// Recoveries lists the restarts performed; each completes when the
	// redeployed ranks begin executing.
	Recoveries []mpi.Recovery
	// GaveUp is set when MaxRelaunches was exhausted.
	GaveUp bool

	restarting bool
	exitedOK   int
	done       bool
}

// Supervise launches an n-rank job running main under restart supervision
// and returns the supervisor; drive the cluster's scheduler to completion
// afterwards. Block placement mirrors mpi.Launch. An invalid explicit
// detector configuration panics; validate with detect.Config.Validate
// (core.Run does) before constructing.
func Supervise(c *simnet.Cluster, cfg Config, n int, main func(*mpi.Rank)) *Supervisor {
	cfg = cfg.Resolved()
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i * c.NumNodes() / n
	}
	s := &Supervisor{cluster: c, cfg: cfg, n: n, nodes: nodes, main: main}
	s.dcfg = detect.Resolve(cfg.Detect, cfg.DetectPreset())
	s.launch(0)
	return s
}

// Done reports whether a job incarnation completed with every rank exiting
// normally.
func (s *Supervisor) Done() bool { return s.done }

// CurrentJob returns the newest incarnation.
func (s *Supervisor) CurrentJob() *mpi.Job { return s.Jobs[len(s.Jobs)-1] }

func (s *Supervisor) launch(delay simnet.Time) {
	s.restarting = false
	s.exitedOK = 0
	job := mpi.LaunchPlaced(s.cluster, s.nodes, delay, s.main)
	s.Jobs = append(s.Jobs, job)
	for _, p := range job.World().Members() {
		p.SimProc().OnExit(func(sp *simnet.Proc) {
			if job == s.CurrentJob() && sp.Status() == simnet.ExitOK {
				s.exitedOK++
				if s.exitedOK == s.n {
					s.done = true
				}
			}
		})
	}
	det := detect.MustNew(s.dcfg, job, func(f detect.Failure) { s.onFailure(job, f) })
	det.SetWorld(job.World())
	s.Detectors = append(s.Detectors, det)
}

// onFailure reacts to a confirmed rank failure: the launcher aborts the
// job and redeploys it.
func (s *Supervisor) onFailure(job *mpi.Job, f detect.Failure) {
	if job != s.CurrentJob() || s.restarting || job.Aborted() {
		return // stale incarnation, or kills caused by our own teardown
	}
	s.restarting = true
	// One failure dooms the incarnation; stop confirming the teardown kills
	// that follow.
	s.Detectors[len(s.Detectors)-1].Stop()
	failedRank := job.World().RankOf(f.GID)
	// Under the launcher preset the waitpid chain needs DetectDelay to act;
	// an in-band detector has already paid its latency and notifies the
	// launcher at confirmation.
	delay := s.cfg.DetectDelay
	if s.dcfg.Kind != detect.Launcher {
		delay = 0
	}
	sched := s.cluster.Scheduler()
	sched.After(delay, func() {
		abortedAt := s.cluster.Now()
		job.Abort()
		if len(s.Recoveries) >= s.cfg.MaxRelaunches {
			s.GaveUp = true
			return
		}
		relaunchDelay := s.cfg.TeardownDelay + s.cfg.LaunchBase +
			simnet.Time(s.n)*s.cfg.LaunchPerProc
		s.Recoveries = append(s.Recoveries, mpi.Recovery{
			Rank:        failedRank,
			FailedAt:    f.FailedAt,
			CompletedAt: abortedAt + relaunchDelay,
		})
		if p := s.cluster.Probe(); p.On(trace.CatRepair) {
			p.Emit(trace.Span{Cat: trace.CatRepair, Rank: int32(failedRank),
				Job: p.JobOf(job), Start: int64(abortedAt + relaunchDelay), Aux: 1})
		}
		s.launch(relaunchDelay)
	})
}
