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

// The job-launcher cost model: typical mpirun redeployment costs on a
// cluster of the paper's scale. The replica design's checkpoint-only
// fallback pays the same launcher sequence.
const (
	// DetectDelay is the time for the launcher to notice a dead rank
	// (waitpid on the orted/slurmstepd chain). It applies only under the
	// Launcher detector; an in-band detector replaces it with its own
	// confirmation latency.
	DetectDelay = 500 * simnet.Millisecond
	// TeardownDelay covers killing surviving ranks and cleaning up.
	TeardownDelay = 500 * simnet.Millisecond
	// LaunchBase is the fixed redeployment cost (allocation handshake,
	// binary broadcast, wire-up).
	LaunchBase = 5 * simnet.Second
	// LaunchPerProc is the per-rank start cost (fork/exec, MPI_Init
	// wire-up grows with job size).
	LaunchPerProc = 4 * simnet.Millisecond
	// MaxRelaunches bounds restart loops (safety against repeated failure).
	MaxRelaunches = 8
)

// Supervisor relaunches a job until it completes without a failure.
type Supervisor struct {
	cluster *simnet.Cluster
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
// with failure detector dcfg (the Launcher detector is Restart's own) and
// returns the supervisor; drive the cluster's scheduler to completion
// afterwards. Block placement mirrors mpi.Launch. An invalid detector
// configuration panics; validate with detect.Config.Validate (core.Run
// does) before constructing.
func Supervise(c *simnet.Cluster, dcfg detect.Config, n int, main func(*mpi.Rank)) *Supervisor {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i * c.NumNodes() / n
	}
	s := &Supervisor{cluster: c, dcfg: dcfg, n: n, nodes: nodes, main: main}
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
	// Under the Launcher detector the waitpid chain needs DetectDelay to
	// act; an in-band detector has already paid its latency and notifies
	// the launcher at confirmation.
	delay := DetectDelay
	if s.dcfg.Kind != detect.Launcher {
		delay = 0
	}
	sched := s.cluster.Scheduler()
	sched.After(delay, func() {
		abortedAt := s.cluster.Now()
		job.Abort()
		if len(s.Recoveries) >= MaxRelaunches {
			s.GaveUp = true
			return
		}
		relaunchDelay := TeardownDelay + LaunchBase + simnet.Time(s.n)*LaunchPerProc
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
