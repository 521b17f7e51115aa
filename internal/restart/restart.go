// Package restart implements the baseline MPI fault-tolerance design: when
// any rank dies, the job launcher (mpirun/srun) tears the whole job down
// and redeploys it from scratch. Application state survives only through
// checkpoints; MPI state is rebuilt by paying the full job-launch cost,
// which is why the paper measures Restart recovery as roughly an order of
// magnitude slower than online recovery (16x Reinit, 2-3x ULFM on average).
//
// The relaunch cycle is Launcher, which the replica design's
// checkpoint-only fallback embeds too. Each incarnation is placed in
// blocks (mpi.BlockPlacement); after a node loss, mpi.Job.AddProcess moves
// a rank placed on the dead node to the cluster's next live node
// (simnet.Cluster.LiveNode), so the relaunched job never starts there.
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

// Launcher is the job launcher's relaunch cycle, shared by this design and
// the replica design's checkpoint-only fallback: it keeps every
// incarnation and its failure detector, and on a doomed incarnation runs
// the one teardown-and-redeploy sequence under this package's cost model.
// A design embeds it, hands it the function that launches one incarnation,
// and books its own Recovery record and span through Relaunch's callback.
type Launcher struct {
	// Jobs lists every launched incarnation, newest last.
	Jobs []*mpi.Job
	// Detectors lists the per-incarnation failure detectors, parallel to
	// Jobs (the harness sums their confirmed failures' latencies).
	Detectors []detect.Detector
	// GaveUp is set when MaxRelaunches was exhausted.
	GaveUp bool

	cluster    *simnet.Cluster
	dcfg       detect.Config
	procs      int // processes per incarnation, priced by LaunchPerProc
	launch     func(delay simnet.Time)
	relaunches int
	restarting bool
}

// NewLauncher returns a launcher on cluster c whose incarnations run procs
// processes, are supervised by detector dcfg, and are started by launch
// (which must call Watch). It launches nothing itself.
func NewLauncher(c *simnet.Cluster, dcfg detect.Config, procs int, launch func(delay simnet.Time)) Launcher {
	return Launcher{cluster: c, dcfg: dcfg, procs: procs, launch: launch}
}

// CurrentJob returns the newest incarnation.
func (l *Launcher) CurrentJob() *mpi.Job { return l.Jobs[len(l.Jobs)-1] }

// Relaunches counts the redeployments performed.
func (l *Launcher) Relaunches() int { return l.relaunches }

// Live reports whether job is the current incarnation and still running:
// not aborted, and not doomed by a relaunch in progress. Anything else is
// a stale incarnation or a kill caused by the launcher's own teardown.
func (l *Launcher) Live(job *mpi.Job) bool {
	return job == l.CurrentJob() && !l.restarting && !job.Aborted()
}

// Watch records job as the new current incarnation and starts its failure
// detector, which reports confirmed failures to onFailure. The design
// points the returned detector at the processes it should watch.
func (l *Launcher) Watch(job *mpi.Job, onFailure func(detect.Failure)) detect.Detector {
	l.restarting = false
	l.Jobs = append(l.Jobs, job)
	det := detect.MustNew(l.dcfg, job, onFailure)
	l.Detectors = append(l.Detectors, det)
	return det
}

// Relaunch tears the current incarnation job down after a confirmed
// failure and redeploys it: the launcher stops the detector, acts
// DetectDelay later (under the Launcher detector; at once under an
// in-band one, which has paid its latency already), aborts the job and,
// unless MaxRelaunches is spent, calls book with the abort time and the
// relaunch delay, then launches the next incarnation after that delay.
func (l *Launcher) Relaunch(job *mpi.Job, book func(abortedAt, delay simnet.Time)) {
	l.restarting = true
	// One failure dooms the incarnation; stop confirming the teardown kills
	// that follow.
	l.Detectors[len(l.Detectors)-1].Stop()
	wait := DetectDelay
	if l.dcfg.Kind != detect.Launcher {
		wait = 0
	}
	l.cluster.Scheduler().After(wait, func() {
		abortedAt := l.cluster.Now()
		job.Abort()
		if l.relaunches >= MaxRelaunches {
			l.GaveUp = true
			return
		}
		l.relaunches++
		delay := TeardownDelay + LaunchBase + simnet.Time(l.procs)*LaunchPerProc
		book(abortedAt, delay)
		l.launch(delay)
	})
}

// Supervisor relaunches a job until it completes without a failure.
type Supervisor struct {
	Launcher
	main func(r *mpi.Rank, world *mpi.Comm) error

	// Recoveries lists the restarts performed; each completes when the
	// redeployed ranks begin executing.
	Recoveries []mpi.Recovery
}

// Supervise launches an n-rank job running main under restart supervision
// with failure detector dcfg (the Launcher detector is Restart's own) and
// returns the supervisor; drive the cluster's scheduler to completion
// afterwards. main runs once per rank on its incarnation's world, and
// mpi.Job.Start records how it ended. An invalid detector configuration
// panics; validate with detect.Config.Validate (core.Run does) before
// constructing.
func Supervise(c *simnet.Cluster, dcfg detect.Config, n int, main func(*mpi.Rank, *mpi.Comm) error) *Supervisor {
	s := &Supervisor{main: main}
	s.Launcher = NewLauncher(c, dcfg, n, s.launch)
	s.launch(0)
	return s
}

// Done reports whether every rank of the current incarnation completed.
func (s *Supervisor) Done() bool {
	for _, p := range s.CurrentJob().World().Leaders() {
		if !p.Completed() {
			return false
		}
	}
	return true
}

func (s *Supervisor) launch(delay simnet.Time) {
	job := mpi.LaunchPlaced(s.cluster, mpi.BlockPlacement(s.procs, s.cluster.NumNodes()), delay,
		func(r *mpi.Rank) error { return s.main(r, r.Job().World()) })
	s.Watch(job, func(f detect.Failure) { s.onFailure(job, f) }).SetProcs(job.World().Leaders())
}

// onFailure reacts to a confirmed rank failure: the launcher aborts the
// job and redeploys it.
func (s *Supervisor) onFailure(job *mpi.Job, f detect.Failure) {
	if !s.Live(job) {
		return
	}
	failedRank := job.World().RankOf(f.GID)
	s.Relaunch(job, func(abortedAt, delay simnet.Time) {
		s.Recoveries = append(s.Recoveries, mpi.Recovery{
			Rank:        failedRank,
			FailedAt:    f.FailedAt,
			CompletedAt: abortedAt + delay,
		})
		if p := s.cluster.Probe(); p.On(trace.CatRepair) {
			p.Emit(trace.Span{Cat: trace.CatRepair, Rank: int32(failedRank),
				Job: p.JobOf(job), Start: int64(abortedAt + delay), Aux: 1})
		}
	})
}
