package detect

import "match/internal/mpi"

// launcherDetector is the out-of-band baseline: the job launcher's
// waitpid/SIGCHLD chain observes every process death the instant it
// happens, so detection latency is exactly zero and no detector traffic or
// interference exists. Like waitpid, it sees every process its job
// started, in its watch set or not: New registers onDeath on the job
// (mpi.Job.OnDeath), which mpi.Job.Start calls right after marking a
// killed rank failed. This is the implicit model Restart and Replica
// supervision always had; any launcher-side reaction delay (the time for
// mpirun to act on what it saw) belongs to the consuming design's cost
// model, not to detection.
type launcherDetector struct {
	base
}

func (d *launcherDetector) onDeath(p *mpi.Process) {
	if d.stopped {
		return
	}
	gid := p.GID()
	now := d.job.Cluster().Now()
	if _, ok := d.observed[gid]; !ok {
		d.observed[gid] = now
	}
	d.confirm(Failure{GID: gid, FailedAt: now, DetectedAt: now})
}
