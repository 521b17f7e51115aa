package detect

import (
	"match/internal/mpi"
	"match/internal/simnet"
)

// launcherDetector is the out-of-band baseline: the job launcher's
// waitpid/SIGCHLD chain observes every process death the instant it
// happens, so detection latency is exactly zero and no detector traffic or
// interference exists. This is the implicit model Restart and Replica
// supervision always had; any launcher-side reaction delay (the time for
// mpirun to act on what it saw) belongs to the consuming design's cost
// model, not to detection.
type launcherDetector struct {
	base
}

func (d *launcherDetector) SetWorld(w *mpi.Comm) { d.SetProcs(w.Leaders()) }

func (d *launcherDetector) SetProcs(ps []*mpi.Process) {
	d.procs = ps
	d.watchNew(ps, d.onExit)
}

func (d *launcherDetector) onExit(p *mpi.Process, sp *simnet.Proc) {
	if d.stopped || !p.Failed() {
		return
	}
	gid := p.GID()
	now := sp.Now()
	if _, ok := d.observed[gid]; !ok {
		d.observed[gid] = now
	}
	d.confirm(Failure{GID: gid, FailedAt: now, DetectedAt: now})
}
