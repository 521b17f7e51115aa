package detect

import "match/internal/mpi"

// treeDetector is the daemon supervision tree, extracted from the Reinit
// runtime (Reinit++'s model) and generalized. Node-local runtime daemons
// see the exact death time of their children (SIGCHLD), so FailedAt is the
// true death; confirmation happens at the supervision period's granularity
// once DetectTimeout has elapsed. When HeartbeatBytes or InterferenceSteal
// are non-zero, each period additionally sends one heartbeat from every
// alive member to its parent in a binomial tree and steals a flat slice of
// CPU per member — the knobs that make the tree's interference comparable
// to the ring's in ablation sweeps (Reinit's calibrated preset keeps both
// at zero).
type treeDetector struct {
	base
}

// recordDeath is the local daemon seeing the SIGCHLD of any process of
// the job (New registers it with mpi.Job.OnDeath): the exact death time is
// noted; confirmation waits for the supervision loop, which confirms only
// members of the watch set.
func (d *treeDetector) recordDeath(p *mpi.Process) {
	if _, ok := d.observed[p.GID()]; !ok {
		d.observed[p.GID()] = d.job.Cluster().Now()
	}
}

// tick is the daemon supervision loop.
func (d *treeDetector) tick() {
	if d.stopped {
		return
	}
	cl := d.job.Cluster()
	now := cl.Now()
	if d.cfg.HeartbeatBytes > 0 || d.cfg.InterferenceSteal > 0 {
		alive := aliveOf(d.procs)
		for i, p := range alive {
			if d.cfg.HeartbeatBytes > 0 && i > 0 {
				parent := alive[(i-1)/2]
				cl.SendArrival(p.NodeID(), parent.NodeID(), d.cfg.HeartbeatBytes, now)
			}
			d.job.Steal(p.GID(), d.cfg.InterferenceSteal)
		}
	}
	allExited := true
	// Snapshot: onDetect may swap the watch set mid-scan (Reinit's global
	// restart rebuilds the world); the rest of this round still inspects
	// the membership it started with, like the original runtime loop did.
	procs := d.procs
	for _, p := range procs {
		if p.Running() {
			allExited = false
		}
		if !p.Failed() || d.confirmed[p.GID()] {
			continue
		}
		gid := p.GID()
		failed, ok := d.observed[gid]
		if !ok {
			failed = now
			d.observed[gid] = now
		}
		if now-failed >= d.cfg.DetectTimeout {
			d.confirm(Failure{GID: gid, FailedAt: failed, DetectedAt: now})
			allExited = false
		}
	}
	if allExited {
		return // job finished; let the scheduler drain
	}
	cl.Scheduler().AfterFunc(d.cfg.HeartbeatPeriod, treeTick, d, 0)
}
