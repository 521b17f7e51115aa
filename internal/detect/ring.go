package detect

import (
	"match/internal/simnet"
	"match/internal/trace"
)

// ringDetector is the OCFTL-style in-band ring heartbeat (Bosilca et al.),
// extracted from the ULFM runtime so every design can run under it. Each
// period, every alive member of the watch set emits one heartbeat to its
// ring successor — consuming sender NIC time, which is how background
// detection slows applications down — and pays an interference steal
// scaled by log2(P), modeling the detector's runtime-level collectives. A
// member observed failed stays under observation for DetectTimeout before
// the failure is confirmed; being purely in-band, it hears of no death
// (it registers no mpi.Job.OnDeath hook) and polls each member's state on
// its round, so the ring's FailedAt is the first round that *observed* the
// death, not the death itself.
type ringDetector struct {
	base
}

// tick runs one heartbeat round: emit ring heartbeats, steal detector
// time from every alive member, and confirm peers silent past the timeout.
func (d *ringDetector) tick() {
	if d.stopped {
		return
	}
	cl := d.job.Cluster()
	now := cl.Now()
	steal := d.cfg.InterferenceSteal * simnet.Time(log2ceil(len(d.procs)))
	alive := aliveOf(d.procs)
	for i, p := range alive {
		succ := alive[(i+1)%len(alive)]
		// Ring heartbeat: consumes sender NIC bandwidth.
		cl.SendArrival(p.NodeID(), succ.NodeID(), d.cfg.HeartbeatBytes, now)
		d.job.Steal(p.GID(), steal)
	}
	if p := cl.Probe(); p.On(trace.CatHeartbeat) {
		p.Emit(trace.Span{Cat: trace.CatHeartbeat, Rank: -1, Job: p.JobOf(d.job),
			Start: int64(now), Aux: int64(len(alive))})
	}
	allExited := true
	for _, p := range d.procs {
		if p.Running() {
			allExited = false
		}
		if !p.Failed() || d.confirmed[p.GID()] {
			continue
		}
		gid := p.GID()
		first, ok := d.observed[gid]
		if !ok {
			d.observed[gid] = now
			first = now
		}
		if now-first >= d.cfg.DetectTimeout {
			// Failure confirmed: the consuming runtime reacts (ULFM marks it
			// detected so blocked operations raise MPIX_ERR_PROC_FAILED).
			d.confirm(Failure{GID: gid, FailedAt: first, DetectedAt: first + d.cfg.DetectTimeout})
		}
	}
	if allExited {
		return
	}
	cl.Scheduler().AfterFunc(d.cfg.HeartbeatPeriod, ringTick, d, 0)
}
