// The observer seam. A simulator layer reports one event as one
// trace.Span through one call, Probe.Emit; the metrics registry, the trace
// recorder and the event log are consumers of that span. What each
// consumer makes of a category is written down once, in the two tables
// below (the recorder keeps the span as it is), so the three views of a run
// cannot drift apart: one event, one Emit.

package obs

import "match/internal/trace"

// Probe fans the spans of one run out to its attached observers. The zero
// of *Probe — nil — is the inert default: On reports false, so an
// unobserved run pays one branch per potential emission and evaluates no
// span argument.
type Probe struct {
	reg *Registry
	rec *trace.Recorder
	log *Log
}

// NewProbe returns the probe over the given observers, any of which may be
// nil; with none attached it returns the inert nil probe.
func NewProbe(reg *Registry, rec *trace.Recorder, log *Log) *Probe {
	if reg == nil && rec == nil && log == nil {
		return nil
	}
	return &Probe{reg: reg, rec: rec, log: log}
}

// On reports whether some attached observer consumes category c. Layers
// guard every Emit — and the preparation of its span — behind it.
func (p *Probe) On(c trace.Cat) bool {
	if p == nil {
		return false
	}
	return p.reg != nil && spanCount[c] != nil ||
		p.log != nil && spanLine[c] != nil ||
		p.rec.Wants(c)
}

// Emit hands one span to every observer that consumes its category. The
// recorder's detail mask gates only the recorder.
func (p *Probe) Emit(s trace.Span) {
	if p == nil {
		return
	}
	if count := spanCount[s.Cat]; count != nil && p.reg != nil {
		count(p.reg, s)
	}
	if line := spanLine[s.Cat]; line != nil && p.log != nil {
		line(p.log, s)
	}
	if p.rec.Wants(s.Cat) {
		p.rec.Emit(s)
	}
}

// JobOf interns a job identity for Span.Job (see trace.Recorder.JobOf); 0
// when no recorder is attached.
func (p *Probe) JobOf(key any) int32 {
	if p == nil {
		return 0
	}
	return p.rec.JobOf(key)
}

// NewActor allocates an actor id for Span.Actor (see
// trace.Recorder.NewActor); 0 when no recorder is attached.
func (p *Probe) NewActor() int32 {
	if p == nil {
		return 0
	}
	return p.rec.NewActor()
}

// Add adds n to counter c: the call for bookkeeping that only the
// registry consumes (scheduler events and slots, the delivery pool) and
// that is therefore no span.
func (p *Probe) Add(c Counter, n int64) {
	if p != nil {
		p.reg.Add(c, n)
	}
}

// SetMax raises gauge g to v, like Add for the registry's gauges.
func (p *Probe) SetMax(g Gauge, v int64) {
	if p != nil {
		p.reg.SetMax(g, v)
	}
}

// spanCount is the registry's side of the seam: what a span of each
// category adds to the counters and histograms. A category without an
// entry is not counted.
var spanCount = [trace.NumCats]func(*Registry, trace.Span){
	trace.CatInject:      inc(CInjections),
	trace.CatNodeFail:    inc(CNodeFailures),
	trace.CatHeartbeat:   inc(CHeartbeats),
	trace.CatCollective:  inc(CCollectives),
	trace.CatDedup:       inc(CDedupDrops),
	trace.CatRestore:     inc(CRestores),
	trace.CatPolicyArm:   inc(CPolicyArms),
	trace.CatPolicyAvoid: inc(CPolicyAvoids),
	trace.CatFailover:    inc(CFailovers),
	trace.CatAbsorb:      inc(CAbsorbs),
	trace.CatFallback:    inc(CFallbacks),
	trace.CatRepair:      inc(CRepairs),
	trace.CatDetect:      incTimed(CDetections, HDetectNs),
	trace.CatRecovery:    incTimed(CRecoveries, HRecoveryNs),
	trace.CatSend: func(r *Registry, s trace.Span) {
		r.Inc(CMessages)
		r.Add(CMsgBytes, s.Aux)
		r.Observe(HMsgBytes, s.Aux)
		r.IncRankSend(int(s.Rank))
	},
	trace.CatCkpt: func(r *Registry, s trace.Span) { r.Ckpt(int(s.Level), s.Aux) },
	trace.CatSpawn: func(r *Registry, s trace.Span) {
		if s.Level == 0 {
			r.Inc(CRespawns)
		} else {
			r.Inc(CRespawnsAborted)
		}
	},
	trace.CatLeak: func(r *Registry, s trace.Span) { r.Add(CLeakedEvents, s.Aux) },
}

func inc(c Counter) func(*Registry, trace.Span) {
	return func(r *Registry, _ trace.Span) { r.Inc(c) }
}

func incTimed(c Counter, h Hist) func(*Registry, trace.Span) {
	return func(r *Registry, s trace.Span) {
		r.Inc(c)
		r.Observe(h, s.Dur)
	}
}

// spanLine is the event log's side of the seam: the lifecycle line a span
// of each category renders as. A category without an entry is not logged.
var spanLine = [trace.NumCats]func(*Log, trace.Span){
	trace.CatInject: func(l *Log, s trace.Span) {
		kind := "process"
		if s.Level == 1 {
			kind = "node"
		}
		l.Event(s.Start, "inject", "rank", s.Rank, "replica", s.Replica,
			"kind", kind, "absorbed", s.Aux == 1)
	},
	trace.CatNodeFail: func(l *Log, s trace.Span) {
		l.Event(s.Start, "node_fail", "node", s.Aux)
	},
	trace.CatDetect: func(l *Log, s trace.Span) {
		l.Event(s.Start+s.Dur, "detect", "gid", s.Aux, "latency_s", float64(s.Dur)/1e9)
	},
	trace.CatFailover: func(l *Log, s trace.Span) {
		l.Event(s.Start, "failover", "rank", s.Rank, "replica", s.Replica, "gid", s.Aux)
	},
	trace.CatAbsorb: func(l *Log, s trace.Span) {
		l.Event(s.Start, "absorb", "rank", s.Rank, "replica", s.Replica, "gid", s.Aux)
	},
	trace.CatFallback: func(l *Log, s trace.Span) {
		l.Event(s.Start, "fallback", "rank", s.Rank, "gid", s.Aux)
	},
	trace.CatSpawn: func(l *Log, s trace.Span) {
		if s.Level == 0 { // an aborted spawn (Level 1) never went live
			l.Event(s.Start+s.Dur, "respawn", "rank", s.Rank, "replica", s.Replica, "node", s.Aux)
		}
	},
}
