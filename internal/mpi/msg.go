package mpi

import (
	"match/internal/obs"
	"match/internal/simnet"
	"match/internal/trace"
)

// delivery is the runtime's send record: one rides the scheduler per
// physical copy on the wire. Records are pooled on the Job and recycled
// the moment the copy is delivered, suppressed, or dropped, and the
// delivery event itself is a static function with the record as its
// argument — so the steady-state message path performs no allocation.
type delivery struct {
	to  *Process
	msg Message
}

// getDelivery takes a send record from the free list.
func (j *Job) getDelivery() *delivery {
	if n := len(j.freeDel); n > 0 {
		d := j.freeDel[n-1]
		j.freeDel = j.freeDel[:n-1]
		j.cluster.Probe().Add(obs.CDeliveriesPooled, 1)
		return d
	}
	j.cluster.Probe().Add(obs.CDeliveriesAlloc, 1)
	return &delivery{}
}

// putDelivery recycles a send record, dropping its payload reference.
func (j *Job) putDelivery(d *delivery) {
	d.to = nil
	d.msg = Message{}
	j.freeDel = append(j.freeDel, d)
}

// Send posts a point-to-point message to rank dst of comm. Sends are eager:
// the runtime buffers the payload, so Send never blocks waiting for the
// receiver (it only charges the sender-side overhead and NIC time). A send
// to a failed process succeeds silently unless the failure has been
// detected — exactly MPI's fail-stop ambiguity.
//
// On a replica-aware communicator, dst is a logical rank: one sequenced
// copy goes to every current member of its replica group (see replica.go).
func Send(r *Rank, c *Comm, dst, tag int, data []byte) error {
	r.chargeOverheads()
	if err := r.opError(c); err != nil {
		return err
	}
	if c.repl != nil {
		return r.sendReplicated(c, dst, tag, data)
	}
	to := c.Member(dst)
	if to.state == failed && r.job.Detected(to.gid) {
		return ErrProcFailed
	}
	return r.sendCopy(c, to, c.RankOf(r.proc.gid), tag, data, false, 0)
}

// sendCopy puts one physical copy on the wire: sender overhead, NIC and
// latency charging, non-overtaking ordering, and the delivery event. For
// replicated copies the delivery event also runs duplicate suppression.
func (r *Rank) sendCopy(c *Comm, to *Process, srcRank, tag int, data []byte, replicated bool, seq int64) error {
	cl := r.job.cluster
	r.sp.Compute(simnet.SendOverhead)

	now := r.sp.Now()
	wireBytes := int(cl.Config().Scaled(len(data)))
	var arrive simnet.Time
	if to.gid == r.proc.gid {
		arrive = now + simnet.IntraLatency
	} else {
		arrive = cl.SendArrival(r.proc.node, to.node, wireBytes, now)
	}
	if f := r.job.DeliveryFactor; f > 0 {
		arrive += simnet.Time(f * float64(arrive-now))
	}
	// Enforce MPI's non-overtaking order per (sender, receiver).
	if last := r.proc.lastArr[to.gid]; arrive < last {
		arrive = last
	}
	r.proc.lastArr[to.gid] = arrive

	j := r.job
	d := j.getDelivery()
	d.to = to
	d.msg = Message{
		Ctx:        c.ctx,
		SrcGID:     r.proc.gid,
		SrcRank:    srcRank,
		Tag:        tag,
		Data:       data,
		arrival:    arrive,
		epoch:      j.epoch,
		replicated: replicated,
		seq:        seq,
	}
	to.inflight[r.proc.gid]++
	cl.Scheduler().AtFunc(arrive, deliverMessage, d, 0)
	j.Stats.Messages++
	j.Stats.Bytes += int64(len(data))
	if p := cl.Probe(); p.On(trace.CatSend) {
		p.Emit(trace.Span{Cat: trace.CatSend, Rank: int32(srcRank), Job: p.JobOf(j),
			Start: int64(now), Dur: int64(arrive - now),
			Level: int32(tag), Aux: int64(len(data))})
	}
	return nil
}

// deliverMessage is the static delivery-event body: it lands one physical
// copy at its receiver (or drops it) and recycles the send record.
func deliverMessage(a any, _ int64) {
	d := a.(*delivery)
	to := d.to
	j := to.job
	msg := &d.msg
	to.inflight[msg.SrcGID]--
	if msg.epoch != j.epoch {
		j.putDelivery(d)
		return // flushed by a Reinit reset
	}
	if to.state != running {
		j.putDelivery(d)
		return // dropped on the floor, like a real NIC
	}
	arrive := msg.arrival
	if msg.replicated {
		key := seqKey(msg.Ctx, msg.SrcRank)
		if msg.seq < to.recvSeq[key] {
			j.Stats.Suppressed++
			if p := j.cluster.Probe(); p.On(trace.CatDedup) {
				p.Emit(trace.Span{Cat: trace.CatDedup, Rank: int32(msg.SrcRank),
					Job: p.JobOf(j), Start: int64(arrive), Aux: int64(msg.seq)})
			}
			j.putDelivery(d)
			return // duplicate copy from a twin replica
		}
		to.recvSeq[key] = msg.seq + 1
	}
	to.mbox = append(to.mbox, d.msg)
	j.putDelivery(d)
	if to.blocked {
		to.proc.Unblock(arrive)
	}
	// A rank blocked in Recv may be woken by unrelated events; waking on
	// every delivery keeps the wait loop simple and correct.
}

// match removes and returns the first mailbox message matching the
// (comm, src, tag) triple.
func (p *Process) match(ctx, srcRank, tag int) (Message, bool) {
	for i := range p.mbox {
		m := &p.mbox[i]
		if m.Ctx != ctx {
			continue
		}
		if srcRank != AnySource && m.SrcRank != srcRank {
			continue
		}
		if tag != AnyTag && m.Tag != tag {
			continue
		}
		out := *m
		n := len(p.mbox) - 1
		copy(p.mbox[i:], p.mbox[i+1:])
		p.mbox[n] = Message{}
		p.mbox = p.mbox[:n]
		return out, true
	}
	return Message{}, false
}

// Recv blocks until a message matching (src, tag) arrives on comm. src may
// be AnySource and tag may be AnyTag. If the communicator is revoked while
// waiting, Recv returns ErrRevoked; if the awaited sender's failure is
// detected, ErrProcFailed. An undetected failure hangs — that is the
// whole point of failure detectors.
func Recv(r *Rank, c *Comm, src, tag int) (Message, error) {
	r.chargeOverheads()
	for {
		if err := r.opError(c); err != nil {
			return Message{}, err
		}
		if m, ok := r.proc.match(c.ctx, src, tag); ok {
			r.sp.Compute(simnet.RecvOverhead)
			return m, nil
		}
		if src != AnySource {
			if c.repl != nil {
				// Replica groups have no failure detector: as long as any
				// member lives it will produce the awaited copy; a fully
				// dead group hangs until the replica runtime's checkpoint
				// fallback aborts the job.
				if err := r.replicaGroupGone(c, src); err != nil {
					return Message{}, err
				}
			} else {
				from := c.Member(src)
				if from.state == failed && r.job.Detected(from.gid) {
					return Message{}, ErrProcFailed
				}
				if (from.state == completed || from.state == errored) &&
					r.proc.inflight[from.gid] == 0 {
					// Peer finished the program without sending: protocol bug,
					// or a rank outliving its peers. Fail fast instead of
					// deadlocking the simulation.
					return Message{}, ErrRankExited
				}
			}
		} else if c.repl == nil && anyDetectedFailure(c, r.job) {
			return Message{}, ErrProcFailed
		}
		r.proc.blocked = true
		r.sp.Block()
		r.proc.blocked = false
	}
}

func anyDetectedFailure(c *Comm, j *Job) bool {
	for _, m := range c.members {
		if m.state == failed && j.Detected(m.gid) {
			return true
		}
	}
	return false
}

// Iprobe reports whether a matching message is already available, without
// receiving it.
func Iprobe(r *Rank, c *Comm, src, tag int) bool {
	for i := range r.proc.mbox {
		m := &r.proc.mbox[i]
		if m.Ctx != c.ctx {
			continue
		}
		if src != AnySource && m.SrcRank != src {
			continue
		}
		if tag != AnyTag && m.Tag != tag {
			continue
		}
		return true
	}
	return false
}
