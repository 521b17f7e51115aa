// Package simnet provides a deterministic discrete-event simulation of an
// HPC cluster: a virtual clock, an event scheduler, compute nodes with
// serializing network interfaces, and cooperative simulated processes.
//
// The machine is the paper's testbed (§V-A): 32 nodes of 28-core Haswell on
// an EDR-class interconnect. The paper's findings compare designs on that
// one machine, so its network is six constants, not settings; only the node
// count (Config.Nodes) varies.
//
//	InterLatency  2µs      one-way latency between nodes
//	IntraLatency  500ns    latency between processes on one node
//	InterBWBps    10 GB/s  inter-node NIC bandwidth
//	IntraBWBps    40 GB/s  intra-node copy bandwidth
//	SendOverhead  300ns    per-message CPU cost on the sender
//	RecvOverhead  300ns    per-message CPU cost on the receiver
//
// All higher layers (the simulated MPI runtime, the FTI checkpointing
// library, the recovery frameworks, and the proxy applications) run on top
// of this package. Exactly one simulated process executes at any instant:
// each process body is a coroutine (iter.Pull) that the scheduler resumes
// and that yields back when it parks, so the simulation is deterministic
// and free of data races by construction.
package simnet

import (
	"fmt"

	"match/internal/obs"
	"match/internal/trace"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Common durations, as virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders t as seconds with millisecond precision, e.g. "12.345s".
func (t Time) String() string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (seq breaks ties), which keeps runs reproducible.
//
// Events are stored by value in the scheduler's heap slice, so scheduling
// does not allocate in the steady state. An event carries either a plain
// closure (fn) or a static function plus its argument pair (fnA, arg, aux);
// the latter lets hot callers — process wakeups, message deliveries,
// detector ticks — schedule without building a closure per call.
type event struct {
	t    Time
	seq  uint64
	fn   func()
	fnA  func(arg any, aux int64)
	arg  any
	aux  int64
	slot int32 // index into Scheduler.slots, for cancellation
}

// slotState maps a stable slot id to the event's current heap index. The
// generation counter is bumped every time the slot is freed, so a Timer
// held across its event's firing (or cancellation) can never cancel an
// unrelated later event that reused the slot.
type slotState struct {
	index int32 // heap index; -1 while the slot is free
	gen   uint32
}

// Timer identifies a scheduled event. The zero Timer is valid and refers
// to no event (Cancel on it is a no-op). Timers are plain values: holding
// or dropping one costs nothing.
type Timer struct {
	slot int32
	gen  uint32
}

// Scheduler owns the virtual clock and the event queue. The queue is a
// value-based binary heap with a slot table for O(log n) cancellation;
// slots and heap capacity are recycled, so the schedule/fire/cancel hot
// path is allocation-free once warm.
type Scheduler struct {
	now       Time
	q         []event
	slots     []slotState
	freeSlots []int32
	seq       uint64
	maxTime   Time // 0 means unlimited
	probe     *obs.Probe
}

// NewScheduler returns an empty scheduler at virtual time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// SetDeadline aborts Run once virtual time exceeds d (a safety net against
// livelock in buggy protocols): Run panics with a DeadlineExceeded. Zero
// disables the deadline.
func (s *Scheduler) SetDeadline(d Time) { s.maxTime = d }

// DeadlineExceeded is the value Run panics with when an event lies past the
// deadline. Unit tests let it crash them (the deadlock net); the harness
// recovers exactly this type and reports the cell as failed.
type DeadlineExceeded struct{ Deadline, At Time } // the limit; the first event past it

func (e DeadlineExceeded) Error() string {
	return fmt.Sprintf("simnet: virtual deadline %v exceeded (event at %v); likely deadlock or livelock", e.Deadline, e.At)
}

// At schedules fn to run at virtual time t, which must not be before now:
// scheduling into the past panics with the offending times, so a protocol
// bug is caught at its source instead of silently reordering the run. The
// returned Timer cancels the event via Cancel.
func (s *Scheduler) At(t Time, fn func()) Timer {
	return s.schedule(t, event{fn: fn})
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (s *Scheduler) After(d Time, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// AtFunc schedules fn(arg, aux) at virtual time t. Unlike At, it takes a
// static function plus its argument, so hot paths that would otherwise
// build a closure per call (process wakeups, message deliveries) can
// schedule without allocating.
func (s *Scheduler) AtFunc(t Time, fn func(arg any, aux int64), arg any, aux int64) Timer {
	return s.schedule(t, event{fnA: fn, arg: arg, aux: aux})
}

// AfterFunc is AtFunc relative to now.
func (s *Scheduler) AfterFunc(d Time, fn func(arg any, aux int64), arg any, aux int64) Timer {
	return s.AtFunc(s.now+d, fn, arg, aux)
}

// schedule stamps the event and pushes it onto the heap.
func (s *Scheduler) schedule(t Time, e event) Timer {
	if t < s.now {
		panic(fmt.Sprintf("simnet: event scheduled into the past: t=%v, now=%v (%v late)", t, s.now, s.now-t))
	}
	slot := s.allocSlot()
	e.t, e.seq, e.slot = t, s.seq, slot
	s.seq++
	s.q = append(s.q, e)
	s.siftUp(len(s.q) - 1)
	if p := s.probe; p != nil {
		p.Add(obs.CEventsScheduled, 1)
		p.SetMax(obs.GHeapHighWater, int64(len(s.q)))
	}
	return Timer{slot: slot, gen: s.slots[slot].gen}
}

// Cancel removes the event identified by tm from the queue, eagerly and in
// O(log n). It reports whether an event was removed: false means the timer
// already fired, was already cancelled, or is the zero Timer. Cancelled
// events leave the queue immediately — no tombstones accumulate, and their
// closures are released for collection at once.
func (s *Scheduler) Cancel(tm Timer) bool {
	if tm.gen == 0 || tm.slot < 0 || int(tm.slot) >= len(s.slots) {
		return false
	}
	st := &s.slots[tm.slot]
	if st.gen != tm.gen || st.index < 0 {
		return false
	}
	s.removeAt(int(st.index))
	s.probe.Add(obs.CEventsCancelled, 1)
	return true
}

// allocSlot takes a slot id from the free list, growing the table only
// when every slot is live.
func (s *Scheduler) allocSlot() int32 {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		s.probe.Add(obs.CSlotsReused, 1)
		return slot
	}
	s.slots = append(s.slots, slotState{gen: 1, index: -1})
	s.probe.Add(obs.CSlotsGrown, 1)
	return int32(len(s.slots) - 1)
}

// freeSlot retires a slot: bump the generation (invalidating outstanding
// Timers) and recycle the id.
func (s *Scheduler) freeSlot(slot int32) {
	st := &s.slots[slot]
	st.gen++
	st.index = -1
	s.freeSlots = append(s.freeSlots, slot)
}

// eventLess orders events by (time, sequence) — a strict total order, so
// the fire order is independent of heap shape and byte-identical to the
// previous container/heap implementation.
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// siftUp restores the heap property from index i toward the root, using a
// hole instead of pairwise swaps.
func (s *Scheduler) siftUp(i int) {
	e := s.q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if eventLess(&s.q[parent], &e) {
			break
		}
		s.q[i] = s.q[parent]
		s.slots[s.q[i].slot].index = int32(i)
		i = parent
	}
	s.q[i] = e
	s.slots[e.slot].index = int32(i)
}

// siftDown restores the heap property from index i toward the leaves and
// reports whether the element moved.
func (s *Scheduler) siftDown(i int) bool {
	e := s.q[i]
	start := i
	n := len(s.q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(&s.q[r], &s.q[child]) {
			child = r
		}
		if eventLess(&e, &s.q[child]) {
			break
		}
		s.q[i] = s.q[child]
		s.slots[s.q[i].slot].index = int32(i)
		i = child
	}
	s.q[i] = e
	s.slots[e.slot].index = int32(i)
	return i != start
}

// popMin removes and returns the earliest event.
func (s *Scheduler) popMin() event {
	e := s.q[0]
	s.freeSlot(e.slot)
	n := len(s.q) - 1
	if n > 0 {
		s.q[0] = s.q[n]
	}
	s.q[n] = event{} // release fn/arg references
	s.q = s.q[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return e
}

// removeAt deletes the event at heap index i (cancellation path).
func (s *Scheduler) removeAt(i int) {
	s.freeSlot(s.q[i].slot)
	n := len(s.q) - 1
	if i != n {
		s.q[i] = s.q[n]
		s.q[n] = event{}
		s.q = s.q[:n]
		if !s.siftDown(i) {
			s.siftUp(i)
		}
		return
	}
	s.q[n] = event{}
	s.q = s.q[:n]
}

// Run fires events in time order until the queue drains and returns the
// final virtual time; an event past the deadline makes it panic instead.
//
// The observer check is hoisted out of the drain loop, and the fired count
// is reported once after it: attach the probe (Cluster.SetProbe) before
// Run, not during it.
func (s *Scheduler) Run() Time {
	probe := s.probe
	traceEvents := probe.On(trace.CatEvent)
	var fired int64
	for len(s.q) > 0 {
		e := s.popMin()
		fired++
		if s.maxTime > 0 && e.t > s.maxTime {
			panic(DeadlineExceeded{Deadline: s.maxTime, At: e.t})
		}
		s.now = e.t // never earlier: nothing is scheduled into the past
		if traceEvents {
			probe.Emit(trace.Span{Cat: trace.CatEvent, Rank: -1, Start: int64(e.t), Aux: int64(e.seq)})
		}
		if e.fnA != nil {
			e.fnA(e.arg, e.aux)
		} else {
			e.fn()
		}
	}
	probe.Add(obs.CEventsFired, fired)
	return s.now
}

// Pending reports the number of events that have not fired. Cancelled
// events are removed eagerly, so they never count.
func (s *Scheduler) Pending() int { return len(s.q) }

// Leaked reports the events still pending in the queue — work Run walked
// away from when a deadline stopped it — as a count plus the earliest
// scheduled time. A Run that returned drained its queue, so it reports
// zero. The harness surfaces this as Breakdown.LeakedEvents so hung-run
// bugs stop masquerading as clean completions.
func (s *Scheduler) Leaked() (n int, earliest Time) {
	for i := range s.q {
		if n == 0 || s.q[i].t < earliest {
			earliest = s.q[i].t
		}
		n++
	}
	return n, earliest
}

// The machine model (see the package comment): the paper's testbed, §V-A.
const (
	InterLatency Time    = 2 * Microsecond  // one-way network latency between nodes
	IntraLatency Time    = 500 * Nanosecond // latency between procs on one node (shared memory)
	InterBWBps   float64 = 10e9             // inter-node NIC bandwidth, bytes per second
	IntraBWBps   float64 = 40e9             // intra-node copy bandwidth, bytes per second
	SendOverhead Time    = 300 * Nanosecond // per-message CPU cost on the sender
	RecvOverhead Time    = 300 * Nanosecond // per-message CPU cost on the receiver
)

// Config sizes the simulated cluster and selects how its traffic is charged.
type Config struct {
	Nodes int // number of compute nodes (default 32, the paper's testbed)

	// ModelIngress additionally serializes traffic on the *receiver's* NIC.
	// The seed model charges egress only, which makes duplicate inbound
	// flows free at their destination; replication-based fault tolerance
	// (ReplicaFTI) turns this on so the duplicated message streams arriving
	// at replicated ranks pay realistic queueing delay. Off by default so
	// the checkpoint/restart designs keep the original calibrated timings.
	ModelIngress bool

	// BytesScale multiplies data volumes for *time accounting only* —
	// messages on the wire, checkpoint bytes through the storage tiers,
	// hot-spare state transfers — so a scaled-down problem instance is
	// charged the paper-scale problem's transfer time (DESIGN.md §6).
	// Payloads are untouched; values up to 1 (and zero) mean unscaled.
	BytesScale float64
}

// Scaled is the volume time is charged for when n bytes move.
func (c Config) Scaled(n int) float64 {
	if c.BytesScale > 1 {
		return float64(n) * c.BytesScale
	}
	return float64(n)
}

// Node is one compute node. Its NIC serializes egress traffic: concurrent
// sends queue behind each other, which is how background protocol traffic
// (e.g. ULFM heartbeats) slows applications down in this model.
type Node struct {
	ID      int
	nicFree Time // time at which the egress NIC becomes idle
	rxFree  Time // time at which the ingress NIC becomes idle (ModelIngress)
	alive   bool
}

// Alive reports whether the node has not suffered a node failure.
func (n *Node) Alive() bool { return n.alive }

// Cluster combines the scheduler, the node set, and the process table.
type Cluster struct {
	cfg   Config
	sched *Scheduler
	nodes []*Node
	procs []*Proc // indexed by process id; never shrinks
	probe *obs.Probe
}

// NewCluster builds a cluster with cfg (zero Nodes means 32).
func NewCluster(cfg Config) *Cluster {
	if cfg.Nodes == 0 {
		cfg.Nodes = 32
	}
	c := &Cluster{
		cfg:   cfg,
		sched: NewScheduler(),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &Node{ID: i, alive: true})
	}
	return c
}

// Config returns the cluster's size and traffic model.
func (c *Cluster) Config() Config { return c.cfg }

// Scheduler exposes the event scheduler (used by runtime components that
// need timers, e.g. heartbeat detectors).
func (c *Cluster) Scheduler() *Scheduler { return c.sched }

// SetProbe attaches the run's observers to the cluster (and its
// scheduler). Every layer running on the cluster reports its events
// through Probe(); nil — the default — turns all observation off.
func (c *Cluster) SetProbe(p *obs.Probe) {
	c.probe = p
	c.sched.probe = p
}

// Probe returns the attached observer probe; nil means observers are off,
// and a nil *obs.Probe answers On with false.
func (c *Cluster) Probe() *obs.Probe { return c.probe }

// Now returns the current virtual time.
func (c *Cluster) Now() Time { return c.sched.Now() }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NumNodes returns the number of nodes.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// LiveNode is the placement rule for a process: node n if it is alive,
// otherwise the next live node in id order, wrapping around past the last
// id. With every node dead it returns n.
func (c *Cluster) LiveNode(n int) int {
	for i := range c.nodes {
		if m := (n + i) % len(c.nodes); c.nodes[m].alive {
			return m
		}
	}
	return n
}

// Run drives the simulation to completion and returns the final time. It
// may be called again after more events are scheduled; when the run is
// abandoned with processes still parked, Close releases them.
func (c *Cluster) Run() Time { return c.sched.Run() }

// FailNode marks a node dead and kills every live process on it. RAMFS
// contents on the node are lost by the storage layer, which consults
// Node.Alive.
func (c *Cluster) FailNode(id int) {
	n := c.nodes[id]
	if !n.alive {
		return
	}
	n.alive = false
	if c.probe.On(trace.CatNodeFail) {
		c.probe.Emit(trace.Span{Cat: trace.CatNodeFail, Rank: -1, Start: int64(c.sched.now), Aux: int64(id)})
	}
	// Deterministic kill order: by id. A process an exit callback starts
	// while the residents die is not a resident: range read the slice once.
	for _, p := range c.procs {
		if p.node == n && !p.dead {
			p.Kill()
		}
	}
}

// transferCost returns the NIC departure and arrival times for a message of
// size bytes from node f to node t, issued at virtual time now. It mutates
// the sender NIC's busy horizon, which is what creates queueing delay.
func (c *Cluster) transferCost(f, t *Node, size int, now Time) (depart, arrive Time) {
	var lat Time
	var bw float64
	if f == t {
		lat, bw = IntraLatency, IntraBWBps
	} else {
		lat, bw = InterLatency, InterBWBps
	}
	xfer := Time(float64(size) / bw * 1e9)
	depart = now
	if f != t {
		if f.nicFree > depart {
			depart = f.nicFree
		}
		f.nicFree = depart + xfer
		if c.cfg.ModelIngress {
			start := depart
			if t.rxFree > start {
				start = t.rxFree
			}
			t.rxFree = start + xfer
			arrive = start + xfer + lat
			return depart, arrive
		}
	}
	arrive = depart + xfer + lat
	return depart, arrive
}

// SendArrival computes (and charges to the sender's NIC) the arrival time of
// a message of size bytes from node from to node to, sent at virtual now.
func (c *Cluster) SendArrival(from, to int, size int, now Time) Time {
	depart, arrive := c.transferCost(c.nodes[from], c.nodes[to], size, now)
	if c.probe.On(trace.CatTransfer) {
		c.probe.Emit(trace.Span{Cat: trace.CatTransfer, Rank: -1,
			Start: int64(depart), Dur: int64(arrive - depart),
			Level: int32(from), Aux: int64(size)})
	}
	return arrive
}
