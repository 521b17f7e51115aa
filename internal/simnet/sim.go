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
// and free of data races by construction. Events fire in order of virtual
// time, then of scheduling; a scheduled event always fires (nothing
// cancels one), and a wakeup that no longer applies checks that itself.
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

// key orders one pending event: by time, then by the order it was
// scheduled (seq), a strict total order that keeps runs reproducible. slot
// names the event's callback in Scheduler.calls. Keys are 24-byte values,
// so the heap moves little memory per level and scheduling does not
// allocate in the steady state.
type key struct {
	t    Time
	seq  uint64
	slot int32
}

func (a key) less(b key) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// call is a scheduled callback: a static function plus its argument pair,
// which lets hot callers — process wakeups, message deliveries, detector
// ticks — schedule without building a closure per call.
type call struct {
	fn  func(arg any, aux int64)
	arg any
	aux int64
}

// Scheduler owns the virtual clock and the event queue. An event due later
// than now waits in a binary min-heap of keys; an event due exactly now
// waits in a FIFO. Every heap event due now was scheduled before the clock
// reached now, so it carries a smaller seq than any FIFO event and fires
// first: the fire order is (t, seq) either way. Callbacks sit in a slot
// table whose slots, like the heap's and the FIFO's capacity, are recycled,
// so the schedule/fire path is allocation-free once warm.
type Scheduler struct {
	now     Time
	heap    []key // events scheduled for later than the clock read then
	due     []key // events scheduled for now, in seq order; due[head:] pending
	head    int
	calls   []call // callbacks, indexed by key.slot
	free    []int32
	seq     uint64
	maxTime Time // 0 means unlimited
	probe   *obs.Probe
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
// closure rides as the argument of one static function.
func (s *Scheduler) At(t Time, fn func()) {
	s.AtFunc(t, callClosure, fn, 0)
}

// callClosure is the static event body of At.
func callClosure(fn any, _ int64) { fn.(func())() }

// After schedules fn to run d nanoseconds of virtual time from now.
func (s *Scheduler) After(d Time, fn func()) {
	s.AtFunc(s.now+d, callClosure, fn, 0)
}

// AtFunc schedules fn(arg, aux) at virtual time t. Unlike At, it takes a
// static function plus its argument, so hot paths that would otherwise
// build a closure per call (process wakeups, message deliveries) can
// schedule without allocating.
func (s *Scheduler) AtFunc(t Time, fn func(arg any, aux int64), arg any, aux int64) {
	if t < s.now {
		panic(fmt.Sprintf("simnet: event scheduled into the past: t=%v, now=%v (%v late)", t, s.now, s.now-t))
	}
	p := s.probe
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.calls[slot] = call{fn: fn, arg: arg, aux: aux}
		p.Add(obs.CSlotsReused, 1)
	} else {
		slot = int32(len(s.calls))
		s.calls = append(s.calls, call{fn: fn, arg: arg, aux: aux})
		p.Add(obs.CSlotsGrown, 1)
	}
	k := key{t: t, seq: s.seq, slot: slot}
	s.seq++
	if t == s.now {
		s.due = append(s.due, k)
	} else {
		s.push(k)
	}
	if p != nil {
		p.Add(obs.CEventsScheduled, 1)
		p.SetMax(obs.GHeapHighWater, int64(s.Pending()))
	}
}

// AfterFunc is AtFunc relative to now.
func (s *Scheduler) AfterFunc(d Time, fn func(arg any, aux int64), arg any, aux int64) {
	s.AtFunc(s.now+d, fn, arg, aux)
}

// push adds k to the heap, moving a hole up from the new leaf.
func (s *Scheduler) push(k key) {
	h := append(s.heap, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].less(k) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	s.heap = h
}

// pop removes and returns the heap's earliest key, moving a hole down from
// the root for the last leaf.
func (s *Scheduler) pop() key {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].less(h[child]) {
			child = r
		}
		if last.less(h[child]) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	s.heap = h
	return top
}

// next removes and returns the earliest pending key: a heap event due now
// before the FIFO, the FIFO before a later heap event.
func (s *Scheduler) next() (key, bool) {
	if len(s.heap) > 0 && (s.heap[0].t == s.now || s.head == len(s.due)) {
		return s.pop(), true
	}
	if s.head == len(s.due) {
		return key{}, false
	}
	k := s.due[s.head]
	s.head++
	if s.head == len(s.due) {
		s.due, s.head = s.due[:0], 0
	}
	return k, true
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
	for {
		k, ok := s.next()
		if !ok {
			break
		}
		c := s.calls[k.slot]
		s.calls[k.slot] = call{} // release the callback's references
		s.free = append(s.free, k.slot)
		fired++
		if s.maxTime > 0 && k.t > s.maxTime {
			panic(DeadlineExceeded{Deadline: s.maxTime, At: k.t})
		}
		s.now = k.t // never earlier: nothing is scheduled into the past
		if traceEvents {
			probe.Emit(trace.Span{Cat: trace.CatEvent, Rank: -1, Start: int64(k.t), Aux: int64(k.seq)})
		}
		c.fn(c.arg, c.aux)
	}
	probe.Add(obs.CEventsFired, fired)
	return s.now
}

// Pending reports the number of events that have not fired.
func (s *Scheduler) Pending() int { return len(s.heap) + len(s.due) - s.head }

// Leaked reports the events still pending in the queue — work Run walked
// away from when a deadline stopped it — as a count plus the earliest
// scheduled time. A Run that returned drained its queue, so it reports
// zero. The harness surfaces this as Breakdown.LeakedEvents so hung-run
// bugs stop masquerading as clean completions.
func (s *Scheduler) Leaked() (n int, earliest Time) {
	for _, q := range [][]key{s.heap, s.due[s.head:]} {
		for _, k := range q {
			if n == 0 || k.t < earliest {
				earliest = k.t
			}
			n++
		}
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
