// The module's go directive stays at 1.21; this constraint is what tells the
// toolchain (and vet's stdversion check) that this file uses package iter.

//go:build go1.23

package simnet

import (
	"fmt"
	"iter"
)

// wake carries the reason a parked process is being resumed.
type wake struct {
	kill   bool
	signal any // non-nil: deliver as a panic value (runtime-level unwinding)
}

// Killed is the panic value unwound through a simulated process when it is
// killed by fault injection or a node failure. Runtime layers (Reinit, the
// job launcher) recover it at the rank boundary.
type Killed struct{ ProcID int }

func (k Killed) Error() string { return fmt.Sprintf("simnet: process %d killed", k.ProcID) }

// Proc is a simulated OS process pinned to a node. Its body is a coroutine
// (iter.Pull): it runs only while the scheduler has resumed it, and yields
// back at every virtual-time-consuming call. A body still parked when the
// simulation is abandoned is unwound by Cluster.Close.
//
// Every park records a generation number; scheduled wakeups capture the
// generation they intend to resume and become no-ops if the process has
// been resumed by other means in the meantime (e.g. a runtime signal
// unwound it out of a sleep). This prevents stale timers from corrupting
// the process's timeline after recovery.
type Proc struct {
	ID   int
	c    *Cluster
	node *Node

	next  func() (struct{}, bool) // scheduler side: run the body to its next park
	stop  func()                  // unwind a parked body, or cancel one never started
	yield func(struct{}) bool     // body side: park; false once stop was called
	wake  wake                    // why the dispatch in progress resumed the body

	dead    bool
	closed  bool // torn down by Cluster.Close: no exit callbacks run
	started bool
	exited  bool

	parked bool
	gen    uint64
	onExit []func(*Proc)
}

// StartProc creates a process on the given node and schedules its body to
// begin at the current virtual time plus delay.
func (c *Cluster) StartProc(node int, delay Time, body func(*Proc)) *Proc {
	p := &Proc{ID: len(c.procs), c: c, node: c.nodes[node]}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.top(body)
	})
	c.procs = append(c.procs, p)
	c.sched.AfterFunc(delay, procStart, p, 0)
	return p
}

// procStart is the static first-dispatch event body (see StartProc).
func procStart(a any, _ int64) {
	p := a.(*Proc)
	if p.dead || p.exited {
		return
	}
	p.started = true
	p.dispatch(wake{})
}

// top is the coroutine body, entered by the first dispatch: it runs the user
// body to a normal return or a kill. Any other panic is a crash of the
// simulation, not an exit of the process: it is raised again, and iter.Pull
// carries it out of the dispatch into the scheduler's caller.
func (p *Proc) top(body func(*Proc)) {
	defer func() {
		r := recover()
		p.exited = true
		if _, killed := r.(Killed); r != nil && !killed {
			panic(r)
		}
		if p.closed {
			return // teardown, not a simulated exit
		}
		for _, f := range p.onExit {
			f(p)
		}
	}()
	body(p)
}

// dispatch resumes the process body and returns when it parks again or
// finishes. Must only be called from the scheduler context.
func (p *Proc) dispatch(w wake) {
	p.parked = false
	p.gen++
	p.wake = w
	p.next()
}

// park yields control back to the scheduler until the next dispatch. A
// false yield means Close stopped the coroutine: the body unwinds as if
// killed, running its deferred functions, and every later park does too.
func (p *Proc) park() wake {
	p.parked = true
	if !p.yield(struct{}{}) {
		panic(Killed{ProcID: p.ID})
	}
	w := p.wake
	if w.kill {
		panic(Killed{ProcID: p.ID})
	}
	if w.signal != nil {
		panic(w.signal)
	}
	return w
}

// Cluster returns the owning cluster.
func (p *Proc) Cluster() *Cluster { return p.c }

// Node returns the node this process runs on.
func (p *Proc) Node() *Node { return p.node }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.c.sched.Now() }

// Dead reports whether the process has been killed.
func (p *Proc) Dead() bool { return p.dead }

// Exited reports whether the process body has finished.
func (p *Proc) Exited() bool { return p.exited }

// OnExit registers a callback invoked (in scheduler context) when the
// process ends by a kill, also one before it started, or by a normal return
// of its body. Cluster.Close runs none. Outside simnet its one registrant
// is mpi.Job.Start, which turns a kill into a rank's death and reports it
// to the job's mpi.Job.OnDeath hooks; everything else listens there.
func (p *Proc) OnExit(f func(*Proc)) { p.onExit = append(p.onExit, f) }

// wakeAt schedules a resume at time t for the park of generation g. The
// generation rides in the event's aux word, so the single most frequent
// scheduling call in the simulator builds no closure.
func (p *Proc) wakeAt(t Time, g uint64) {
	p.c.sched.AtFunc(t, procWake, p, int64(g))
}

// procWake is the static wakeup event body (see wakeAt).
func procWake(a any, g int64) {
	p := a.(*Proc)
	if p.dead || p.exited || !p.parked || p.gen != uint64(g) {
		return
	}
	p.dispatch(wake{})
}

// Sleep advances this process's virtual time by d. It models both sleeping
// and computing (the caller is descheduled either way).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.Now()+d, p.gen)
	p.park()
}

// Compute charges d nanoseconds of virtual CPU time to the process.
func (p *Proc) Compute(d Time) { p.Sleep(d) }

// Block parks the process indefinitely; something else must call Unblock
// (or Kill/Signal). Used by the messaging layer for condition waits.
// Spurious wakeups are possible; callers must re-check their condition.
func (p *Proc) Block() {
	p.park()
}

// Unblock schedules a resume of a Block()ed process at time t (not before
// now). Must be called while the process is parked; the wake is dropped if
// the process has been resumed by other means before t.
func (p *Proc) Unblock(t Time) {
	if !p.parked {
		return
	}
	p.wakeAt(t, p.gen)
}

// Signal forces the process to panic with v at time t (not before now).
// This models runtime-level preemption: Reinit's global reset unwinding a
// rank out of whatever it was doing, like the longjmp in the paper's
// Figure 3. The panic is delivered whether the process is sleeping,
// computing, or blocked; it is dropped if the process exits first.
func (p *Proc) Signal(t Time, v any) {
	p.c.sched.At(t, func() {
		if p.dead || p.exited || !p.started {
			return
		}
		p.dispatch(wake{signal: v})
	})
}

// Kill destroys the process at the current virtual time: a fail-stop
// process failure, as delivered by the fault injector or a node failure.
// Must be called from scheduler context (the process is parked).
func (p *Proc) Kill() {
	if p.dead || p.exited {
		return
	}
	p.dead = true
	if !p.started {
		p.exited = true
		p.stop() // the body never runs; let its coroutine go
		for _, f := range p.onExit {
			f(p)
		}
		return
	}
	p.dispatch(wake{kill: true})
}

// Die terminates the calling process immediately, from inside its own body.
// This is the simulation analog of raise(SIGTERM) in Figure 4 of the paper.
func (p *Proc) Die() {
	p.dead = true
	panic(Killed{ProcID: p.ID})
}

// Procs returns all processes ever started, in id order.
func (c *Cluster) Procs() []*Proc {
	return append([]*Proc(nil), c.procs...)
}

// Close lets go of every process the simulation left behind: a body parked
// mid-run is unwound through its deferred functions (it observes Killed), a
// process that never started is cancelled. This is teardown of an abandoned
// run, not a simulated exit — OnExit callbacks do not run and no virtual
// time passes. Call it from outside Run; it is idempotent, and a no-op
// after a run in which every process exited.
func (c *Cluster) Close() {
	for _, p := range c.procs {
		if p.exited {
			continue
		}
		p.closed = true
		p.stop()
		if !p.started {
			p.exited = true
		}
	}
}
