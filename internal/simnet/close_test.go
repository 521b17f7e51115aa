package simnet

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it has stopped
// changing: a goroutine an earlier test let go of may not have retired
// yet, and a baseline that counts it fails the exact checks below.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, deadline := 0, time.Now().Add(2*time.Second); still < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// goroutinesBackTo fails t unless the goroutine count is back at exactly
// base, polling while it is above: a released coroutine's goroutine
// retires on its own schedule.
func goroutinesBackTo(t *testing.T, base int, when string) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n != base {
		t.Fatalf("%d goroutines %s, %d before", n, when, base)
	}
}

// Close unwinds a parked process like a kill — deferred functions run and
// the body observes Killed — but it is teardown, not a simulated exit: no
// OnExit callback runs, and every coroutine is gone afterwards.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	base := settledGoroutines()
	c := NewCluster(Config{Nodes: 2})
	c.Scheduler().SetDeadline(1000)
	var unwound []any
	exits, lateRan := 0, false
	for i := 0; i < 3; i++ {
		p := c.StartProc(i%2, 0, func(p *Proc) {
			defer func() {
				v := recover()
				unwound = append(unwound, v)
				panic(v)
			}()
			p.Block() // nothing ever unblocks it
			t.Error("Block returned")
		})
		p.OnExit(func(*Proc) { exits++ })
	}
	late := c.StartProc(0, 5000, func(*Proc) { lateRan = true }) // starts past the deadline
	late.OnExit(func(*Proc) { exits++ })
	done := c.StartProc(1, 0, func(p *Proc) { p.Sleep(10) })

	func() {
		defer func() {
			if _, ok := recover().(DeadlineExceeded); !ok {
				t.Error("Run did not trip the deadline")
			}
		}()
		c.Run()
	}()
	if n := runtime.NumGoroutine(); n != base+4 {
		t.Fatalf("%d goroutines with three procs parked and one unstarted, want %d", n, base+4)
	}

	c.Close()
	if len(unwound) != 3 {
		t.Fatalf("%d bodies ran their deferred functions, want 3", len(unwound))
	}
	for i, v := range unwound {
		if k, ok := v.(Killed); !ok || k.ProcID != i {
			t.Errorf("proc %d unwound with %v, want Killed{%d}", i, v, i)
		}
	}
	if exits != 0 {
		t.Errorf("Close ran %d OnExit callbacks, want none", exits)
	}
	if lateRan {
		t.Error("Close started a process that had never run")
	}
	for _, p := range c.Procs() {
		if !p.Exited() {
			t.Errorf("proc %d not exited after Close", p.ID)
		}
	}
	if done.Dead() {
		t.Error("Close killed a finished process")
	}
	goroutinesBackTo(t, base, "after Close")

	c.Close() // idempotent
	if len(unwound) != 3 || exits != 0 {
		t.Fatalf("second Close unwound again: %d unwinds, %d exits", len(unwound), exits)
	}
}

// After a run in which every process exited there is nothing to let go of.
func TestCloseAfterCleanRunIsNoOp(t *testing.T) {
	base := settledGoroutines()
	c := NewCluster(Config{Nodes: 1})
	exits := 0
	p := c.StartProc(0, 0, func(p *Proc) { p.Sleep(5) })
	p.OnExit(func(*Proc) { exits++ })
	q := c.StartProc(0, 0, func(p *Proc) { p.Sleep(50) })
	q.OnExit(func(*Proc) { exits++ })
	c.Scheduler().At(20, func() { q.Kill() })
	c.Run()
	goroutinesBackTo(t, base, "after a clean run")
	c.Close()
	if exits != 2 || p.Dead() || !q.Dead() {
		t.Fatalf("after Close: exits=%d p dead=%v q dead=%v, want 2, p returned, q killed", exits, p.Dead(), q.Dead())
	}
}

// A body that parks again while it is being torn down (a Sleep in a
// deferred function: charging a cost on the way out) keeps unwinding — the
// stopped coroutine refuses every later park the same way.
func TestCloseUnwindsThroughSleepInDefer(t *testing.T) {
	base := settledGoroutines()
	c := NewCluster(Config{Nodes: 1})
	var steps []string
	p := c.StartProc(0, 0, func(p *Proc) {
		defer func() { steps = append(steps, "outer") }()
		defer func() {
			steps = append(steps, "inner")
			p.Sleep(10)
			steps = append(steps, "slept")
		}()
		p.Block()
	})
	c.Run() // drains with the process blocked
	c.Close()
	if !slices.Equal(steps, []string{"inner", "outer"}) {
		t.Fatalf("teardown ran %v, want [inner outer]", steps)
	}
	if !p.Exited() || p.Dead() {
		t.Fatalf("exited=%v dead=%v, want a teardown exit, not a kill", p.Exited(), p.Dead())
	}
	goroutinesBackTo(t, base, "after Close")
}

// Nested dispatch: an event a body scheduled kills another process, whose
// exit callback signals a third — each dispatch runs inside the previous
// one's event, and control returns to the scheduler in order.
func TestKillFromScheduledEventNests(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	type poke struct{}
	var log []string
	victim := c.StartProc(0, 0, func(p *Proc) {
		defer func() { log = append(log, "victim unwinds") }()
		p.Sleep(1000)
		t.Error("victim outlived its kill")
	})
	watcher := c.StartProc(0, 0, func(p *Proc) {
		defer func() {
			if _, ok := recover().(poke); ok {
				log = append(log, "watcher poked")
			}
		}()
		p.Block()
	})
	victim.OnExit(func(p *Proc) {
		log = append(log, "victim exits")
		watcher.Signal(p.Now(), poke{})
	})
	killer := c.StartProc(0, 0, func(p *Proc) {
		p.Sleep(100)
		p.Cluster().Scheduler().After(5, func() {
			log = append(log, "kill")
			victim.Kill()
			log = append(log, "kill returned")
		})
		p.Sleep(50)
		log = append(log, "killer done")
	})
	c.Run()
	want := []string{"kill", "victim unwinds", "victim exits", "kill returned", "watcher poked", "killer done"}
	if !slices.Equal(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if !victim.Dead() || watcher.Dead() || killer.Dead() {
		t.Fatalf("dead: victim=%v watcher=%v killer=%v, want only the victim", victim.Dead(), watcher.Dead(), killer.Dead())
	}
}
