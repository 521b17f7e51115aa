package simnet

import (
	"testing"
	"testing/quick"
)

func TestSchedulerOrdersEvents(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	end := s.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerTieBreakFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var hits []Time
	s.At(10, func() {
		hits = append(hits, s.Now())
		s.After(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestSchedulerDeadline(t *testing.T) {
	s := NewScheduler()
	s.SetDeadline(50)
	s.At(100, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadline panic")
		}
	}()
	s.Run()
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Fatalf("String() = %q", got)
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	c := NewCluster(Config{Nodes: 2})
	var times []Time
	c.StartProc(0, 0, func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(100)
		times = append(times, p.Now())
		p.Compute(50)
		times = append(times, p.Now())
	})
	c.Run()
	if len(times) != 3 || times[0] != 0 || times[1] != 100 || times[2] != 150 {
		t.Fatalf("times = %v", times)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []int {
		c := NewCluster(Config{Nodes: 2})
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			c.StartProc(i%2, 0, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(10 * (i + 1)))
					order = append(order, i)
				}
			})
		}
		c.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("expected 12 steps, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving: %v vs %v", a, b)
		}
	}
}

func TestProcKillWhileSleeping(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	reached := false
	p := c.StartProc(0, 0, func(p *Proc) {
		p.Sleep(1000)
		reached = true
	})
	c.Scheduler().At(500, func() { p.Kill() })
	c.Run()
	if reached {
		t.Fatal("killed process kept running")
	}
	if !p.Exited() || !p.Dead() {
		t.Fatalf("exited=%v dead=%v, want a killed exit", p.Exited(), p.Dead())
	}
}

// A process killed before its start delay (node failure during a staggered
// launch) never runs, but it exits: its exit callbacks run once, seeing it
// dead, and its coroutine is released.
func TestProcKillBeforeStart(t *testing.T) {
	base := settledGoroutines()
	c := NewCluster(Config{Nodes: 1})
	ran := false
	p := c.StartProc(0, 100, func(p *Proc) { ran = true })
	var exits []bool
	p.OnExit(func(p *Proc) { exits = append(exits, p.Dead()) })
	c.Scheduler().At(10, func() { p.Kill() })
	c.Run()
	if ran {
		t.Fatal("process ran after being killed before start")
	}
	if !p.Exited() || !p.Dead() {
		t.Fatalf("exited=%v dead=%v, want a killed exit", p.Exited(), p.Dead())
	}
	if len(exits) != 1 || !exits[0] {
		t.Fatalf("exit callbacks saw dead=%v, want one dead exit", exits)
	}
	goroutinesBackTo(t, base, "after the run (the unstarted process was not released)")
}

func TestProcDieUnwinds(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	after := false
	p := c.StartProc(0, 0, func(p *Proc) {
		p.Sleep(10)
		p.Die()
		after = true
	})
	c.Run()
	if after {
		t.Fatal("Die did not unwind")
	}
	if !p.Exited() || !p.Dead() {
		t.Fatalf("exited=%v dead=%v, want a killed exit", p.Exited(), p.Dead())
	}
}

// A runtime signal must unwind the process out of a sleep, and the stale
// sleep timer must NOT later resume the process early from a new park.
func TestSignalCancelsStaleTimer(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	type reset struct{}
	var resumedAt Time
	p := c.StartProc(0, 0, func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(reset); !ok {
					panic(r)
				}
				// Recovered: park again until t=300. The stale timer from
				// the interrupted sleep (t=100) must not wake us.
				p.Sleep(300 - p.Now())
				resumedAt = p.Now()
			}
		}()
		p.Sleep(100) // interrupted at t=50
		t.Error("sleep returned normally despite signal")
	})
	p.Signal(50, reset{})
	c.Run()
	if resumedAt != 300 {
		t.Fatalf("resumed at %v, want 300 (stale timer fired?)", resumedAt)
	}
}

func TestSignalDroppedAfterExit(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	p := c.StartProc(0, 0, func(p *Proc) { p.Sleep(10) })
	p.Signal(100, "late")
	c.Run()
	if !p.Exited() || p.Dead() {
		t.Fatalf("exited=%v dead=%v, want a normal return", p.Exited(), p.Dead())
	}
}

func TestBlockUnblock(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	var wokeAt Time
	p := c.StartProc(0, 0, func(p *Proc) {
		p.Block()
		wokeAt = p.Now()
	})
	c.Scheduler().At(70, func() { p.Unblock(90) })
	c.Run()
	if wokeAt != 90 {
		t.Fatalf("woke at %v, want 90", wokeAt)
	}
}

func TestOnExitRuns(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	exits := 0
	p := c.StartProc(0, 0, func(p *Proc) { p.Sleep(5) })
	p.OnExit(func(*Proc) { exits++ })
	q := c.StartProc(0, 0, func(p *Proc) { p.Sleep(50) })
	q.OnExit(func(*Proc) { exits++ })
	c.Scheduler().At(20, func() { q.Kill() })
	c.Run()
	if exits != 2 {
		t.Fatalf("exits = %d, want 2 (normal and killed)", exits)
	}
}

func TestNodeFailureKillsResidents(t *testing.T) {
	c := NewCluster(Config{Nodes: 2})
	var survived []int
	for i := 0; i < 4; i++ {
		i := i
		c.StartProc(i%2, 0, func(p *Proc) {
			p.Sleep(1000)
			survived = append(survived, i)
		})
	}
	c.Scheduler().At(100, func() { c.FailNode(0) })
	c.Run()
	if c.Node(0).Alive() {
		t.Fatal("node 0 still alive")
	}
	if len(survived) != 2 {
		t.Fatalf("survivors = %v, want the two procs on node 1", survived)
	}
	for _, i := range survived {
		if i%2 != 1 {
			t.Fatalf("proc %d on failed node survived", i)
		}
	}
}

func TestNICSerializesEgress(t *testing.T) {
	c := NewCluster(Config{Nodes: 2})
	// Two back-to-back 10 kB messages from node 0: the second must queue
	// behind the first on the NIC.
	const size = 10000
	xfer := Time(size / InterBWBps * 1e9) // 1µs at 10 GB/s
	a1 := c.SendArrival(0, 1, size, 0)
	a2 := c.SendArrival(0, 1, size, 0)
	if a1 != xfer+InterLatency {
		t.Fatalf("first arrival = %v, want %v", a1, xfer+InterLatency)
	}
	if a2 != 2*xfer+InterLatency {
		t.Fatalf("second arrival = %v, want %v (NIC queueing)", a2, 2*xfer+InterLatency)
	}
}

func TestIntraNodeBypassesNIC(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	const size = 10000
	want := Time(size/IntraBWBps*1e9) + IntraLatency // 250ns + 500ns
	a1 := c.SendArrival(0, 0, size, 0)
	a2 := c.SendArrival(0, 0, size, 0)
	if a1 != want || a2 != want {
		t.Fatalf("intra-node arrivals = %v, %v; want both %v", a1, a2, want)
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	c := NewCluster(Config{})
	if c.NumNodes() != 32 || c.Config().Nodes != 32 {
		t.Fatalf("NumNodes = %d, Config().Nodes = %d; want the testbed's 32", c.NumNodes(), c.Config().Nodes)
	}
}

// Property: arrival time is monotonic in issue time and size, and never
// before issue + latency.
func TestSendArrivalProperties(t *testing.T) {
	f := func(sz uint16, at uint32) bool {
		c := NewCluster(Config{Nodes: 2})
		now := Time(at)
		arr := c.SendArrival(0, 1, int(sz), now)
		return arr >= now+InterLatency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: virtual clock never goes backwards across arbitrary event sets.
func TestClockMonotonic(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		last := Time(-1)
		ok := true
		for _, off := range offsets {
			s.At(Time(off), func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A deadline abandons the events behind the one that trips it — the silent
// drop the Leaked diagnostic exists to surface. The tripping event itself
// is not leaked; events left in the due-now FIFO are.
func TestSchedulerLeakedAfterDeadline(t *testing.T) {
	run := func(s *Scheduler) {
		t.Helper()
		defer func() {
			if _, ok := recover().(DeadlineExceeded); !ok {
				t.Fatal("Run past the deadline did not panic with DeadlineExceeded")
			}
		}()
		s.Run()
	}
	s := NewScheduler()
	s.SetDeadline(20)
	fired := 0
	s.At(10, func() { fired++ })
	s.At(30, func() { fired++ }) // trips the deadline
	s.At(40, func() { fired++ })
	s.At(50, func() { fired++ })
	run(s)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (the deadline should halt the loop)", fired)
	}
	if n, earliest := s.Leaked(); n != 2 || earliest != 40 {
		t.Fatalf("Leaked() = (%d, %v), want (2, 40)", n, earliest)
	}

	// A deadline lowered below the clock trips on the next event due now:
	// the one behind it stays in the FIFO.
	s = NewScheduler()
	s.SetDeadline(20)
	fired = 0
	s.At(10, func() {
		fired++
		s.SetDeadline(5)
		s.At(10, func() { fired++ }) // trips the deadline
		s.At(10, func() { fired++ })
	})
	s.At(40, func() { fired++ })
	run(s)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (the deadline should halt the loop)", fired)
	}
	if n, earliest := s.Leaked(); n != 2 || earliest != 10 {
		t.Fatalf("Leaked() = (%d, %v), want (2, 10): the FIFO's event and the heap's", n, earliest)
	}
}

// A drained run leaks nothing.
func TestSchedulerLeakedCleanRun(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Run()
	if n, _ := s.Leaked(); n != 0 {
		t.Fatalf("Leaked() = %d after a drained run, want 0", n)
	}
}

// LiveNode maps a live node to itself and a dead one to the next live id,
// wrapping past the last; with every node dead it returns its argument.
func TestLiveNode(t *testing.T) {
	c := NewCluster(Config{Nodes: 4})
	for n := 0; n < 4; n++ {
		if got := c.LiveNode(n); got != n {
			t.Fatalf("LiveNode(%d) = %d with every node alive", n, got)
		}
	}
	c.FailNode(1)
	c.FailNode(3)
	for n, want := range []int{0, 2, 2, 0} {
		if got := c.LiveNode(n); got != want {
			t.Fatalf("LiveNode(%d) = %d with nodes 1 and 3 dead, want %d", n, got, want)
		}
	}
	c.FailNode(0)
	c.FailNode(2)
	for n := 0; n < 4; n++ {
		if got := c.LiveNode(n); got != n {
			t.Fatalf("LiveNode(%d) = %d with every node dead, want %d", n, got, n)
		}
	}
}
