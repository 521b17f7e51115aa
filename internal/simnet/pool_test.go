package simnet

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// Cancelled events must leave the queue immediately — the old tombstone
// implementation retained every cancelled event's closure until its pop
// time, so a long-lived scheduler leaked arbitrary state.
func TestCancelRemovesEventImmediately(t *testing.T) {
	s := NewScheduler()
	var timers []Timer
	for i := 0; i < 100; i++ {
		timers = append(timers, s.At(Time(1000+i), func() {}))
	}
	if got := s.Pending(); got != 100 {
		t.Fatalf("Pending() = %d, want 100", got)
	}
	for i, tm := range timers {
		if !s.Cancel(tm) {
			t.Fatalf("Cancel(#%d) reported nothing removed", i)
		}
		if got, want := s.Pending(), 100-i-1; got != want {
			t.Fatalf("Pending() = %d after %d cancels, want %d (eager removal)", got, i+1, want)
		}
	}
	if n, _ := s.Leaked(); n != 0 {
		t.Fatalf("Leaked() = %d after cancelling everything, want 0", n)
	}
}

// Cancel must be a no-op (and say so) on timers whose event already fired,
// was already cancelled, or never existed (the zero Timer).
func TestCancelStaleTimers(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := s.At(10, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Cancel(tm) {
		t.Fatal("Cancel of an already-fired timer reported removal")
	}
	tm2 := s.At(20, func() { fired++ })
	if !s.Cancel(tm2) || s.Cancel(tm2) {
		t.Fatal("double Cancel: want (true, false)")
	}
	if s.Cancel(Timer{}) {
		t.Fatal("Cancel of the zero Timer reported removal")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Run, want 1", fired)
	}
}

// Slot reuse after a fire must not let a stale Timer cancel the new
// occupant of the slot.
func TestTimerSlotReuseAfterFire(t *testing.T) {
	s := NewScheduler()
	stale := s.At(10, func() {})
	s.Run() // fires; slot freed
	fired := false
	fresh := s.At(20, func() { fired = true }) // reuses the slot
	if s.Cancel(stale) {
		t.Fatal("stale timer cancelled a reused slot's event")
	}
	s.Run()
	if !fired {
		t.Fatal("event lost: stale timer interfered with reused slot")
	}
	_ = fresh
}

// Slot reuse after a cancel: same property, via the cancellation path.
func TestTimerSlotReuseAfterCancel(t *testing.T) {
	s := NewScheduler()
	stale := s.At(10, func() { t.Error("cancelled event fired") })
	s.Cancel(stale)
	fired := false
	s.At(20, func() { fired = true }) // reuses the freed slot
	if s.Cancel(stale) {
		t.Fatal("stale timer cancelled a reused slot's event")
	}
	s.Run()
	if !fired {
		t.Fatal("event lost after slot reuse")
	}
}

// Scheduling into the past panics, through every entry point, so a
// protocol bug that would silently reorder the run is caught at its source.
func TestStrictPastPanics(t *testing.T) {
	s := NewScheduler()
	past := map[string]func(){
		"At":     func() { s.At(10, func() {}) },
		"After":  func() { s.After(-1, func() {}) },
		"AtFunc": func() { s.AtFunc(10, func(any, int64) {}, nil, 0) },
	}
	s.At(100, func() {
		for name, schedule := range past {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s into the past did not panic", name)
					}
				}()
				schedule()
			}()
		}
	})
	s.Run()
	if n := s.Pending(); n != 0 {
		t.Errorf("%d past events were queued anyway", n)
	}
}

// refEvent/refHeap reimplement the previous container/heap scheduler
// (pointer events, dead-flag tombstones) as the fuzz oracle: the pooled
// value heap must produce the identical fire order under any interleaving
// of schedules and cancellations.
type refEvent struct {
	t    Time
	seq  uint64
	id   int
	dead bool
	op   schedOp
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// schedOp is one step of a fuzz script. Before Run it either cancels the
// target-th event scheduled so far (cancelNow) or schedules an event at
// time at. A scheduled event may, when it fires, cancel the target-th
// event (target >= 0; by then fired, cancelled, pending, or itself) and
// schedule a child delta (0..7) after its own fire time — at that very
// time when delta is zero — that chains nest-1 more.
type schedOp struct {
	cancelNow bool
	target    int
	at        Time
	nest      int
	delta     Time
}

// parseScript reads three bytes per step: kind, then two arguments.
func parseScript(script []byte) []schedOp {
	var ops []schedOp
	scheduled := 0
	for ; len(script) >= 3 && len(ops) < 4096; script = script[3:] {
		kind, x, y := script[0]%8, script[1], script[2]
		op := schedOp{at: Time(x % 40), target: -1}
		switch {
		case kind == 4: // nested scheduling, one to four deep
			op.nest, op.delta = 1+int(y>>6), Time(y%8)
		case kind >= 5 && scheduled == 0: // nothing to cancel yet
			continue
		case kind == 5 || kind == 6:
			op = schedOp{cancelNow: true, target: int(x) % scheduled}
		case kind == 7: // cancel from inside an event
			op.target = int(y) % scheduled
		}
		if !op.cancelNow {
			scheduled++
		}
		ops = append(ops, op)
	}
	return ops
}

// fireOrder runs ops on the real scheduler. Events are numbered in the
// order they are scheduled, children included.
func fireOrder(ops []schedOp) []int {
	s := NewScheduler()
	var fired []int
	var timers []Timer
	id := 0
	var schedule func(at Time, op schedOp) Timer
	schedule = func(at Time, op schedOp) Timer {
		eid := id
		id++
		return s.At(at, func() {
			fired = append(fired, eid)
			if op.target >= 0 {
				s.Cancel(timers[op.target])
			}
			if op.nest > 0 {
				schedule(s.Now()+op.delta, schedOp{target: -1, nest: op.nest - 1, delta: op.delta})
			}
		})
	}
	for _, op := range ops {
		if op.cancelNow {
			s.Cancel(timers[op.target])
		} else {
			timers = append(timers, schedule(op.at, op))
		}
	}
	s.Run()
	return fired
}

// refFireOrder is fireOrder on the tombstone reference.
func refFireOrder(ops []schedOp) []int {
	ref := &refHeap{}
	var fired []int
	var events []*refEvent
	var now Time
	var seq uint64
	schedule := func(at Time, op schedOp) *refEvent {
		re := &refEvent{t: at, seq: seq, id: int(seq), op: op}
		seq++
		heap.Push(ref, re)
		return re
	}
	for _, op := range ops {
		if op.cancelNow {
			events[op.target].dead = true
		} else {
			events = append(events, schedule(op.at, op))
		}
	}
	for ref.Len() > 0 {
		e := heap.Pop(ref).(*refEvent)
		if e.dead {
			continue
		}
		now = e.t
		fired = append(fired, e.id)
		if e.op.target >= 0 {
			events[e.op.target].dead = true // a no-op on one already popped
		}
		if e.op.nest > 0 {
			schedule(now+e.op.delta, schedOp{target: -1, nest: e.op.nest - 1, delta: e.op.delta})
		}
	}
	return fired
}

// trialScript is one trial of the test this target grew out of: a burst of
// schedules over 40 time units (ties guaranteed), then cancellations of a
// random subset — some twice, some with more scheduling in between.
func trialScript(rng *rand.Rand, schedules int) []byte {
	var script []byte
	schedule := func() {
		kind := byte(0)
		switch rng.Intn(6) {
		case 4:
			kind = 4
		case 5:
			kind = 7
		}
		script = append(script, kind, byte(rng.Intn(40)), byte(rng.Intn(256)))
	}
	for i := 0; i < schedules; i++ {
		schedule()
	}
	for i := 0; i < schedules/2; i++ {
		script = append(script, 5, byte(rng.Intn(schedules)), 0)
		if rng.Intn(4) == 0 {
			schedule()
		}
	}
	return script
}

// FuzzFireOrderMatchesHeapReference drives both schedulers with the same
// script — schedules with ties, cancellations before and during the run
// (double, stale, of a reused slot, of the running event), nested
// scheduling later and at the current time — and requires the identical
// (t, seq) fire order. The seed corpus is the seed-42 trials of the former
// TestFireOrderMatchesHeapReference at growing sizes, plus the edge cases.
func FuzzFireOrderMatchesHeapReference(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 24; trial++ {
		f.Add(trialScript(rng, 50*(1+trial%8)))
	}
	f.Add([]byte{})                                            // nothing scheduled
	f.Add([]byte{0, 7, 0, 0, 7, 0, 0, 7, 0, 0, 7, 0})          // all ties
	f.Add([]byte{0, 1, 0, 0, 2, 0, 5, 0, 0, 5, 0, 0, 5, 1, 0}) // cancel twice, cancel everything
	f.Add([]byte{7, 3, 0, 0, 3, 0})                            // first op cannot cancel: skipped
	f.Add([]byte{0, 9, 0, 7, 9, 1, 0, 9, 0})                   // an event cancels itself, after a tie fired
	f.Add([]byte{0, 5, 0, 7, 9, 0, 4, 9, 0xc0, 0, 20, 0})      // stale cancel of a fired timer whose slot was reused
	f.Add([]byte{4, 30, 0xc0, 4, 30, 0xc1, 0, 28, 0})          // four-deep chains, one at its parents' times
	f.Fuzz(func(t *testing.T, script []byte) {
		ops := parseScript(script)
		if got, want := fireOrder(ops), refFireOrder(ops); !slices.Equal(got, want) {
			t.Fatalf("fire order diverged from the reference: got %v, want %v", got, want)
		}
	})
}

// The scheduler hot path must be allocation-free once slots and heap
// capacity are warm. Skipped under -short: the race detector (which CI
// runs with -short) changes allocation behavior.
func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -race (-short)")
	}
	s := NewScheduler()
	fn := func() {}
	// Warm: grow heap capacity and the slot table.
	for i := 0; i < 512; i++ {
		s.At(s.Now()+Time(i), fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+1, fn)
		s.At(s.Now()+2, fn)
		s.Cancel(s.At(s.Now()+3, fn))
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("scheduler hot path allocates: %.1f allocs per schedule/cancel/run cycle, want 0", allocs)
	}
}
