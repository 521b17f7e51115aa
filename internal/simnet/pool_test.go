package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

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

// refEvent/refHeap are the fuzz oracle: one container/heap of pointer
// events ordered by (t, seq), the queue this package had before it split
// into a key heap and a due-now FIFO. Both must fire any script in the
// identical order, each event at its own time.
type refEvent struct {
	t   Time
	seq uint64
	op  schedOp
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

// schedOp is one event of a fuzz script, scheduled at time at. When it
// fires it schedules, in this order: a chain child delta (0..7) after its
// own time — at that very time when delta is zero — that chains nest-1
// more; fan children at its own time; and, when spawn is not negative, one
// child at the absolute time spawn, or at its own time if spawn is past.
type schedOp struct {
	at    Time
	nest  int
	delta Time
	fan   int
	spawn Time
}

// children lists the events op schedules when it fires at now.
func (op schedOp) children(now Time) []schedOp {
	var kids []schedOp
	if op.nest > 0 {
		kids = append(kids, schedOp{at: now + op.delta, nest: op.nest - 1, delta: op.delta, spawn: -1})
	}
	for i := 0; i < op.fan; i++ {
		kids = append(kids, schedOp{at: now, spawn: -1})
	}
	if op.spawn >= 0 {
		kids = append(kids, schedOp{at: max(now, op.spawn), spawn: -1})
	}
	return kids
}

// parseScript reads three bytes per event: kind, then two arguments. Every
// event is scheduled before Run, over 40 time units, so ties are common.
func parseScript(script []byte) []schedOp {
	var ops []schedOp
	for ; len(script) >= 3 && len(ops) < 4096; script = script[3:] {
		kind, x, y := script[0]%8, script[1], script[2]
		op := schedOp{at: Time(x % 40), spawn: -1}
		switch kind {
		case 4: // a chain, one to four deep
			op.nest, op.delta = 1+int(y>>6), Time(y%8)
		case 5: // a chain at the parent's own time, one to four deep
			op.nest = 1 + int(y%4)
		case 6: // one to four children at the parent's own time
			op.fan = 1 + int(y%4)
		case 7: // a child at an absolute time, due now once that is past
			op.spawn = Time(y % 40)
		}
		ops = append(ops, op)
	}
	return ops
}

// firing is one fired event: its number, in the order events were
// scheduled (children included), and the clock when it fired.
type firing struct {
	id int
	at Time
}

// fireOrder runs ops on the real scheduler.
func fireOrder(ops []schedOp) []firing {
	s := NewScheduler()
	var fired []firing
	id := 0
	var schedule func(op schedOp)
	schedule = func(op schedOp) {
		eid := id
		id++
		s.At(op.at, func() {
			fired = append(fired, firing{eid, s.Now()})
			for _, kid := range op.children(s.Now()) {
				schedule(kid)
			}
		})
	}
	for _, op := range ops {
		schedule(op)
	}
	s.Run()
	return fired
}

// refFireOrder is fireOrder on the reference heap.
func refFireOrder(ops []schedOp) []firing {
	ref := &refHeap{}
	var seq uint64
	schedule := func(op schedOp) {
		heap.Push(ref, &refEvent{t: op.at, seq: seq, op: op})
		seq++
	}
	for _, op := range ops {
		schedule(op)
	}
	var fired []firing
	for ref.Len() > 0 {
		e := heap.Pop(ref).(*refEvent)
		fired = append(fired, firing{int(e.seq), e.t})
		for _, kid := range e.op.children(e.t) {
			schedule(kid)
		}
	}
	return fired
}

// trialScript is one trial of the test this target grew out of: a burst of
// plain, chained and spawning events over 40 time units (ties guaranteed),
// then half as many again that schedule at their own time when they fire.
func trialScript(rng *rand.Rand, events int) []byte {
	var script []byte
	for i := 0; i < events; i++ {
		kind := byte(0)
		switch rng.Intn(6) {
		case 4:
			kind = 4
		case 5:
			kind = 7
		}
		script = append(script, kind, byte(rng.Intn(40)), byte(rng.Intn(256)))
	}
	for i := 0; i < events/2; i++ {
		script = append(script, 5+byte(rng.Intn(2)), byte(rng.Intn(40)), byte(rng.Intn(256)))
	}
	return script
}

// FuzzFireOrderMatchesHeapReference drives both queues with the same
// script — schedules with ties, nested scheduling later and at the current
// time, fans at the current time and spawns into the past that land at it
// — and requires the identical (t, seq) fire order. Every event scheduled
// at the clock's own time takes the FIFO, so the at-now kinds and seeds
// hold the FIFO behind the heap's events due now. The seed corpus is the
// seed-42 trials at growing sizes, plus the edge cases.
func FuzzFireOrderMatchesHeapReference(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 24; trial++ {
		f.Add(trialScript(rng, 50*(1+trial%8)))
	}
	f.Add([]byte{})                                   // nothing scheduled
	f.Add([]byte{0, 7, 0, 0, 7, 0, 0, 7, 0, 0, 7, 0}) // all ties
	f.Add([]byte{0, 0, 0, 6, 0, 3, 0, 0, 0})          // due at zero before Run: the FIFO before the clock moves
	f.Add([]byte{0, 9, 0, 6, 9, 1, 0, 9, 0})          // a fan at 9 behind a tie scheduled after it
	f.Add([]byte{0, 20, 0, 7, 9, 5, 0, 9, 0})         // a spawn into the past lands at 9, after the heap's tie
	f.Add([]byte{4, 30, 0xc0, 4, 30, 0xc1, 0, 28, 0}) // four-deep chains, one at its parents' times
	f.Add([]byte{5, 3, 3, 6, 3, 3, 0, 3, 0, 0, 4, 0}) // chains and fans at 3, then 4
	f.Fuzz(func(t *testing.T, script []byte) {
		ops := parseScript(script)
		if got, want := fireOrder(ops), refFireOrder(ops); !slices.Equal(got, want) {
			t.Fatalf("fire order diverged from the reference: got %v, want %v", got, want)
		}
	})
}

// Events due at T that were scheduled before the clock reached T fire
// first, in the order they were scheduled. Events that T-callbacks schedule
// at T fire next, in the order they were scheduled, also one scheduled by
// such an event; only then T+1.
func TestSchedulerDueNowOrder(t *testing.T) {
	s := NewScheduler()
	var got []string
	log := func(name string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", name, s.Now())) }
	}
	s.At(10, func() {
		log("a")()
		s.At(10, func() {
			log("c")()
			s.At(10, log("e"))
		})
		s.At(11, log("f"))
	})
	s.At(11, log("d"))
	s.At(10, func() {
		log("b")()
		s.AtFunc(10, func(any, int64) { log("c2")() }, nil, 0)
	})
	s.Run()
	want := []string{"a@10", "b@10", "c@10", "c2@10", "e@10", "d@11", "f@11"}
	if !slices.Equal(got, want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
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
	fnA := func(any, int64) {}
	// Warm: grow heap and FIFO capacity and the slot table.
	for i := 0; i < 512; i++ {
		s.At(s.Now()+Time(i), fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+1, fn)
		s.At(s.Now()+2, fn)
		s.At(s.Now(), fn) // due now: the FIFO
		s.AfterFunc(3, fnA, nil, 0)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("scheduler hot path allocates: %.1f allocs per schedule/run cycle, want 0", allocs)
	}
}
