package fault

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"match/internal/mpi"
	"match/internal/obs"
	"match/internal/simnet"
)

// plan is the paper's single-failure draw: event 0 of a k=1 schedule.
func plan(seed int64, nranks, maxIter int) Event {
	return NewSchedule(seed, 1, nranks, maxIter, ProcessFailure).Events[0]
}

// replicatedPlan is the same draw for a replicated design.
func replicatedPlan(seed int64, nranks, maxIter int, degreeOf func(int) int) Event {
	return NewReplicatedSchedule(seed, 1, nranks, maxIter, ProcessFailure, degreeOf).Events[0]
}

// only wraps one explicit failure as a schedule.
func only(ev Event) Schedule { return Schedule{Events: []Event{ev}} }

func TestNewPlanDeterministic(t *testing.T) {
	a := plan(42, 64, 100)
	b := plan(42, 64, 100)
	if a != b {
		t.Fatalf("same seed gave different plans: %+v vs %+v", a, b)
	}
	c := plan(43, 64, 100)
	if a == c {
		t.Fatalf("different seeds gave identical plans (suspicious): %+v", a)
	}
}

// The replicated draw must target the same (rank, iteration) as the plain
// one for the same seed — the property that keeps failures comparable across
// all four designs — and only then pick a replica within the target's group.
func TestReplicatedDrawMatchesPlainDraw(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		base := plan(seed, 16, 100)
		repl := replicatedPlan(seed, 16, 100, func(int) int { return 2 })
		if repl.TargetRank != base.TargetRank || repl.TargetIter != base.TargetIter {
			t.Fatalf("seed %d: replicated plan targets (%d,%d), base (%d,%d)",
				seed, repl.TargetRank, repl.TargetIter, base.TargetRank, base.TargetIter)
		}
		if repl.TargetReplica < 0 || repl.TargetReplica >= 2 {
			t.Fatalf("seed %d: replica %d out of range", seed, repl.TargetReplica)
		}
		// An unreplicated target keeps replica 0 (the fallback-path case).
		solo := replicatedPlan(seed, 16, 100, func(int) int { return 1 })
		if solo.TargetReplica != 0 {
			t.Fatalf("seed %d: degree-1 target got replica %d", seed, solo.TargetReplica)
		}
	}
	// Some seed must pick a non-primary replica, or the draw is broken.
	sawShadow := false
	for seed := int64(0); seed < 30; seed++ {
		if replicatedPlan(seed, 16, 100, func(int) int { return 2 }).TargetReplica == 1 {
			sawShadow = true
		}
	}
	if !sawShadow {
		t.Fatal("no seed ever targeted a shadow replica")
	}
}

// A k=1 schedule must be the legacy single-failure draw, for both the
// plain and the replicated variants: this is what keeps every calibrated
// single-failure result byte-identical under the campaign refactor. The
// legacy draw is spelled out here as the oracle: one stream per seed,
// iteration from the loop's middle 80%, then rank, then (replicated
// targets only) the replica index.
func TestScheduleK1EqualsLegacyPlan(t *testing.T) {
	degree2 := func(int) int { return 2 }
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := Event{TargetIter: 10 + rng.Intn(80), TargetRank: rng.Intn(64)}
		rp := p
		rp.TargetReplica = rng.Intn(2)
		s := NewSchedule(seed, 1, 64, 100, ProcessFailure)
		if len(s.Events) != 1 {
			t.Fatalf("seed %d: k=1 schedule has %d events", seed, len(s.Events))
		}
		ev := s.Events[0]
		if ev.TargetRank != p.TargetRank || ev.TargetIter != p.TargetIter ||
			ev.Kind != p.Kind || ev.TargetReplica != 0 || ev.AfterRecoveries != 0 {
			t.Fatalf("seed %d: schedule event %+v != plan %+v", seed, ev, p)
		}
		rs := NewReplicatedSchedule(seed, 1, 64, 100, ProcessFailure, degree2)
		rev := rs.Events[0]
		if rev.TargetRank != rp.TargetRank || rev.TargetIter != rp.TargetIter ||
			rev.TargetReplica != rp.TargetReplica {
			t.Fatalf("seed %d: replicated schedule event %+v != plan %+v", seed, rev, rp)
		}
	}
}

// All four designs must see the identical logical failure sequence: the
// (rank, iteration) draws of a schedule must not depend on whether replica
// indexes were drawn alongside them, and the same seed must always yield
// the same schedule.
func TestScheduleIdenticalAcrossDesigns(t *testing.T) {
	degree2 := func(int) int { return 2 }
	for seed := int64(0); seed < 25; seed++ {
		for _, k := range []int{1, 2, 3, 5} {
			plain := NewSchedule(seed, k, 64, 100, ProcessFailure)
			again := NewSchedule(seed, k, 64, 100, ProcessFailure)
			repl := NewReplicatedSchedule(seed, k, 64, 100, ProcessFailure, degree2)
			if len(plain.Events) != k || len(repl.Events) != k {
				t.Fatalf("seed %d k %d: %d plain / %d replicated events",
					seed, k, len(plain.Events), len(repl.Events))
			}
			for i := range plain.Events {
				if plain.Events[i] != again.Events[i] {
					t.Fatalf("seed %d k %d: schedule not deterministic", seed, k)
				}
				if plain.Events[i].TargetRank != repl.Events[i].TargetRank ||
					plain.Events[i].TargetIter != repl.Events[i].TargetIter {
					t.Fatalf("seed %d k %d event %d: plain targets (%d,%d), replicated (%d,%d)",
						seed, k, i,
						plain.Events[i].TargetRank, plain.Events[i].TargetIter,
						repl.Events[i].TargetRank, repl.Events[i].TargetIter)
				}
				if r := repl.Events[i].TargetReplica; r < 0 || r >= 2 {
					t.Fatalf("seed %d k %d event %d: replica %d out of range", seed, k, i, r)
				}
			}
		}
	}
}

// Events land on distinct iterations so every event can fire even in the
// rollback-free replica design, which never revisits an iteration.
func TestScheduleDistinctIterations(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		s := NewSchedule(seed, 5, 64, 40, ProcessFailure)
		seen := map[int]bool{}
		for _, ev := range s.Events {
			if seen[ev.TargetIter] {
				t.Fatalf("seed %d: duplicate iteration %d in %v", seed, ev.TargetIter, s.Events)
			}
			seen[ev.TargetIter] = true
			if ev.TargetIter < 0 || ev.TargetIter >= 40 {
				t.Fatalf("seed %d: iteration %d out of range", seed, ev.TargetIter)
			}
		}
	}
	// Tiny loops: k equal to the whole iteration range still terminates and
	// covers distinct iterations.
	s := NewSchedule(3, 4, 8, 4, ProcessFailure)
	seen := map[int]bool{}
	for _, ev := range s.Events {
		if seen[ev.TargetIter] {
			t.Fatalf("duplicate iteration in exhaustive schedule %v", s.Events)
		}
		seen[ev.TargetIter] = true
	}
}

// Any spec ParseSchedule accepts renders, through String, to a spec that
// parses back to the same schedule, and String is a fixed point of that
// round trip.
func FuzzScheduleRoundTrip(f *testing.F) {
	for _, spec := range []string{"3@40,3@55:after=1", "0@1:kind=node", "1@2:replica=1:kind=process", ""} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		out := s.String()
		rt, err := ParseSchedule(out)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) accepted, but its String %q is rejected: %v", spec, out, err)
		}
		if !reflect.DeepEqual(rt, s) {
			t.Fatalf("ParseSchedule(%q) = %+v, but its String %q parses to %+v", spec, s, out, rt)
		}
		if again := rt.String(); again != out {
			t.Fatalf("String is not a fixed point: %q -> %q", out, again)
		}
	})
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("3@40, 3@55:after=1:replica=1, 0@10:kind=node")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{TargetRank: 3, TargetIter: 40},
		{TargetRank: 3, TargetIter: 55, AfterRecoveries: 1, TargetReplica: 1},
		{TargetRank: 0, TargetIter: 10, Kind: NodeFailure},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(s.Events), len(want))
	}
	for i := range want {
		if s.Events[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, s.Events[i], want[i])
		}
	}
	// The DSL round-trips through String.
	rt, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	for i := range want {
		if rt.Events[i] != want[i] {
			t.Fatalf("round-trip event %d: %+v, want %+v", i, rt.Events[i], want[i])
		}
	}
	if s, err := ParseSchedule(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %v %v", s, err)
	}
	for _, bad := range []string{"x@1", "1@", "1@2:extra", "1@2:after=-1", "1@2:kind=meteor", "-1@2"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// A multi-event schedule fires each event exactly once, and events gated
// by AfterRecoveries stay dormant until the recovery count reaches their
// threshold.
func TestInjectorMultiFire(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	recoveries := 0
	in := NewScheduleInjector(Schedule{Events: []Event{
		{TargetRank: 1, TargetIter: 2},
		{TargetRank: 3, TargetIter: 4},
		{TargetRank: 0, TargetIter: 1, AfterRecoveries: 1},
	}})
	in.Recoveries = func() int { return recoveries }
	deaths := make([]int, 4) // last iter each rank completed
	j := mpi.Launch(c, 4, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		for it := 0; it < 6; it++ {
			in.MaybeFail(r, w, it)
			deaths[r.Rank(w)] = it
			r.Sim().Sleep(simnet.Millisecond)
		}
	})
	c.Run()
	if got := in.FiredCount(); got != 2 {
		t.Fatalf("fired %d events, want 2 (gated event must stay dormant)", got)
	}
	if deaths[1] != 1 || deaths[3] != 3 {
		t.Fatalf("victims died at iters %d/%d, want 1/3", deaths[1], deaths[3])
	}
	if deaths[0] != 5 {
		t.Fatal("gated event fired with zero recoveries")
	}
	// "Recovery" happens; a relaunched rank 0 replays and now dies at 1.
	recoveries = 1
	r0survived := false
	j.Start(j.World().Member(0), 0, func(r *mpi.Rank) error {
		for it := 0; it < 6; it++ {
			in.MaybeFail(r, j.World(), it)
		}
		r0survived = true
		return nil
	})
	c.Run()
	if in.FiredCount() != 3 {
		t.Fatalf("fired %d events after recovery, want 3", in.FiredCount())
	}
	if r0survived {
		t.Fatal("rank 0 survived the armed AfterRecoveries event")
	}
}

func TestNewPlanBounds(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := plan(seed, 16, 100)
		if p.TargetRank < 0 || p.TargetRank >= 16 {
			t.Fatalf("rank %d out of range", p.TargetRank)
		}
		if p.TargetIter < 10 || p.TargetIter >= 90 {
			t.Fatalf("iter %d outside middle 80%%", p.TargetIter)
		}
	}
	// Tiny loops fall back to the whole range.
	p := plan(1, 4, 1)
	if p.TargetIter != 0 {
		t.Fatalf("iter %d for 1-iteration loop", p.TargetIter)
	}
}

func TestInjectorKillsExactlyOnce(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	var log strings.Builder
	c.SetProbe(obs.NewProbe(nil, nil, obs.NewLog(&log)))
	// A replica selector matches any process of a plain world, and the
	// inject event names the process it hit: replica 0, not the selector.
	in := NewScheduleInjector(only(Event{TargetRank: 1, TargetIter: 3, TargetReplica: 1}))
	iterSeen := make([]int, 4)
	j := mpi.Launch(c, 4, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		for it := 0; it < 6; it++ {
			in.MaybeFail(r, w, it)
			iterSeen[r.Rank(w)] = it
			r.Sim().Sleep(simnet.Millisecond)
		}
	})
	c.Run()
	if !in.Fired() {
		t.Fatal("injector never fired")
	}
	if iterSeen[1] != 2 {
		t.Fatalf("rank 1 last completed iter %d, want 2 (killed at 3)", iterSeen[1])
	}
	for _, r := range []int{0, 2, 3} {
		if iterSeen[r] != 5 {
			t.Fatalf("rank %d did not finish (%d)", r, iterSeen[r])
		}
	}
	if !j.World().Member(1).Failed() {
		t.Fatal("rank 1 not marked failed")
	}
	if n := strings.Count(log.String(), `"msg":"inject"`); n != 1 || !strings.Contains(log.String(), `"rank":1,"replica":0,`) {
		t.Fatalf("want one inject event for rank 1 replica 0, got %q", log.String())
	}
	// Replay the iteration (as recovery does): must not fire again.
	survived := false
	j.Start(j.World().Member(1), 0, func(*mpi.Rank) error {
		survived = true
		return nil
	})
	c.Run()
	if !survived {
		t.Fatal("post-fire rank did not run")
	}
}

func TestInjectorDisabled(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 1})
	in := NewScheduleInjector(Schedule{})
	finished := false
	mpi.Launch(c, 1, 0, func(r *mpi.Rank) {
		w := r.Job().World()
		in.MaybeFail(r, w, 0)
		finished = true
	})
	c.Run()
	if !finished {
		t.Fatal("disabled injector killed the rank")
	}
}

func TestNodeFailureKillsCoResidents(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	in := NewScheduleInjector(only(Event{Kind: NodeFailure, TargetRank: 0, TargetIter: 1}))
	finished := make([]bool, 4)
	j := mpi.Launch(c, 4, 0, func(r *mpi.Rank) { // ranks 0,1 on node 0
		w := r.Job().World()
		for it := 0; it < 3; it++ {
			in.MaybeFail(r, w, it)
			r.Sim().Sleep(simnet.Millisecond)
		}
		finished[r.Rank(w)] = true
	})
	c.Run()
	_ = j
	if c.Node(0).Alive() {
		t.Fatal("node 0 still alive")
	}
	if finished[0] || finished[1] {
		t.Fatal("ranks on the failed node finished")
	}
	if !finished[2] || !finished[3] {
		t.Fatal("ranks on the surviving node did not finish")
	}
}
