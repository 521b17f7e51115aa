package ckpt

import (
	"strings"
	"testing"

	"match/internal/fti"
	"match/internal/obs"
	"match/internal/simnet"
	"match/internal/trace"
)

func mustPlanner(t *testing.T, cfg Config, maxIter, faults int) *Planner {
	t.Helper()
	pl, err := NewPlanner(Resolve(cfg), maxIter, faults)
	if err != nil {
		t.Fatalf("planner: %v", err)
	}
	return pl
}

// decisions replays a policy over the whole iteration space and returns
// the iterations it checkpoints at, keyed to their levels.
func decisions(p *Policy, maxIter int) map[int]fti.Level {
	out := map[int]fti.Level{}
	for i := 0; i < maxIter; i++ {
		if d := p.Next(i); d.Take {
			out[i] = d.Level
		}
	}
	return out
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseKind(""); err != nil || k != Fixed {
		t.Fatalf("empty name = %v, %v (want fixed)", k, err)
	}
	if k, err := ParseKind("Replica-Aware"); err != nil || k != ReplicaAware {
		t.Fatalf("case-insensitive parse = %v, %v", k, err)
	}
	if _, err := ParseKind("bogus"); err == nil || !strings.Contains(err.Error(), "fixed") {
		t.Fatalf("unknown name error %v must list valid kinds", err)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	bad := []Config{
		{Kind: Fixed, Stride: 0},                       // unresolved stride
		{Kind: Fixed, Stride: -3},                      // negative stride
		{Kind: Fixed, Stride: 10, L2Every: 2},          // escalation on fixed
		{Kind: MultiLevel, Stride: 10},                 // multi-level with no levels
		{Kind: MultiLevel, Stride: 10, L2Every: -1},    // negative interleave
		{Kind: Adaptive, Stride: 10, Stretch: 2},       // stretch on adaptive
		{Kind: ReplicaAware, Stride: 10},               // unresolved stretch
		{Kind: Fixed, Stride: 10, SkipProtected: true}, // skip on fixed
		{Kind: Kind(42), Stride: 10},                   // unknown kind
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", c)
		}
	}
	// Resolve must repair every resolvable case.
	for _, k := range Kinds() {
		if err := Resolve(Config{Kind: k}).Validate(); err != nil {
			t.Errorf("resolved %v invalid: %v", k, err)
		}
	}
}

func TestResolveFillsStrideAndDefaults(t *testing.T) {
	if c := Resolve(Config{Stride: 7}); c.Kind != Fixed || c.Stride != 7 {
		t.Fatalf("resolved stride-7 config = %+v", c)
	}
	if c := Resolve(Config{}); c.Kind != Fixed || c.Stride != 10 {
		t.Fatalf("resolved zero config = %+v, want fixed at the paper's stride 10", c)
	}
	ml := Resolve(Config{Kind: MultiLevel})
	if ml.L2Every != 3 || ml.L4Every != 10 || ml.L3Every != 0 {
		t.Fatalf("multi-level defaults = %+v", ml)
	}
	// An explicit partial interleave is kept, not overwritten.
	ml = Resolve(Config{Kind: MultiLevel, L3Every: 5})
	if ml.L2Every != 0 || ml.L3Every != 5 || ml.L4Every != 0 {
		t.Fatalf("explicit interleave clobbered: %+v", ml)
	}
	if ra := Resolve(Config{Kind: ReplicaAware}); ra.Stretch != 4 {
		t.Fatalf("replica-aware default stretch = %d", ra.Stretch)
	}
}

// The refactoring invariant: the fixed policy is the old iter%stride loop.
func TestFixedMatchesStrideArithmetic(t *testing.T) {
	pl := mustPlanner(t, Config{Stride: 10}, 95, 0)
	got := decisions(pl.Policy(), 95)
	for i := 0; i < 95; i++ {
		lvl, take := got[i]
		if take != (i%10 == 0) {
			t.Fatalf("iter %d: take=%v, want %v", i, take, i%10 == 0)
		}
		if take && lvl != 0 {
			t.Fatalf("iter %d: fixed placement overrode the level to %v", i, lvl)
		}
	}
	if pl.Avoided() != 0 {
		t.Fatalf("fixed placement avoided %d checkpoints", pl.Avoided())
	}
}

func TestNeverPolicy(t *testing.T) {
	pl := mustPlanner(t, Config{Kind: Never}, 200, 0)
	if len(decisions(pl.Policy(), 200)) != 0 {
		t.Fatal("never policy checkpointed")
	}
	if s := pl.Strides(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("never policy strides = %v, want [0]", s)
	}
}

func TestMultiLevelInterleave(t *testing.T) {
	pl := mustPlanner(t, Config{Kind: MultiLevel, Stride: 10, L2Every: 2, L4Every: 4}, 100, 0)
	got := decisions(pl.Policy(), 100)
	// Checkpoints land on the stride; levels cycle 1-based: L1, L2, L1, L4...
	want := map[int]fti.Level{0: 0, 10: fti.L2, 20: 0, 30: fti.L4, 40: 0, 50: fti.L2, 60: 0, 70: fti.L4, 80: 0, 90: fti.L2}
	if len(got) != len(want) {
		t.Fatalf("got %d checkpoints, want %d (%v)", len(got), len(want), got)
	}
	for i, lvl := range want {
		if got[i] != lvl {
			t.Fatalf("iter %d: level %v, want %v", i, got[i], lvl)
		}
	}
}

func TestReplicaAwareStretchAndRearm(t *testing.T) {
	degree := 2
	pl := mustPlanner(t, Config{Kind: ReplicaAware, Stretch: 4}, 100, 0)
	pl.Degree = func() int { return degree }
	p := pl.Policy()
	// Fully protected: stride 10 stretched to 40.
	for i := 0; i < 50; i++ {
		if d := p.Next(i); d.Take != (i%40 == 0) {
			t.Fatalf("protected iter %d: take=%v", i, d.Take)
		}
	}
	// A failover degrades a group: the policy re-arms to the base stride
	// for iterations not yet decided.
	degree = 1
	for i := 50; i < 100; i++ {
		if d := p.Next(i); d.Take != (i%10 == 0) {
			t.Fatalf("degraded iter %d: take=%v", i, d.Take)
		}
	}
	// Avoided counts the base-stride points skipped while protected
	// (10, 20, 30 — iter 0 and 40 were taken).
	if pl.Avoided() != 3 {
		t.Fatalf("avoided = %d, want 3", pl.Avoided())
	}
	// Memoized decisions stay sticky: re-asking about a protected-era
	// iteration after degradation returns the original decision.
	if d := p.Next(20); d.Take {
		t.Fatal("iter 20 decision changed on replay")
	}
}

func TestReplicaAwareSkipProtected(t *testing.T) {
	pl := mustPlanner(t, Config{Kind: ReplicaAware, SkipProtected: true}, 60, 0)
	pl.Degree = func() int { return 2 }
	if got := decisions(pl.Policy(), 60); len(got) != 0 {
		t.Fatalf("skip-protected checkpointed at %v", got)
	}
	if pl.Avoided() != 6 {
		t.Fatalf("avoided = %d, want 6", pl.Avoided())
	}
}

// Arm and avoid events reach the registry and the recorder through one
// Emit, so an observed planner reports the same counts on both: two arms
// (the first incarnation and the re-arm after a recovery) and the six
// base-stride points each incarnation skips, stamped by the attached clock.
func TestObservedPlannerCountsMatchSpans(t *testing.T) {
	pl := mustPlanner(t, Config{Kind: ReplicaAware, SkipProtected: true}, 60, 0)
	pl.Degree = func() int { return 2 }
	epoch := 0
	pl.Epoch = func() int { return epoch }
	reg, rec := obs.New(), trace.New()
	pl.Attach(obs.NewProbe(reg, rec, nil), func() simnet.Time { return 7 * simnet.Second })
	decisions(pl.Policy(), 60)
	epoch = 1
	decisions(pl.Policy(), 60)

	spans := map[trace.Cat]int64{}
	for _, s := range rec.Spans() {
		spans[s.Cat]++
		if s.Start != int64(7*simnet.Second) {
			t.Fatalf("%v span stamped %d, want the attached clock", s.Cat, s.Start)
		}
	}
	if arms := reg.Get(obs.CPolicyArms); arms != 2 || spans[trace.CatPolicyArm] != arms {
		t.Fatalf("arms: registry %d, spans %d, want 2 on both", arms, spans[trace.CatPolicyArm])
	}
	if avoids := reg.Get(obs.CPolicyAvoids); avoids != 12 || spans[trace.CatPolicyAvoid] != avoids ||
		int64(pl.Avoided()) != avoids {
		t.Fatalf("avoids: registry %d, spans %d, planner %d, want 12 on all",
			avoids, spans[trace.CatPolicyAvoid], pl.Avoided())
	}
}

func TestReplicaAwareUnreplicatedDegeneratesToFixed(t *testing.T) {
	// No degree feed (an unreplicated design): identical to fixed.
	pl := mustPlanner(t, Config{Kind: ReplicaAware}, 50, 0)
	got := decisions(pl.Policy(), 50)
	for i := 0; i < 50; i++ {
		if _, take := got[i]; take != (i%10 == 0) {
			t.Fatalf("iter %d take=%v", i, take)
		}
	}
}

// Decisions must be identical across ranks however their clocks
// interleave: the first consultation decides, replays agree — even when
// the live input changed in between.
func TestDecisionsMemoizedAcrossRanks(t *testing.T) {
	degree := 2
	pl := mustPlanner(t, Config{Kind: ReplicaAware, Stretch: 2}, 40, 0)
	pl.Degree = func() int { return degree }
	p := pl.Policy()
	first := p.Next(20)  // rank A reaches iter 20 while protected
	degree = 1           // failover lands
	second := p.Next(20) // rank B reaches iter 20 after it
	if first != second {
		t.Fatalf("ranks diverged at iter 20: %+v vs %+v (collective deadlock)", first, second)
	}
}

func TestAdaptiveNoFaultsCheckpointsOnce(t *testing.T) {
	pl := mustPlanner(t, Config{Kind: Adaptive}, 120, 0)
	got := decisions(pl.Policy(), 120)
	if len(got) != 1 {
		t.Fatalf("fault-free adaptive took %d checkpoints, want 1 (iter 0 only): %v", len(got), got)
	}
	if _, ok := got[0]; !ok {
		t.Fatalf("missing iteration-0 checkpoint: %v", got)
	}
	// Every skipped base-stride point counts as avoided: 10..110.
	if pl.Avoided() != 11 {
		t.Fatalf("avoided = %d, want 11", pl.Avoided())
	}
}

func TestAdaptiveRecomputesPerIncarnation(t *testing.T) {
	epoch := 0
	pl := mustPlanner(t, Config{Kind: Adaptive}, 100, 1)
	pl.Epoch = func() int { return epoch }
	p0 := pl.Policy()
	// First incarnation: nothing measured yet, base stride stands in.
	if s := pl.Strides(); len(s) != 1 || s[0] != 10 {
		t.Fatalf("first-incarnation strides = %v, want [10]", s)
	}
	// Feed measurements: checkpoints cost 2 steps, MTBF = 100 iters, so
	// Young-Daly says sqrt(2*2*100) = 20.
	p0.ObserveCkpt(2 * simnet.Second)
	p0.ObserveStep(1 * simnet.Second)
	epoch = 1 // a recovery happened; the next incarnation re-arms
	p1 := pl.Policy()
	if p1 == p0 {
		t.Fatal("policy not re-armed on epoch change")
	}
	if s := pl.Strides(); len(s) != 2 || s[1] != 20 {
		t.Fatalf("recomputed strides = %v, want [10 20]", s)
	}
	got := decisions(p1, 100)
	for i := 0; i < 100; i++ {
		if _, take := got[i]; take != (i%20 == 0) {
			t.Fatalf("iter %d take=%v under recomputed stride", i, take)
		}
	}
	// Same epoch: the same policy instance is handed to every rank.
	if pl.Policy() != p1 {
		t.Fatal("policy rebuilt without an epoch change")
	}
}

func TestMultiLevelCounterResetsPerIncarnation(t *testing.T) {
	epoch := 0
	pl := mustPlanner(t, Config{Kind: MultiLevel, L2Every: 2}, 40, 1)
	pl.Epoch = func() int { return epoch }
	first := decisions(pl.Policy(), 40)
	epoch = 1
	second := decisions(pl.Policy(), 40)
	// A fresh incarnation replays the same escalation pattern from its
	// own counter, not the previous incarnation's.
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("iter %d: %v then %v across incarnations", i, first[i], second[i])
		}
	}
}

func TestConfigString(t *testing.T) {
	cases := map[string]Config{
		"fixed":                        {},
		"fixed(s=10)":                  {Kind: Fixed, Stride: 10},
		"multi-level(s=10,l2=3,l4=10)": Resolve(Config{Kind: MultiLevel}),
		"replica-aware(s=10,x4)":       Resolve(Config{Kind: ReplicaAware}),
		"replica-aware(s=10,skip)":     Resolve(Config{Kind: ReplicaAware, SkipProtected: true}),
		"adaptive(s=10)":               Resolve(Config{Kind: Adaptive}),
		"never":                        Resolve(Config{Kind: Never}),
	}
	for want, c := range cases {
		if got := c.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", c, got, want)
		}
	}
}
