package core

import (
	"strings"
	"testing"

	"match/internal/ckpt"
	"match/internal/fault"
	"match/internal/replica"
	"match/internal/simnet"
)

// doubleHit is an explicit schedule that kills one replica of a rank and
// later the other: the repeat-failure scenario hot-spare respawn exists
// for. The second event targets the survivor of the first.
func doubleHit(t *testing.T) *fault.Schedule {
	t.Helper()
	sched, err := fault.ParseSchedule("5@20:replica=0,5@45:replica=1")
	if err != nil {
		t.Fatal(err)
	}
	return &sched
}

// A second failure on a degraded group lands after the respawn window:
// with hot-spare the live spare absorbs it by failover; without, the group
// is exhausted and the run pays a checkpoint-fallback relaunch. Both
// recover to the failure-free answer.
func TestHotSpareSecondFailureFailsOverNotFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("three-run repeat-failure matrix")
	}
	ref, err := Run(Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4, Input: Small})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	base := Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
		Schedule: doubleHit(t)}

	with := base
	with.Replica.HotSpare = true
	bdWith, err := Run(with)
	if err != nil {
		t.Fatalf("hot-spare run: %v", err)
	}
	if bdWith.Signature != ref.Signature {
		t.Fatalf("hot-spare signature %v != failure-free %v", bdWith.Signature, ref.Signature)
	}
	if bdWith.Recoveries != 2 {
		t.Fatalf("hot-spare recoveries = %d, want 2 failovers", bdWith.Recoveries)
	}
	if bdWith.Respawns == 0 || bdWith.SpawnTime == 0 {
		t.Fatalf("respawns = %d, spawn time = %v; want both nonzero", bdWith.Respawns, bdWith.SpawnTime)
	}
	// Two failovers cost tens of milliseconds; a fallback relaunch costs
	// seconds. The margin separates the paths unambiguously.
	if bdWith.Recovery >= simnet.Second {
		t.Fatalf("hot-spare recovery = %v, smells like a relaunch (want failover-scale)", bdWith.Recovery)
	}

	bdWithout, err := Run(base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if bdWithout.Signature != ref.Signature {
		t.Fatalf("baseline signature %v != failure-free %v", bdWithout.Signature, ref.Signature)
	}
	if bdWithout.Respawns != 0 || bdWithout.SpawnTime != 0 {
		t.Fatalf("baseline reported respawns = %d, spawn time = %v; want zero with hot-spare off",
			bdWithout.Respawns, bdWithout.SpawnTime)
	}
	if bdWithout.Recovery < simnet.Second {
		t.Fatalf("baseline recovery = %v, want a relaunch-scale fallback (group exhausted)", bdWithout.Recovery)
	}
}

// The same double hit with a spawn delay longer than the run keeps the
// second failure inside the respawn window: the spare is not yet live, so
// the group exhausts and the checkpoint fallback runs even with hot-spare
// enabled.
func TestHotSpareRespawnWindowFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size fallback run")
	}
	cfg := Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
		Schedule: doubleHit(t),
		Replica:  replica.Config{HotSpare: true, SpawnDelay: 3600 * simnet.Second}}
	bd, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if bd.Respawns != 0 || bd.SpawnTime != 0 {
		t.Fatalf("respawns = %d, spawn time = %v; the spare must not go live inside the window",
			bd.Respawns, bd.SpawnTime)
	}
	if bd.Recovery < simnet.Second {
		t.Fatalf("recovery = %v, want a relaunch-scale fallback (second hit inside the window)", bd.Recovery)
	}
	if !bd.Completed {
		t.Fatal("run did not complete after the fallback")
	}
}

// Once a spare restores full degree, the replica-aware placement policy
// must re-arm back to stretched strides: the run avoids more checkpoints
// than the same failure without a spare, which stays degraded (base
// stride) to the end.
func TestHotSpareReplicaAwareRearmsToStretched(t *testing.T) {
	if testing.Short() {
		t.Skip("two-run placement comparison")
	}
	sched, err := fault.ParseSchedule("5@20:replica=0")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
		Schedule:   &sched,
		CkptPolicy: ckpt.Config{Kind: ckpt.ReplicaAware}}
	with := base
	with.Replica.HotSpare = true
	bdWith, err := Run(with)
	if err != nil {
		t.Fatalf("hot-spare run: %v", err)
	}
	bdWithout, err := Run(base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if bdWith.CkptAvoided <= bdWithout.CkptAvoided {
		t.Fatalf("avoided with spare = %d, without = %d; restoring full degree must resume the stretched stride",
			bdWith.CkptAvoided, bdWithout.CkptAvoided)
	}
	if bdWith.CkptCount >= bdWithout.CkptCount {
		t.Fatalf("ckpts with spare = %d, without = %d; want fewer once protection returns",
			bdWith.CkptCount, bdWithout.CkptCount)
	}
}

// The campaign hot-spare axis doubles only the replica design's cells, and
// HotSpareCrossovers splits a swept result set into per-variant crossovers
// that share the unreplicated designs.
func TestCampaignHotSpareAxis(t *testing.T) {
	cfgs := CampaignRequest{Apps: []string{"HPCCG"}, MaxFaults: 1, HotSpares: []bool{false, true}}.Configs()
	// k = 0,1 x (3 unreplicated + 2 replica variants).
	if want := 2 * (len(Designs()) + 1); len(cfgs) != want {
		t.Fatalf("campaign cells = %d, want %d", len(cfgs), want)
	}
	nOn := 0
	for _, c := range cfgs {
		if HotSpareOf(c) {
			nOn++
			if c.Design != ReplicaFTI {
				t.Fatalf("hot-spare cell for %s; the axis is replica-only", c.Design)
			}
		}
	}
	if nOn != 2 {
		t.Fatalf("hot-spare cells = %d, want 2 (k=0 and k=1)", nOn)
	}
	// Degenerate variant lists must not distort coverage: an on-only sweep
	// still runs every unreplicated design once per k, and repeated
	// entries cannot duplicate cells.
	onOnly := CampaignRequest{Apps: []string{"HPCCG"}, MaxFaults: 1, HotSpares: []bool{true}}.Configs()
	if want := 2 * len(Designs()); len(onOnly) != want {
		t.Fatalf("on-only sweep cells = %d, want %d (non-replica designs once per k)", len(onOnly), want)
	}
	dup := CampaignRequest{Apps: []string{"HPCCG"}, MaxFaults: 1, HotSpares: []bool{false, false}}.Configs()
	if want := 2 * len(Designs()); len(dup) != want {
		t.Fatalf("duplicated-variant sweep cells = %d, want %d (no duplicate cells)", len(dup), want)
	}

	// Synthetic results: the split must pair each variant with the shared
	// Reinit cells and key them into the same crossover cells.
	mk := func(d Design, k int, hs bool, total simnet.Time) Result {
		return Result{
			Config: Config{App: "HPCCG", Design: d, Procs: 8, Faults: k,
				Replica: replica.Config{HotSpare: hs}},
			Breakdown: Breakdown{Total: total, Recovery: simnet.Millisecond, Recoveries: k},
		}
	}
	results := []Result{
		mk(ReinitFTI, 0, false, 10*simnet.Second), mk(ReinitFTI, 1, false, 12*simnet.Second),
		mk(ReplicaFTI, 0, false, 11*simnet.Second), mk(ReplicaFTI, 1, false, 13*simnet.Second),
		mk(ReplicaFTI, 0, true, 11*simnet.Second), mk(ReplicaFTI, 1, true, 11500*simnet.Millisecond),
	}
	off, on, swept := HotSpareCrossovers(results)
	if !swept {
		t.Fatal("sweep not detected")
	}
	if len(off.Ks) != 2 || len(on.Ks) != 2 {
		t.Fatalf("crossover ks: off=%v on=%v, want two failure counts each", off.Ks, on.Ks)
	}
	if off.ReplicaOverReinitTotal[1] <= on.ReplicaOverReinitTotal[1] {
		t.Fatalf("k=1 replica/reinit: off=%v on=%v; the on-variant was built cheaper",
			off.ReplicaOverReinitTotal[1], on.ReplicaOverReinitTotal[1])
	}
	if _, _, swept := HotSpareCrossovers(results[:4]); swept {
		t.Fatal("single-variant results misreported as a sweep")
	}

	// The campaign table labels the axis when it is swept.
	var sb strings.Builder
	WriteCampaign(&sb, results)
	if !strings.Contains(sb.String(), "hot-spare") {
		t.Fatalf("campaign table missing hot-spare column:\n%s", sb.String())
	}
}

// A replica that cannot continue is a lost replica. Rank 5 is hit three
// times on 8 nodes: replica 1 dies (failover), then replica 0 (the group is
// exhausted: fallback relaunch). In the relaunch, replica 1 finds no L1
// copy of checkpoint 40 on its node, since it died before writing one, and
// its main returns that error. So when the third hit kills replica 0, no
// copy of the rank's state is left, and the group falls back again, to the
// failure-free answer.
func TestErroredReplicaFallsBack(t *testing.T) {
	sched, err := fault.ParseSchedule("5@20:replica=1,5@45:replica=0,5@50:replica=0:after=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 8, Input: Small, Schedule: &sched}
	bd, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ref := cfg
	failureFree(&ref)
	refBd, err := Run(ref)
	if err != nil {
		t.Fatalf("failure-free twin: %v", err)
	}
	if status, err := Verdict(Result{Config: ref, Breakdown: refBd}, Result{Config: cfg, Breakdown: bd}); err != nil {
		t.Fatalf("%s: %v", status, err)
	}
	if bd.Signature != 13824 || bd.Recoveries != 3 {
		t.Fatalf("signature %v, %d recoveries; want 13824 and 3 (a failover, two fallbacks)", bd.Signature, bd.Recoveries)
	}
}
