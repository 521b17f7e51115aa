package core

import (
	"testing"

	"match/internal/ckpt"
	"match/internal/fti"
	"match/internal/replica"
)

// TestCkptPolicyPresetMatchesExplicit pins the refactoring invariant
// behind the calibrated numbers: the default (zero-value) placement is
// literally the fixed policy at the configured stride, so spelling it out
// explicitly reproduces the default run byte-for-byte — with and without
// a failure, for every design.
func TestCkptPolicyPresetMatchesExplicit(t *testing.T) {
	if testing.Short() {
		t.Skip("16-run equality matrix")
	}
	for _, k := range []int{0, 1} {
		for _, d := range Designs() {
			base := Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4, Input: Small,
				Faults: k, FaultSeed: 9}
			want, err := Run(base)
			if err != nil {
				t.Fatalf("%s default (k=%d): %v", d, k, err)
			}
			exp := base
			exp.CkptPolicy = ckpt.Config{Kind: ckpt.Fixed, Stride: 10}
			got, err := Run(exp)
			if err != nil {
				t.Fatalf("%s explicit (k=%d): %v", d, k, err)
			}
			if want != got {
				t.Fatalf("%s (k=%d) explicit fixed placement diverged:\ndefault:  %+v\nexplicit: %+v",
					d, k, want, got)
			}
		}
	}
}

// TestCkptAvoidedIdenticalAcrossDesigns is the cross-design placement
// contract: under the same deterministic policy and no failures, every
// design reports the identical checkpoint count and avoided count — the
// policy, not the design, owns placement. The adaptive policy with an
// empty fault schedule is the sharpest case: Young-Daly degenerates to a
// single iteration-0 checkpoint everywhere.
func TestCkptAvoidedIdenticalAcrossDesigns(t *testing.T) {
	var ref *Breakdown
	for _, d := range Designs() {
		bd, err := Run(Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4, Input: Small,
			CkptPolicy: ckpt.Config{Kind: ckpt.Adaptive}})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if bd.CkptCount != 1 || bd.CkptCountAt[fti.L1] != 1 {
			t.Fatalf("%s: fault-free adaptive took %d checkpoints (%v), want the single iteration-0 one",
				d, bd.CkptCount, bd.CkptCountAt)
		}
		if bd.CkptAvoided <= 0 {
			t.Fatalf("%s: avoided = %d, want > 0", d, bd.CkptAvoided)
		}
		if ref == nil {
			bd := bd
			ref = &bd
			continue
		}
		if bd.CkptAvoided != ref.CkptAvoided || bd.CkptCount != ref.CkptCount || bd.Signature != ref.Signature {
			t.Fatalf("%s: avoided=%d count=%d sig=%v diverges from %s's avoided=%d count=%d sig=%v",
				d, bd.CkptAvoided, bd.CkptCount, bd.Signature,
				Designs()[0], ref.CkptAvoided, ref.CkptCount, ref.Signature)
		}
	}
}

// TestMultiLevelPlacementRecoversEverywhere runs the FTI-style interleave
// (L1 every stride, L2 every 3rd checkpoint, L4 every 10th) through every
// design with an injected failure: checkpoints must actually spread
// across levels, recovery must restore from whatever level the newest
// commit used, and the recovered answer must stay bitwise identical to
// the failure-free run.
func TestMultiLevelPlacementRecoversEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full design matrix")
	}
	ref, err := Run(Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4, Input: Small})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, d := range Designs() {
		bd, err := Run(Config{App: "HPCCG", Design: d, Procs: 8, Nodes: 4, Input: Small,
			Faults: 1, FaultSeed: 9,
			CkptPolicy: ckpt.Config{Kind: ckpt.MultiLevel}})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if bd.Recoveries < 1 {
			t.Fatalf("%s: no recovery", d)
		}
		if bd.CkptCountAt[fti.L2] == 0 {
			t.Fatalf("%s: no checkpoint escalated to L2: %v", d, bd.CkptCountAt)
		}
		if bd.CkptCount != bd.CkptCountAt[fti.L1]+bd.CkptCountAt[fti.L2]+bd.CkptCountAt[fti.L3]+bd.CkptCountAt[fti.L4] {
			t.Fatalf("%s: per-level counts %v do not sum to %d", d, bd.CkptCountAt, bd.CkptCount)
		}
		if bd.Signature != ref.Signature {
			t.Fatalf("%s: recovered answer %v != failure-free %v under multi-level placement",
				d, bd.Signature, ref.Signature)
		}
	}
}

// TestReplicaAwareRearmsAfterFailover pins the re-arming semantics end to
// end, with the skip-protected variant making it sharply observable:
// while full replication protects every rank no checkpoints are taken at
// all; the injected failure degrades one group to degree 1 via failover,
// after which the policy re-arms to the base stride and checkpoints
// resume. The run must therefore show BOTH skipped and taken checkpoints,
// and still recover the exact answer.
func TestReplicaAwareRearmsAfterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("six-run re-arming matrix")
	}
	ref, err := Run(Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4, Input: Small})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	bd, err := Run(Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
		Faults: 1, FaultSeed: 9,
		CkptPolicy: ckpt.Config{Kind: ckpt.ReplicaAware, SkipProtected: true}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if bd.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 failover", bd.Recoveries)
	}
	if bd.CkptAvoided == 0 {
		t.Fatal("no checkpoints avoided while fully protected")
	}
	if bd.CkptCount == 0 {
		t.Fatal("no checkpoints after degradation: the policy did not re-arm to the base stride")
	}
	if bd.Signature != ref.Signature {
		t.Fatalf("signature %v != failure-free %v", bd.Signature, ref.Signature)
	}
	// The same policy on a failure-free fully-replicated run never
	// re-arms: zero checkpoints, everything avoided.
	clean, err := Run(Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
		CkptPolicy: ckpt.Config{Kind: ckpt.ReplicaAware, SkipProtected: true}})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.CkptCount != 0 || clean.CkptAvoided == 0 {
		t.Fatalf("fully-protected run took %d checkpoints (avoided %d), want 0 (all avoided)",
			clean.CkptCount, clean.CkptAvoided)
	}
	// Under partial replication some rank is always unprotected, so the
	// policy runs at the base stride from the start.
	partial, err := Run(Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
		Replica:    replica.Config{ReplicaFactor: 0.5},
		CkptPolicy: ckpt.Config{Kind: ckpt.ReplicaAware, SkipProtected: true}})
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	fixed, err := Run(Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
		Replica: replica.Config{ReplicaFactor: 0.5}})
	if err != nil {
		t.Fatalf("partial fixed run: %v", err)
	}
	if partial.CkptCount != fixed.CkptCount {
		t.Fatalf("partial replication: replica-aware took %d checkpoints, fixed took %d (want equal)",
			partial.CkptCount, fixed.CkptCount)
	}
}

// TestAdaptivePlacementRecomputesAcrossIncarnations pins the adaptive
// policy's incarnation behavior in a real run: with a scheduled failure
// the first incarnation runs at the base stride (nothing measured yet),
// and the post-recovery incarnation recomputes a Young-Daly interval from
// the observed checkpoint/step costs — visible as a second entry in the
// run's stride history that differs from a pure base-stride replay. The
// answer stays exact either way.
func TestAdaptivePlacementRecomputesAcrossIncarnations(t *testing.T) {
	ref, err := Run(Config{App: "HPCCG", Design: RestartFTI, Procs: 8, Nodes: 4, Input: Small})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	fixed, err := Run(Config{App: "HPCCG", Design: RestartFTI, Procs: 8, Nodes: 4, Input: Small,
		Faults: 1, FaultSeed: 9})
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}
	bd, err := Run(Config{App: "HPCCG", Design: RestartFTI, Procs: 8, Nodes: 4, Input: Small,
		Faults: 1, FaultSeed: 9,
		CkptPolicy: ckpt.Config{Kind: ckpt.Adaptive}})
	if err != nil {
		t.Fatalf("adaptive: %v", err)
	}
	if bd.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", bd.Recoveries)
	}
	if bd.Signature != ref.Signature {
		t.Fatalf("adaptive signature %v != failure-free %v", bd.Signature, ref.Signature)
	}
	// The recomputed interval must have changed placement relative to the
	// fixed replay of the same failure (a longer interval shows up as
	// avoided checkpoints, a shorter one as extra checkpoints).
	if bd.CkptCount == fixed.CkptCount && bd.CkptAvoided == 0 {
		t.Fatalf("adaptive run indistinguishable from fixed (count=%d avoided=%d): no recomputation happened",
			bd.CkptCount, bd.CkptAvoided)
	}
}

// TestCampaignPolicyAndReplicaSweepDimensions pins the campaign matrix's
// two new axes: placement policies multiply the grid, and a ReplicaFactor
// sweep restricts it to the replica design with factor 0 encoded as
// dup-degree 1 (replication off).
func TestCampaignPolicyAndReplicaSweepDimensions(t *testing.T) {
	cfgs := CampaignRequest{Apps: []string{"HPCCG"}, MaxFaults: 1,
		Policies:       []ckpt.Config{{}, {Kind: ckpt.ReplicaAware}},
		ReplicaFactors: []float64{0, 0.5, 1}}.Configs()
	// 1 app x 1 detector x 2 policies x 3 factors x k=0,1 x 1 design.
	if len(cfgs) != 12 {
		t.Fatalf("configs = %d, want 12", len(cfgs))
	}
	factors := map[float64]bool{}
	for _, c := range cfgs {
		if c.Design != ReplicaFTI {
			t.Fatalf("factor sweep produced a %s config", c.Design)
		}
		factors[ReplicaFactorOf(c)] = true
	}
	for _, f := range []float64{0, 0.5, 1} {
		if !factors[f] {
			t.Fatalf("factor %g missing from sweep: %v", f, factors)
		}
	}
	// Without a factor sweep the design list stays as given.
	plain := CampaignRequest{Apps: []string{"HPCCG"}, MaxFaults: 0}.Configs()
	if len(plain) != len(Designs()) {
		t.Fatalf("plain campaign configs = %d, want %d", len(plain), len(Designs()))
	}
}

// TestReplicaTradeoffCurve runs a miniature ReplicaFactor sweep end to end
// and checks the PartRePer shape: recovery per failure shrinks as the
// replicated fraction grows (failover replaces relaunch), and under
// replica-aware placement the fully-replicated point avoids checkpoints
// the unreplicated point must take.
func TestReplicaTradeoffCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("four-run sweep")
	}
	pol := ckpt.Config{Kind: ckpt.ReplicaAware}
	var results []Result
	for _, factor := range []float64{0, 1} {
		for k := 0; k <= 1; k++ {
			cfg := Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Small,
				Faults: k, FaultSeed: 9,
				Replica: replicaConfigFor(factor), CkptPolicy: pol}
			bd, err := Run(cfg)
			if err != nil {
				t.Fatalf("factor %g k=%d: %v", factor, k, err)
			}
			results = append(results, Result{Config: cfg, Breakdown: bd})
		}
	}
	rows := ComputeReplicaTradeoff(results)
	if len(rows) != 2 {
		t.Fatalf("tradeoff rows = %d, want 2: %+v", len(rows), rows)
	}
	r0, r1 := rows[0], rows[1]
	if r0.Factor != 0 || r1.Factor != 1 {
		t.Fatalf("row factors = %g, %g", r0.Factor, r1.Factor)
	}
	if r0.OverheadPct != 0 {
		t.Fatalf("factor-0 overhead = %g%%, want 0 (it is its own baseline)", r0.OverheadPct)
	}
	if r1.RecoveryPerFailure >= r0.RecoveryPerFailure {
		t.Fatalf("replication did not cut recovery: %g >= %g",
			r1.RecoveryPerFailure, r0.RecoveryPerFailure)
	}
	if r0.CkptAvoided != 0 || r1.CkptAvoided == 0 {
		t.Fatalf("avoided checkpoints: factor0=%d factor1=%d (want 0 and >0)",
			r0.CkptAvoided, r1.CkptAvoided)
	}
	if r1.CkptCount >= r0.CkptCount {
		t.Fatalf("replica-aware placement did not reduce checkpoints: %d >= %d",
			r1.CkptCount, r0.CkptCount)
	}
}
