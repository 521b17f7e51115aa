package restart

import (
	"testing"

	"match/internal/detect"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/storage"
)

func reference(n, iters int) float64 {
	total := 0.0
	for it := 0; it < iters; it++ {
		for rk := 0; rk < n; rk++ {
			total += float64(rk + it)
		}
	}
	return total
}

func runRestart(t *testing.T, n, iters, stride int, plan fault.Schedule, execID string) (*Supervisor, []float64) {
	t.Helper()
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	c.Scheduler().SetDeadline(10 * 60 * simnet.Second)
	st := storage.New(c, storage.Config{})
	inj := fault.NewScheduleInjector(plan)
	var s *Supervisor
	inj.Recoveries = func() int { return len(s.Recoveries) }
	sums := make([]float64, n)
	main := func(r *mpi.Rank, world *mpi.Comm) error {
		f, err := fti.Init(fti.Config{ExecID: execID}, r, world, st)
		if err != nil {
			t.Errorf("init: %v", err)
			return err
		}
		iter := 0
		sum := 0.0
		f.Protect(0, fti.Int{P: &iter})
		f.Protect(1, fti.F64{P: &sum})
		if f.Status() != fti.StatusFresh {
			if err := f.Recover(); err != nil {
				t.Errorf("recover: %v", err)
				return err
			}
		}
		for ; iter < iters; iter++ {
			inj.MaybeFail(r, world, iter)
			if iter%stride == 0 {
				if err := f.Checkpoint(int64(iter)); err != nil {
					return err // job is being torn down
				}
			}
			v, err := mpi.AllreduceF64Scalar(r, world, float64(r.Rank(world)+iter), mpi.OpSum)
			if err != nil {
				return err // torn down mid-collective
			}
			sum += v
			r.Compute(simnet.Millisecond)
		}
		sums[r.Rank(world)] = sum
		return nil
	}
	s = Supervise(c, detect.LauncherConfig(), n, main)
	c.Run()
	return s, sums
}

func TestRestartNoFailureSingleJob(t *testing.T) {
	s, sums := runRestart(t, 4, 12, 3, fault.Schedule{}, "restart-nofail")
	if !s.Done() {
		t.Fatal("job did not complete")
	}
	if len(s.Jobs) != 1 || len(s.Recoveries) != 0 {
		t.Fatalf("jobs=%d recoveries=%d", len(s.Jobs), len(s.Recoveries))
	}
	want := reference(4, 12)
	for i, sum := range sums {
		if sum != want {
			t.Fatalf("rank %d sum %v, want %v", i, sum, want)
		}
	}
}

func TestRestartRelaunchesAndResumes(t *testing.T) {
	plan := fault.Schedule{Events: []fault.Event{{TargetRank: 2, TargetIter: 7}}}
	s, sums := runRestart(t, 4, 12, 3, plan, "restart-fail")
	if !s.Done() {
		t.Fatal("job did not complete after relaunch")
	}
	if len(s.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(s.Jobs))
	}
	if len(s.Recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(s.Recoveries))
	}
	want := reference(4, 12)
	for i, sum := range sums {
		if sum != want {
			t.Fatalf("rank %d sum %v, want %v", i, sum, want)
		}
	}
	rec := s.Recoveries[0]
	if rec.Duration() < LaunchBase {
		t.Fatalf("recovery %v cheaper than the launch base %v", rec.Duration(), LaunchBase)
	}
	if rec.Rank != 2 {
		t.Fatalf("failed rank %v", rec.Rank)
	}
}

// Restart recovery must be far more expensive than Reinit-style recovery:
// the full redeployment dominates (paper: 16x on average).
func TestRestartRecoveryDominatedByRedeploy(t *testing.T) {
	plan := fault.Schedule{Events: []fault.Event{{TargetRank: 0, TargetIter: 4}}}
	s, _ := runRestart(t, 8, 10, 3, plan, "restart-redeploy")
	rec := s.Recoveries[0]
	min := DetectDelay + TeardownDelay + LaunchBase
	if rec.Duration() < min {
		t.Fatalf("recovery %v below the redeploy floor %v", rec.Duration(), min)
	}
}

// Per-proc launch cost must make bigger jobs slightly slower to relaunch.
func TestRestartScalesWithJobSize(t *testing.T) {
	var durs []simnet.Time
	for i, n := range []int{4, 16} {
		plan := fault.Schedule{Events: []fault.Event{{TargetRank: 1, TargetIter: 4}}}
		s, _ := runRestart(t, n, 10, 3, plan, map[int]string{0: "rs-a", 1: "rs-b"}[i])
		durs = append(durs, s.Recoveries[0].Duration())
	}
	if durs[1] <= durs[0] {
		t.Fatalf("relaunch of 16 ranks (%v) not slower than 4 ranks (%v)", durs[1], durs[0])
	}
}

func TestMaxRelaunchesGivesUp(t *testing.T) {
	// Kill rank 1 at iteration 1 of every incarnation: one kill more than
	// the relaunch budget, each gated on the relaunches before it.
	var plan fault.Schedule
	for k := 0; k <= MaxRelaunches; k++ {
		plan.Events = append(plan.Events, fault.Event{TargetRank: 1, TargetIter: 1, AfterRecoveries: k})
	}
	s, _ := runRestart(t, 2, 4, 3, plan, "restart-budget")
	if !s.GaveUp {
		t.Fatal("supervisor never gave up")
	}
	if s.Done() {
		t.Fatal("job reported done despite permanent failure")
	}
	if len(s.Recoveries) != MaxRelaunches {
		t.Fatalf("recoveries = %d, want %d", len(s.Recoveries), MaxRelaunches)
	}
}

// A node loss dooms the incarnation, and the relaunch places no rank on
// the dead node: the rank placed there moves to the next live node, and
// the job completes with the failure-free answer.
func TestRelaunchAvoidsDeadNode(t *testing.T) {
	plan := fault.Schedule{Events: []fault.Event{{Kind: fault.NodeFailure, TargetRank: 2, TargetIter: 7}}}
	s, sums := runRestart(t, 4, 12, 3, plan, "restart-node")
	if !s.Done() {
		t.Fatal("job did not complete after the node loss")
	}
	if len(s.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(s.Jobs))
	}
	c := s.CurrentJob().Cluster()
	if c.Node(2).Alive() {
		t.Fatal("node 2 survived its node failure")
	}
	for _, p := range s.CurrentJob().World().Leaders() {
		if !c.Node(p.NodeID()).Alive() {
			t.Fatalf("relaunched gid %d placed on dead node %d", p.GID(), p.NodeID())
		}
	}
	if got := s.CurrentJob().World().Member(2).NodeID(); got != 3 {
		t.Fatalf("rank 2 relaunched on node %d, want 3 (the next live node)", got)
	}
	want := reference(4, 12)
	for i, sum := range sums {
		if sum != want {
			t.Fatalf("rank %d sum %v, want %v", i, sum, want)
		}
	}
}
