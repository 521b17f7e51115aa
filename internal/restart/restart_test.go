package restart

import (
	"testing"

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
	sums := make([]float64, n)
	main := func(r *mpi.Rank) {
		world := r.Job().World()
		f, err := fti.Init(fti.Config{ExecID: execID}, r, world, st)
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		iter := 0
		sum := 0.0
		f.Protect(0, fti.Int{P: &iter})
		f.Protect(1, fti.F64{P: &sum})
		if f.Status() != fti.StatusFresh {
			if err := f.Recover(); err != nil {
				t.Errorf("recover: %v", err)
				return
			}
		}
		for ; iter < iters; iter++ {
			inj.MaybeFail(r, world, iter)
			if iter%stride == 0 {
				if err := f.Checkpoint(int64(iter)); err != nil {
					return // job is being torn down
				}
			}
			v, err := mpi.AllreduceF64Scalar(r, world, float64(r.Rank(world)+iter), mpi.OpSum)
			if err != nil {
				return // torn down mid-collective
			}
			sum += v
			r.Compute(simnet.Millisecond)
		}
		sums[r.Rank(world)] = sum
	}
	s := Supervise(c, Config{}, n, main)
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
	if rec.Duration() < DefaultConfig().LaunchBase {
		t.Fatalf("recovery %v cheaper than the launch base %v", rec.Duration(), DefaultConfig().LaunchBase)
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
	cfg := DefaultConfig()
	min := cfg.DetectDelay + cfg.TeardownDelay + cfg.LaunchBase
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
	// An injector that kills rank 0 at iteration 0 of *every* incarnation.
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	c.Scheduler().SetDeadline(30 * 60 * simnet.Second)
	main := func(r *mpi.Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			r.Die()
		}
		mpi.Barrier(r, w)
	}
	s := Supervise(c, Config{MaxRelaunches: 2}, 2, main)
	c.Run()
	if !s.GaveUp {
		t.Fatal("supervisor never gave up")
	}
	if s.Done() {
		t.Fatal("job reported done despite permanent failure")
	}
	if len(s.Recoveries) != 2 {
		t.Fatalf("recoveries = %d, want 2", len(s.Recoveries))
	}
}
