package reinit

import (
	"fmt"
	"testing"

	"match/internal/detect"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/storage"
)

// miniApp is an iterative BSP kernel used to exercise recovery: every
// iteration allreduces a value and accumulates it; the final sum has a
// closed-form reference, and FTI protects (iter, sum).
func miniApp(st *storage.System, execID string, iters, stride int,
	inj *fault.Injector, sums []float64) func(*mpi.Rank, *mpi.Comm) error {
	return func(r *mpi.Rank, world *mpi.Comm) error {
		f, err := fti.Init(fti.Config{ExecID: execID}, r, world, st)
		if err != nil {
			return err
		}
		iter := 0
		sum := 0.0
		f.Protect(0, fti.Int{P: &iter})
		f.Protect(1, fti.F64{P: &sum})
		if f.Status() != fti.StatusFresh {
			if err := f.Recover(); err != nil {
				return err
			}
		}
		for ; iter < iters; iter++ {
			inj.MaybeFail(r, world, iter)
			if iter%stride == 0 {
				if err := f.Checkpoint(int64(iter)); err != nil {
					return err
				}
			}
			v, err := mpi.AllreduceF64Scalar(r, world, float64(r.Rank(world)+iter), mpi.OpSum)
			if err != nil {
				return err
			}
			sum += v
			r.Compute(simnet.Millisecond)
		}
		sums[r.Rank(world)] = sum
		return f.Finalize()
	}
}

// reference computes the failure-free sum.
func reference(n, iters int) float64 {
	total := 0.0
	for it := 0; it < iters; it++ {
		for rk := 0; rk < n; rk++ {
			total += float64(rk + it)
		}
	}
	return total
}

func runReinit(t *testing.T, n, iters, stride int, plan fault.Schedule, execID string) (*Runtime, []float64) {
	t.Helper()
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	c.Scheduler().SetDeadline(10 * 60 * simnet.Second)
	st := storage.New(c, storage.Config{})
	inj := fault.NewScheduleInjector(plan)
	sums := make([]float64, n)
	rt := Supervise(c, detect.TreeDefaults(), n, miniApp(st, execID, iters, stride, inj, sums))
	c.Run()
	for _, e := range rt.Job().Errs() {
		t.Errorf("rank: %v", e)
	}
	return rt, sums
}

func TestReinitNoFailurePassesThrough(t *testing.T) {
	rt, sums := runReinit(t, 4, 12, 3, fault.Schedule{}, "reinit-nofail")
	want := reference(4, 12)
	for i, s := range sums {
		if s != want {
			t.Fatalf("rank %d sum = %v, want %v", i, s, want)
		}
	}
	if len(rt.Recoveries) != 0 {
		t.Fatalf("unexpected recoveries: %+v", rt.Recoveries)
	}
}

func TestReinitRecoversProcessFailure(t *testing.T) {
	plan := fault.Schedule{Events: []fault.Event{{TargetRank: 2, TargetIter: 7}}}
	rt, sums := runReinit(t, 4, 12, 3, plan, "reinit-fail")
	want := reference(4, 12)
	for i, s := range sums {
		if s != want {
			t.Fatalf("rank %d sum = %v, want %v (recovery corrupted state)", i, s, want)
		}
	}
	if len(rt.Recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(rt.Recoveries))
	}
	rec := rt.Recoveries[0]
	if rec.Rank != 2 {
		t.Fatalf("failed rank = %d", rec.Rank)
	}
	if rec.Duration() <= 0 {
		t.Fatalf("non-positive recovery duration %v", rec.Duration())
	}
	// Reinit recovery should be detection + respawn, well under a second
	// with the default model.
	if rec.Duration() > simnet.Second {
		t.Fatalf("reinit recovery took %v, expected sub-second", rec.Duration())
	}
	// The job's world is the rebuilt one: rank 2 is its replacement.
	if m := rt.Job().World().Member(2); m.Failed() || !m.Completed() || m.GID() < 4 {
		t.Fatalf("world rank 2 is gid %d (failed %v, completed %v), want a completed replacement",
			m.GID(), m.Failed(), m.Completed())
	}
}

// Recovery cost must not grow with the number of ranks (the paper's central
// Reinit finding, Figure 7).
func TestReinitRecoveryScaleIndependent(t *testing.T) {
	var durs []simnet.Time
	for _, n := range []int{4, 16} {
		plan := fault.Schedule{Events: []fault.Event{{TargetRank: 1, TargetIter: 5}}}
		rt, _ := runReinit(t, n, 10, 3, plan, fmt.Sprintf("reinit-scale-%d", n))
		if len(rt.Recoveries) != 1 {
			t.Fatalf("n=%d: recoveries = %d", n, len(rt.Recoveries))
		}
		durs = append(durs, rt.Recoveries[0].Duration())
	}
	small, big := durs[0], durs[1]
	if big > small*3/2 {
		t.Fatalf("recovery grew with scale: %v -> %v", small, big)
	}
}

func TestReinitFailureAtCheckpointIteration(t *testing.T) {
	// Failure on an iteration where a checkpoint is due: the rank dies at
	// the injection point before checkpointing; survivors block inside the
	// commit collective and must be unwound cleanly.
	plan := fault.Schedule{Events: []fault.Event{{TargetRank: 0, TargetIter: 6}}}
	rt, sums := runReinit(t, 4, 12, 3, plan, "reinit-ckptfail")
	want := reference(4, 12)
	for i, s := range sums {
		if s != want {
			t.Fatalf("rank %d sum = %v, want %v", i, s, want)
		}
	}
	if len(rt.Recoveries) != 1 {
		t.Fatalf("recoveries = %d", len(rt.Recoveries))
	}
}

func TestReinitEarlyFailureBeforeFirstCheckpoint(t *testing.T) {
	// Failure at iteration 1, before any checkpoint beyond iter 0 exists;
	// recovery must restart from the iter-0 checkpoint and still converge.
	plan := fault.Schedule{Events: []fault.Event{{TargetRank: 3, TargetIter: 1}}}
	rt, sums := runReinit(t, 4, 8, 4, plan, "reinit-early")
	want := reference(4, 8)
	for i, s := range sums {
		if s != want {
			t.Fatalf("rank %d sum = %v, want %v", i, s, want)
		}
	}
	if len(rt.Recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(rt.Recoveries))
	}
}

func TestTreeDepth(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 6: 2, 7: 3, 100: 6}
	for rank, want := range cases {
		if got := treeDepth(rank); got != want {
			t.Fatalf("treeDepth(%d) = %d, want %d", rank, got, want)
		}
	}
}
