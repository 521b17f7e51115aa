package ulfm

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

func reference(n, iters int) float64 {
	total := 0.0
	for it := 0; it < iters; it++ {
		for rk := 0; rk < n; rk++ {
			total += float64(rk + it)
		}
	}
	return total
}

// resilientMain builds the Figure 3-style main: FTI on the (possibly
// repaired) world, iterate with injection and checkpoints, propagate MPI
// errors up so the resilient loop can repair.
func resilientMain(st *storage.System, execID string, iters, stride int,
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

// calibrated is the Config core runs a default ULFM cell with.
var calibrated = Config{DeliveryFactor: DefaultDeliveryFactor}

func runULFM(t *testing.T, n, iters, stride int, plan fault.Schedule, execID string) (*Runtime, []float64) {
	t.Helper()
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	c.Scheduler().SetDeadline(30 * 60 * simnet.Second)
	st := storage.New(c, storage.Config{})
	inj := fault.NewScheduleInjector(plan)
	sums := make([]float64, n)
	rt := Supervise(c, calibrated, detect.RingDefaults(), n, resilientMain(st, execID, iters, stride, inj, sums))
	c.Run()
	for _, e := range rt.Job().Errs() {
		t.Errorf("rank error: %v", e)
	}
	return rt, sums
}

func TestULFMNoFailurePassesThrough(t *testing.T) {
	rt, sums := runULFM(t, 4, 12, 3, fault.Schedule{}, "ulfm-nofail")
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

func TestULFMRepairsProcessFailure(t *testing.T) {
	plan := fault.Schedule{Events: []fault.Event{{TargetRank: 2, TargetIter: 7}}}
	rt, sums := runULFM(t, 4, 12, 3, plan, "ulfm-fail")
	want := reference(4, 12)
	for i, s := range sums {
		if s != want {
			t.Fatalf("rank %d sum = %v, want %v", i, s, want)
		}
	}
	if len(rt.Recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(rt.Recoveries))
	}
	rec := rt.Recoveries[0]
	if rec.Failed != 1 || rec.Rank != 2 {
		t.Fatalf("%d failed ranks, first %d", rec.Failed, rec.Rank)
	}
	if rec.Duration() <= 0 {
		t.Fatal("non-positive recovery duration")
	}
	// ULFM recovery pays detection + revoke + shrink + spawn + merge +
	// agree: with defaults this lands in whole seconds.
	if rec.Duration() < simnet.Second {
		t.Fatalf("ULFM recovery %v suspiciously cheap", rec.Duration())
	}
	// The job's world is the repaired one: rank 2 is its replacement.
	if m := rt.Job().World().Member(2); m.Failed() || !m.Completed() || m.GID() < 4 {
		t.Fatalf("world rank 2 is gid %d (failed %v, completed %v), want a completed replacement",
			m.GID(), m.Failed(), m.Completed())
	}
}

// ULFM recovery must grow with scale (shrink/merge are O(P); agreement is
// O(log P) rounds) — the paper's Figure 7 trend.
func TestULFMRecoveryGrowsWithScale(t *testing.T) {
	var durs []simnet.Time
	for _, n := range []int{4, 16} {
		plan := fault.Schedule{Events: []fault.Event{{TargetRank: 1, TargetIter: 5}}}
		rt, _ := runULFM(t, n, 10, 3, plan, fmt.Sprintf("ulfm-scale-%d", n))
		if len(rt.Recoveries) != 1 {
			t.Fatalf("n=%d: recoveries = %d", n, len(rt.Recoveries))
		}
		durs = append(durs, rt.Recoveries[0].Duration())
	}
	if durs[1] <= durs[0] {
		t.Fatalf("recovery did not grow with scale: %v -> %v", durs[0], durs[1])
	}
}

func TestULFMFailureDuringCheckpointCommit(t *testing.T) {
	// Kill on a checkpoint iteration: survivors block inside the commit
	// allreduce until detection, then must unwind and repair.
	plan := fault.Schedule{Events: []fault.Event{{TargetRank: 0, TargetIter: 6}}}
	rt, sums := runULFM(t, 4, 12, 3, plan, "ulfm-ckptfail")
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

func TestULFMAppliesRuntimeOverheads(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	rt := Supervise(c, calibrated, detect.RingDefaults(), 2, func(*mpi.Rank, *mpi.Comm) error { return nil })
	if job := rt.Job(); job.PerOpOverhead == 0 || job.DeliveryFactor == 0 {
		t.Fatal("runtime did not install amended-interface overheads")
	}
	c.Run()
}

func TestCommRevokePrimitives(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	var rt *Runtime
	rt = Supervise(c, calibrated, detect.RingDefaults(), 4, func(r *mpi.Rank, w *mpi.Comm) error {
		if r.Rank(w) == 0 {
			rt.CommRevoke(r, w)
			if !w.Revoked() {
				t.Error("revoke did not mark the comm")
			}
			rt.CommRevoke(r, w) // idempotent
		} else {
			_, err := mpi.Recv(r, w, 0, 1)
			if !IsFailureError(err) {
				t.Errorf("blocked recv after revoke: %v", err)
			}
		}
		return nil
	})
	c.Run()
}

func TestCommShrinkDropsFailed(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	c.Scheduler().SetDeadline(10 * 60 * simnet.Second)
	var rt *Runtime
	sizes := make([]int, 4)
	rt = Supervise(c, calibrated, detect.RingDefaults(), 4, func(r *mpi.Rank, w *mpi.Comm) error {
		if r.Rank(w) == 3 {
			r.Die()
		}
		// Give the detector time to confirm, then shrink.
		r.Sim().Sleep(simnet.Second)
		sh, err := rt.CommShrink(r, w)
		if err != nil {
			t.Errorf("shrink: %v", err)
			return nil
		}
		sizes[r.Rank(w)] = sh.Size()
		if got := r.Rank(sh); got != r.Rank(w) {
			t.Errorf("rank changed in shrink: %d -> %d", r.Rank(w), got)
		}
		// The survivors go on over the shrunk communicator while the
		// broken world is revoked: revoking it must not revoke them.
		rt.CommRevoke(r, w)
		if sh.Revoked() {
			t.Errorf("rank %d: shrunk communicator revoked with the world", r.Rank(w))
		}
		if err := mpi.Barrier(r, sh); err != nil {
			t.Errorf("rank %d: barrier on the shrunk communicator: %v", r.Rank(w), err)
		}
		return nil
	})
	c.Run()
	for i := 0; i < 3; i++ {
		if sizes[i] != 3 {
			t.Fatalf("rank %d shrunk size = %d, want 3", i, sizes[i])
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6, 512: 9, 513: 10}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Fatalf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
