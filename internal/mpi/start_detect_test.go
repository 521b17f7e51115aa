package mpi_test

import (
	"testing"

	"match/internal/detect"
	"match/internal/mpi"
	"match/internal/simnet"
)

// A rank Start scheduled with a delay and whose node dies before the delay
// ends never runs, but it ended all the same: it is failed, and the
// launcher detector of its job confirms the failure at the node loss,
// although the rank is not in the detector's watch set: like waitpid, the
// launcher hears of every process its job started.
func TestKilledBeforeStartIsFailed(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	j := mpi.Launch(c, 1, 0, func(r *mpi.Rank) { r.Compute(simnet.Second) })
	p := j.AddProcess(1)
	ran := false
	j.Start(p, simnet.Second, func(*mpi.Rank) error {
		ran = true
		return nil
	})
	var confirmed []detect.Failure
	det := detect.MustNew(detect.LauncherConfig(), j, func(f detect.Failure) { confirmed = append(confirmed, f) })
	det.SetProcs(j.World().Leaders())
	c.Scheduler().At(10*simnet.Millisecond, func() { c.FailNode(1) })
	c.Run()
	if ran {
		t.Fatal("the rank ran on a node that died before it started")
	}
	if !p.Failed() || p.Completed() {
		t.Fatalf("failed = %v, completed = %v; want failed", p.Failed(), p.Completed())
	}
	want := detect.Failure{GID: p.GID(), FailedAt: 10 * simnet.Millisecond, DetectedAt: 10 * simnet.Millisecond}
	if len(confirmed) != 1 || confirmed[0] != want {
		t.Fatalf("confirmed %+v, want [%+v]", confirmed, want)
	}
}
