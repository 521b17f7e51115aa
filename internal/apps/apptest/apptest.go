// Package apptest provides the shared fixture for testing proxy
// applications directly: it runs an app's Init/Step/Signature cycle on a
// small simulated job without fault injection and exposes the per-rank
// instances for physics assertions.
package apptest

import (
	"testing"

	"match/internal/apps/appkit"
	"match/internal/ckpt"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/storage"
)

// Result of a run: per-rank app instances and signatures.
type Result struct {
	Apps []appkit.App
	Sigs []float64
}

// Run executes the app over n ranks for params.MaxIter steps and returns
// the per-rank instances. The test (or benchmark) fails on any error.
func Run(t testing.TB, n int, params appkit.Params, factory func() appkit.App) Result {
	t.Helper()
	if params.WorkScale == 0 {
		params.WorkScale = 1
	}
	if params.Seed == 0 {
		params.Seed = 42
	}
	// App tests exercise physics, not checkpointing: placement is off. One
	// policy instance is shared by all ranks, as the harness does.
	pl, err := ckpt.NewPlanner(ckpt.Config{Kind: ckpt.Never}, params.MaxIter, 0)
	if err != nil {
		t.Fatal(err)
	}
	pol := pl.Policy()
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	c.Scheduler().SetDeadline(3600 * simnet.Second)
	st := storage.New(c, storage.Config{})
	res := Result{Apps: make([]appkit.App, n), Sigs: make([]float64, n)}
	inj := fault.NewScheduleInjector(fault.Schedule{})
	job := mpi.Launch(c, n, 0, func(r *mpi.Rank) {
		world := r.Job().World()
		f, err := fti.Init(fti.Config{ExecID: "apptest"}, r, world, st)
		if err != nil {
			t.Errorf("fti init: %v", err)
			return
		}
		app := factory()
		ctx := &appkit.Context{R: r, World: world, FTI: f, Inject: inj, Params: params, Ckpt: pol}
		sig, err := appkit.RunMainLoop(ctx, app)
		if err != nil {
			t.Errorf("rank %d: %v", r.Rank(world), err)
			return
		}
		res.Apps[r.Rank(world)] = app
		res.Sigs[r.Rank(world)] = sig
	})
	c.Run()
	for i, a := range res.Apps {
		if a == nil {
			t.Fatalf("rank %d did not finish", i)
		}
	}
	_ = job
	return res
}
