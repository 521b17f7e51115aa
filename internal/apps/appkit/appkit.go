// Package appkit defines the contract between the MATCH proxy applications
// and the fault-tolerance harness, plus the distributed-computing toolkit
// the applications share: 1D/3D domain decomposition, face and corner-aware
// halo exchange, distributed reductions, and the Figure-1 checkpointed main
// loop every design (RESTART-FTI, REINIT-FTI, ULFM-FTI) wraps.
//
// Every neighbor exchange in the apps is one Swap: both sends (lo, then
// hi) posted before both receives (lo, then hi), a negative rank skipping
// its side. Field3D.Exchange is Swap once per axis: a layer is encoded
// straight from the field into its payload and decoded straight into the
// ghost layer, in the one wire order Field3D.plane defines, which
// CopyPlane's layer-to-layer copy walks too. HPCCG's z planes and CoMD's
// ghost atoms and migrants ride the same Swap; every receiver reads
// values off the wire bytes at their offsets, never through a decoded
// copy.
//
// Kernels that sweep a Field3D read and write whole x rows through Row,
// indexed by the ghosted x coordinate, rather than At/Set per cell.
//
// A *Field3D is an fti.Protected object: AppendSnapshot appends its
// interior, row by row straight into the checkpoint payload, as the bytes
// fti.F64s stores for Interior(), and Restore is SetInterior, so an
// app protects its ghosted field directly rather than a flat copy it syncs
// every step. The rule is to protect the field the step updates in place:
// FTI keeps the pointer given to Protect, so swapping two fields' pointers
// would leave it checkpointing, and restoring into, the stale one. For the
// same reason NewDecomp3D gives every rank a non-empty block whenever some
// process grid allows it: a rank with no interior would compute in ghost
// cells that no checkpoint holds.
//
// RunMainLoop takes checkpoint placement from the Context's Ckpt policy
// alone, which is required; Params carries no stride the loop reads.
package appkit

import (
	"fmt"

	"match/internal/ckpt"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/simnet"
	"match/internal/trace"
)

// Params is one Table I configuration: application input plus run shape.
type Params struct {
	// NX, NY, NZ are grid dimensions; their meaning is per-app (HPCCG:
	// local grid per process, AMG/miniFE/CoMD: global grid).
	NX, NY, NZ int
	// S is LULESH's -s (edge elements per process).
	S int
	// NVerts is miniVite's -n (global vertex count).
	NVerts int
	// MaxIter is the main-loop trip count.
	MaxIter int
	// WorkScale converts one abstract work unit (roughly a flop) into
	// virtual nanoseconds; it encodes the documented scale-down factor.
	WorkScale float64
	// Seed drives any randomized initialization deterministically.
	Seed int64
}

// Context is the per-rank execution context handed to applications.
type Context struct {
	R      *mpi.Rank
	World  *mpi.Comm
	FTI    *fti.FTI
	Inject *fault.Injector
	Params Params
	// Ckpt decides checkpoint placement for the main loop; it is required.
	// The harness installs the per-incarnation policy of the run's
	// placement planner.
	Ckpt *ckpt.Policy
}

// Rank returns this rank's index in the world.
func (c *Context) Rank() int { return c.R.Rank(c.World) }

// Size returns the world size.
func (c *Context) Size() int { return c.R.Size(c.World) }

// Charge converts work units into virtual compute time.
func (c *Context) Charge(units float64) {
	if units <= 0 {
		return
	}
	c.R.Compute(simnet.Time(units * c.Params.WorkScale))
}

// App is a MATCH proxy application. Init allocates per-rank state and
// registers it with FTI (object ids must be >= 1; id 0 is the loop
// counter). Step runs one main-loop iteration and must propagate MPI
// errors upward so the recovery frameworks can act on them. Signature
// returns a collectively-computed scalar fingerprint of the final answer,
// used to verify that recovered runs match failure-free runs bit-for-bit.
type App interface {
	Name() string
	Init(ctx *Context) error
	Step(ctx *Context, iter int) error
	Signature(ctx *Context) (float64, error)
}

// RunMainLoop drives an App through the paper's Figure 1 structure:
//
//	FTI_Protect(...)            (app.Init)
//	if FTI_Status() != 0: FTI_Recover()
//	loop: inject; consult the placement policy; checkpoint; compute step
//
// It returns the application's signature. All four fault-tolerance
// designs call this; only what surrounds it differs. Checkpoint placement
// comes entirely from the Context's ckpt.Policy — the loop itself holds
// no stride arithmetic — and the measured checkpoint/step durations are
// fed back to the policy for adaptive interval selection.
func RunMainLoop(ctx *Context, app App) (float64, error) {
	if err := app.Init(ctx); err != nil {
		return 0, fmt.Errorf("%s init: %w", app.Name(), err)
	}
	iter := 0
	ctx.FTI.Protect(0, fti.Int{P: &iter})
	if ctx.FTI.Status() != fti.StatusFresh {
		if err := ctx.FTI.Recover(); err != nil {
			return 0, fmt.Errorf("%s recover: %w", app.Name(), err)
		}
	}
	// Span identity of this rank's main loop, captured once: one compute
	// span per step lands on the rank's own timeline track.
	probe := ctx.R.Job().Cluster().Probe()
	traced := probe.On(trace.CatCompute)
	var step trace.Span
	if traced {
		step = trace.Span{Cat: trace.CatCompute, Rank: int32(ctx.Rank()),
			Replica: int32(ctx.World.ReplicaIndexOf(ctx.R.Process().GID())), Job: probe.JobOf(ctx.R.Job())}
	}
	for ; iter < ctx.Params.MaxIter; iter++ {
		ctx.Inject.MaybeFail(ctx.R, ctx.World, iter)
		if d := ctx.Ckpt.Next(iter); d.Take {
			start := ctx.R.Now()
			if err := ctx.FTI.CheckpointAt(int64(iter), d.Level); err != nil {
				return 0, err
			}
			ctx.Ckpt.ObserveCkpt(ctx.R.Now() - start)
		}
		start := ctx.R.Now()
		if err := app.Step(ctx, iter); err != nil {
			return 0, err
		}
		stepDur := ctx.R.Now() - start
		if traced {
			step.Start, step.Dur, step.Aux = int64(start), int64(stepDur), int64(iter)
			probe.Emit(step)
		}
		ctx.Ckpt.ObserveStep(stepDur)
	}
	sig, err := app.Signature(ctx)
	if err != nil {
		return 0, err
	}
	return sig, ctx.FTI.Finalize()
}

// Dot computes a distributed dot product over the world.
func Dot(ctx *Context, a, b []float64) (float64, error) {
	local := 0.0
	b = b[:len(a)]
	for i := range a {
		local += a[i] * b[i]
	}
	ctx.Charge(2 * float64(len(a)))
	return mpi.AllreduceF64Scalar(ctx.R, ctx.World, local, mpi.OpSum)
}

// SumAll reduces a scalar with OpSum over the world.
func SumAll(ctx *Context, v float64) (float64, error) {
	return mpi.AllreduceF64Scalar(ctx.R, ctx.World, v, mpi.OpSum)
}

// MaxAll reduces a scalar with OpMax over the world.
func MaxAll(ctx *Context, v float64) (float64, error) {
	return mpi.AllreduceF64Scalar(ctx.R, ctx.World, v, mpi.OpMax)
}

// Grow returns s resized to n elements for a caller about to overwrite
// them: the same storage when it is large enough — holding whatever it
// held — and a fresh zeroed slice otherwise. It is how the kernels keep
// their scratch from one step to the next.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
