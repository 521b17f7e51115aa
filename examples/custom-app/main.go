// Custom-app: extend MATCH with a new application, as §V-E of the paper
// invites ("we encourage programmers to add new HPC applications ... to
// MATCH"). The app below is a 2D Jacobi heat solver written against the
// appkit contract; once registered it runs under any of the four
// fault-tolerance designs, fault injection and all.
package main

import (
	"fmt"
	"log"
	"os"

	"match"
	"match/internal/apps/appkit"
	"match/internal/fti"
)

// heat is a distributed 2D Jacobi iteration (decomposed with the same
// toolkit the built-in apps use, one layer thick in z). The ghosted field t
// is itself the checkpoint object: FTI holds the pointer given to Protect,
// so each step copies the new values into t rather than swapping t and tn.
type heat struct {
	d      *appkit.Decomp3D
	t, tn  *appkit.Field3D
	change float64
}

func (h *heat) Name() string { return "Heat2D" }

func (h *heat) Init(ctx *appkit.Context) error {
	n := ctx.Params.NX
	h.d = appkit.NewDecomp3D(ctx.Rank(), ctx.Size(), n, n, 1)
	h.t = appkit.NewField3D(h.d)
	h.tn = appkit.NewField3D(h.d)
	// Hot spot in the global center.
	cx, cy := n/2, n/2
	if cx >= h.d.OX && cx < h.d.OX+h.d.LX && cy >= h.d.OY && cy < h.d.OY+h.d.LY {
		h.t.Set(cx-h.d.OX+1, cy-h.d.OY+1, 1, 100)
	}
	ctx.FTI.Protect(1, h.t)
	ctx.FTI.Protect(2, fti.F64{P: &h.change})
	return nil
}

func (h *heat) Step(ctx *appkit.Context, iter int) error {
	if err := h.t.Exchange(ctx); err != nil {
		return err
	}
	local := 0.0
	for y := 1; y <= h.d.LY; y++ {
		for x := 1; x <= h.d.LX; x++ {
			v := 0.25 * (h.t.At(x-1, y, 1) + h.t.At(x+1, y, 1) + h.t.At(x, y-1, 1) + h.t.At(x, y+1, 1))
			// Keep the hot spot pinned (Dirichlet source).
			if h.t.At(x, y, 1) == 100 {
				v = 100
			}
			h.tn.Set(x, y, 1, v)
			d := v - h.t.At(x, y, 1)
			local += d * d
		}
	}
	ctx.Charge(float64(h.d.LX*h.d.LY) * 6)
	copy(h.t.V, h.tn.V)
	var err error
	h.change, err = appkit.SumAll(ctx, local)
	return err
}

func (h *heat) Signature(ctx *appkit.Context) (float64, error) {
	local := 0.0
	for _, v := range h.t.Interior() {
		local += v
	}
	total, err := appkit.SumAll(ctx, local)
	if err != nil {
		return 0, err
	}
	return total + h.change, nil
}

func main() {
	if err := match.RegisterApp("Heat2D", func() match.App { return &heat{} }); err != nil {
		log.Fatal(err)
	}
	run := func(d match.Design, faults int) match.Breakdown {
		bd, err := match.Run(match.Config{
			App:        "Heat2D",
			Design:     d,
			Procs:      16,
			Nodes:      8,
			Faults:     faults,
			FaultSeed:  3,
			CkptPolicy: match.CkptPolicyConfig{Stride: 5},
			Params:     match.Params{NX: 64, MaxIter: 30, WorkScale: 50},
		})
		if err != nil {
			log.Fatalf("%v: %v", d, err)
		}
		return bd
	}
	// The failure rolls back to a mid-run checkpoint, so the example checks
	// what recovery must guarantee: the failure-free answer, bit for bit.
	ref := run(match.RestartFTI, 0)
	fmt.Printf("failure-free answer %.6f\n", ref.Signature)
	wrong := 0
	for _, d := range []match.Design{match.RestartFTI, match.ReinitFTI, match.UlfmFTI, match.ReplicaFTI} {
		bd := run(d, 1)
		fmt.Printf("%-12s survived a process failure: recovery %.3fs, total %.3fs, answer %.6f\n",
			d, bd.Recovery.Seconds(), bd.Total.Seconds(), bd.Signature)
		if bd.Signature != ref.Signature {
			fmt.Printf("%-12s recovered to a different answer than the failure-free run\n", d)
			wrong++
		}
	}
	if wrong > 0 {
		os.Exit(1)
	}
}
