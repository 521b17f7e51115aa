package core

import (
	"fmt"
	"math"
	"testing"
)

// signatureGolden pins the answer every proxy app computes, as the hex
// math.Float64bits of Breakdown.Signature on the Small Table I input with
// no fault. The table was generated on the commit before the kernels in
// internal/apps were rewritten (PR 23) and is never regenerated for a
// performance change: a host-side optimisation that moves one of these
// bits reassociated a floating-point expression.
var signatureGolden = []struct {
	app    string
	design Design
	procs  int
	iters  int // 0: the Table I trip count
	bits   string
}{
	{"AMG", ReinitFTI, 8, 0, "41149258538e4ef8"},
	{"CoMD", ReinitFTI, 8, 0, "c0d229331d81f396"},
	{"HPCCG", ReinitFTI, 8, 0, "40cb000000000000"},
	{"LULESH", ReinitFTI, 8, 0, "4089af6389a63073"},
	{"miniFE", ReinitFTI, 8, 0, "4128982469589646"},
	{"miniVite", ReinitFTI, 8, 0, "4244c59717652eb1"},
	{"HPCCG", ReplicaFTI, 8, 0, "40cb000000000000"},
	// Small HPCCG converges to x = ones (13824 exactly); eight iterations in,
	// the signature still carries every rounding of spmv.
	{"HPCCG", ReinitFTI, 8, 8, "40cb2153886a35e4"},
	// One rank is one link cell — every pair of 6912 atoms is a candidate —
	// so four steps are what tier-1 can afford of it.
	{"CoMD", ReinitFTI, 1, 4, "c0d229698069ea2f"},
	{"CoMD", ReinitFTI, 64, 0, "c0d229331d81f390"},
}

func TestSignatureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("64-proc cell skipped in -short mode")
	}
	cfgs := make([]Config, len(signatureGolden))
	for i, g := range signatureGolden {
		cfgs[i] = Config{App: g.app, Design: g.design, Procs: g.procs, Nodes: 4, Input: Small}
		if g.iters > 0 {
			p, _, err := ResolveParams(cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			p.MaxIter = g.iters
			cfgs[i].Params = p
		}
	}
	results, err := CampaignRunner{Store: conformanceStore}.Cells(cfgs, 1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, g := range signatureGolden {
		got := fmt.Sprintf("%016x", math.Float64bits(results[i].Breakdown.Signature))
		if got != g.bits {
			t.Errorf("%s/%s/%d/iters=%d: signature bits %s (%v), want %s",
				g.app, g.design, g.procs, g.iters, got, results[i].Breakdown.Signature, g.bits)
		}
	}
}
