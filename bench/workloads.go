package main

import (
	"match/internal/ckpt"
	"match/internal/core"
)

// A workload is a list of rounds. A round is a fixed amount of work — the
// same requests on every commit, differing between rounds and runs only in
// the fault seed drawn from -seed — and a run measures whole rounds until
// -seconds have passed. Per-op figures are therefore taken over identical
// work on both sides of a comparison.
type workload struct {
	name string
	why  string
	// serve workloads drive a matchserve child over HTTP and an op is one
	// submit -> watch -> results round trip; campaign workloads run
	// in-process and an op is one campaign cell.
	serve bool
	// round returns the requests of round r. seed is the -seed argument.
	round func(seed int64, r int) []core.CampaignRequest

	// warm lists the cells a campaign workload simulates, untimed and
	// without the store, during set-up.
	warm []core.Config
	// prefill is submitted cold during a serve workload's set-up, followed
	// by warmOps untimed ops.
	prefill core.CampaignRequest
	warmOps int
}

// opSeed derives the fault seed of the n-th request of a run. Distinct n
// give distinct seeds, never 0 (which means "default") and never 1 (the
// serve workloads' prefill seed).
func opSeed(seed int64, n int) int64 {
	if seed < 0 {
		seed = -seed
	}
	return seed*1_000_003 + int64(n) + 2
}

func reinitCell(app string, procs int) core.Config {
	return core.Config{App: app, Design: core.ReinitFTI, Procs: procs}
}

var (
	// serve-warm's request: 16 failure-free cells. k = 0 zeroes the seed in
	// CellKey, so every seed names a new campaign whose cells are all hits.
	warmRequest = core.CampaignRequest{
		Apps: []string{"AMG", "HPCCG", "LULESH", "miniFE"}, Procs: 8, MaxFaults: 0, Seed: 1,
	}
	// serve-overlap's request: the 8 k = 0 cells hit, the 8 k = 1 cells
	// depend on the seed, so they miss, simulate and are put to disk.
	overlapRequest = core.CampaignRequest{
		Apps: []string{"AMG", "miniFE"}, Procs: 8, MaxFaults: 1, Seed: 1,
	}
)

// sameRequests returns n copies of req with consecutive op seeds.
func sameRequests(req core.CampaignRequest, seed int64, r, n int) []core.CampaignRequest {
	out := make([]core.CampaignRequest, n)
	for i := range out {
		out[i] = req
		out[i].Seed = opSeed(seed, r*n+i)
	}
	return out
}

const (
	warmOpsPerRound    = 1000
	overlapOpsPerRound = 4
)

var workloads = []workload{
	{
		name: "campaign-kernel",
		why:  "app kernels dominate (hpccg.spmv, minivite.Step maps, comd.forces); replica cells double them on purpose",
		round: func(seed int64, r int) []core.CampaignRequest {
			one := func(app string, d core.Design, procs, maxFaults int) core.CampaignRequest {
				return core.CampaignRequest{Apps: []string{app}, Designs: []core.Design{d},
					Procs: procs, MaxFaults: maxFaults, Seed: opSeed(seed, r)}
			}
			// Five cells whose median latency is a failure-free one (HPCCG
			// under replica), with its k = 1 twin right beside it: op_ms_p50
			// then does not jump with where a fault happens to land. miniVite
			// spends a third of its time in map operations, which the profile
			// books under the Go runtime, so it runs under one design. CoMD
			// strong-scales: 64 ranks is its cheapest cell.
			return []core.CampaignRequest{
				one("HPCCG", core.ReinitFTI, 16, 0),
				one("HPCCG", core.ReplicaFTI, 16, 1),
				one("miniVite", core.ReinitFTI, 16, 0),
				one("CoMD", core.ReinitFTI, 64, 0),
			}
		},
		warm: []core.Config{reinitCell("HPCCG", 16), reinitCell("miniVite", 16), reinitCell("CoMD", 64)},
	},
	{
		name: "campaign-comm",
		why:  "AMG sends 21k-85k messages per cell: goroutine hand-off, simnet and the mpi path dominate, kernels do not",
		round: func(seed int64, r int) []core.CampaignRequest {
			// Three designs, six cells: the median latency falls between
			// ulfm's k = 0 and k = 1 cells, which cost the same, not between
			// two designs.
			return []core.CampaignRequest{{
				Apps:    []string{"AMG"},
				Designs: []core.Design{core.ReinitFTI, core.UlfmFTI, core.ReplicaFTI},
				Procs:   16, MaxFaults: 1, Seed: opSeed(seed, r),
			}}
		},
		warm: []core.Config{
			reinitCell("AMG", 16),
			{App: "AMG", Design: core.ReplicaFTI, Procs: 16},
		},
	},
	{
		name: "campaign-ckpt",
		why:  "an L3 checkpoint every second iteration: rs.Encode, fti and enc dominate; k=1 cells add the fti.Recover read path",
		round: func(seed int64, r int) []core.CampaignRequest {
			return []core.CampaignRequest{{
				Apps:    []string{"HPCCG"},
				Designs: []core.Design{core.RestartFTI, core.ReinitFTI},
				Procs:   8, MaxFaults: 1, Seed: opSeed(seed, r),
				Policies: []ckpt.Config{{Kind: ckpt.MultiLevel, Stride: 2, L3Every: 1}},
			}}
		},
		warm: []core.Config{{
			App: "HPCCG", Design: core.ReinitFTI, Procs: 8,
			CkptPolicy: ckpt.Config{Kind: ckpt.MultiLevel, Stride: 2, L3Every: 1},
		}},
	},
	{
		name:  "serve-warm",
		why:   "every cell is a store hit: request decode/validate/hash, CellKey, store.Get, render and HTTP/SSE, no simulation",
		serve: true,
		round: func(seed int64, r int) []core.CampaignRequest {
			return sameRequests(warmRequest, seed, r, warmOpsPerRound)
		},
		prefill: warmRequest,
		warmOps: 50,
	},
	{
		name:  "serve-overlap",
		why:   "half of each campaign's cells hit, half miss, simulate and are put to disk: the store's write and miss path beside reads",
		serve: true,
		round: func(seed int64, r int) []core.CampaignRequest {
			return sameRequests(overlapRequest, seed, r, overlapOpsPerRound)
		},
		prefill: overlapRequest,
		warmOps: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
