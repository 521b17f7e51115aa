// Service: the campaign-as-a-service surface from the library side. A
// campaign is described as a CampaignRequest — pure data whose canonical
// encoding is its identity — and executed by a CampaignRunner over a
// content-addressed ResultStore. The same request JSON can be POSTed to a
// matchserve instance (cmd/matchserve) and produces identical results;
// this example stays in-process and shows what the cache buys: the warm
// rerun simulates nothing, and an overlapping sweep only simulates the
// cells it adds.
package main

import (
	"fmt"
	"log"
	"os"

	"match"
)

func main() {
	req := match.CampaignRequest{
		Apps:      []string{"HPCCG"},
		Designs:   []match.Design{match.ReinitFTI, match.ReplicaFTI},
		Procs:     8,
		MaxFaults: 1,
		Seed:      7,
	}
	cells, err := req.CellCount()
	if err != nil {
		log.Fatal(err)
	}
	id, err := req.Hash()
	if err != nil {
		log.Fatal(err)
	}
	// The hash is the campaign's identity: a matchserve instance uses it as
	// the campaign ID, so resubmitting an equivalent request — defaults
	// spelled out or left zero — is idempotent.
	fmt.Printf("campaign %.12s…: %d cells\n\n", id, cells)

	st := match.NewMemoryResultStore(0) // OpenResultStore(dir, 0) persists across processes
	runner := match.CampaignRunner{Workers: 4, Store: st}

	if _, err := runner.Run(req, nil); err != nil {
		log.Fatal(err)
	}
	report("cold run", st)

	// Warm rerun of the identical campaign: every cell is a cache hit,
	// nothing is simulated, and the output (had we written it) is
	// byte-identical to the cold run's.
	if _, err := runner.Run(req, nil); err != nil {
		log.Fatal(err)
	}
	report("warm rerun", st)

	// An overlapping sweep — same axes plus one more design — simulates
	// only the cells it adds.
	wider := req
	wider.Designs = append(wider.Designs, match.UlfmFTI)
	results, err := runner.Run(wider, nil)
	if err != nil {
		log.Fatal(err)
	}
	report("overlapping sweep", st)

	fmt.Println()
	match.WriteCampaign(os.Stdout, results)
}

func report(label string, st *match.ResultStore) {
	cs := st.Stats()
	fmt.Printf("%-18s hits=%-3d misses=%-3d simulated=%-3d hit-rate=%.0f%%\n",
		label+":", cs.Hits, cs.Misses, cs.Puts, 100*cs.HitRate())
}
