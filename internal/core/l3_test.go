package core

import (
	"fmt"
	"testing"

	"match/internal/ckpt"
	"match/internal/fti"
)

// FTI's L3 erasure group is derived from the communicator FTI is bound to
// (mpi.Comm.Sub). These cells failed while the group was a flat
// communicator of that communicator's leaders, made once per job: under
// replica every shadow waited in a group it was not a member of and no
// rank completed, and under ULFM a repair revoked the world but never the
// group, so a member waiting there on a peer gone to repair waited until
// the virtual deadline. Each recovers with its failure-free twin's answer
// and every fault it asked for fired.
func TestL3CellsRecover(t *testing.T) {
	l3 := func(app string, d Design, faults int, seed int64) Config {
		return Config{App: app, Design: d, Procs: 8, FTILevel: fti.L3, Faults: faults, FaultSeed: seed}
	}
	cells := []Config{
		// `match -design replica -app HPCCG -procs 64 -faults 2 -seed 7
		// -ckpt-policy multi-level -stride 2 -ckpt-l3-every 1`
		{App: "HPCCG", Design: ReplicaFTI, Procs: 64, Faults: 2, FaultSeed: 7,
			CkptPolicy: ckpt.Config{Kind: ckpt.MultiLevel, Stride: 2, L3Every: 1}},
		l3("HPCCG", ReplicaFTI, 1, 3),
		l3("HPCCG", ReplicaFTI, 2, 2),
		l3("HPCCG", ReplicaFTI, 3, 2),
		l3("miniVite", UlfmFTI, 1, 11),
	}
	for _, app := range TableIApps() {
		cells = append(cells, l3(app, ReplicaFTI, 1, 2))
	}
	for _, app := range []string{"HPCCG", "LULESH"} {
		for _, seed := range []int64{2, 7, 10, 11} {
			cells = append(cells, l3(app, UlfmFTI, 1, seed))
		}
	}
	// Each cell's failure-free twin, run once however many cells share it.
	twinOf := func(cfg Config) (Config, string) {
		cfg.Faults, cfg.FaultSeed = 0, 0
		return cfg, fmt.Sprintf("%+v", cfg)
	}
	cfgs := append([]Config(nil), cells...)
	twinAt := make(map[string]int)
	for _, cfg := range cells {
		if twin, key := twinOf(cfg); twinAt[key] == 0 {
			twinAt[key] = len(cfgs)
			cfgs = append(cfgs, twin)
		}
	}
	results, err := CampaignRunner{}.Cells(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cells {
		_, key := twinOf(cfg)
		if status, err := Verdict(results[twinAt[key]], results[i]); err != nil {
			t.Errorf("%s k=%d seed %d: %s: %v", cfg.Design, cfg.Faults, cfg.FaultSeed, status, err)
		}
	}
}

// Replica's failure-free L3 cell checkpoints as often as restart's: its
// shadows take part in every L3 write instead of parking in the first.
func TestReplicaL3CheckpointsLikeRestart(t *testing.T) {
	cfg := Config{App: "HPCCG", Procs: 8, FTILevel: fti.L3}
	var counts []int
	for _, d := range []Design{RestartFTI, ReplicaFTI} {
		cfg.Design = d
		bd, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		counts = append(counts, bd.CkptCount)
	}
	if counts[0] != counts[1] || counts[0] < 2 {
		t.Fatalf("failure-free L3 checkpoints: restart %d, replica %d; want equal and more than one", counts[0], counts[1])
	}
}
