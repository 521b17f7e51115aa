package core

import (
	"reflect"
	"testing"

	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/reinit"
	"match/internal/replica"
	"match/internal/restart"
	"match/internal/simnet"
	"match/internal/store"
	"match/internal/ulfm"
)

// cellKeyGolden pins CellKey's encoding. The keys were computed at the
// commit before Run and CellKey shared one resolver (100639f, cacheVersion
// 1): a key that moves orphans every on-disk cache entry, so a change here
// is a cacheVersion bump, never a quiet edit.
type goldenCell struct {
	name string
	cfg  Config
	reps int
	key  string
}

func cellKeyGolden(t *testing.T) []goldenCell {
	sched, err := fault.ParseSchedule("0@1,3@4:replica=1")
	if err != nil {
		t.Fatal(err)
	}
	return []goldenCell{
		{"restart-zero", Config{App: "HPCCG", Design: RestartFTI}, 1,
			"ed333e0461457da23591e71059c50b820c3cec943f8459ee0e08e042a6cd02f9"},
		{"reinit-k0-seed-ignored", Config{App: "AMG", Design: ReinitFTI, FaultSeed: 7, FaultKind: fault.NodeFailure}, 1,
			"b79347d73ad3cb5bb1c2dac40d53b989b5c83152b9d858ddde507424fff0d02c"},
		{"ulfm-k1", Config{App: "CoMD", Design: UlfmFTI, InjectFault: true, FaultSeed: 7}, 1,
			"12ecd61ade4baab5c7a1d892c3a71aaaf92b3cf3789704060f83ebe9a4d86233"},
		{"replica-k2-node", Config{App: "miniVite", Design: ReplicaFTI, Faults: 2, FaultSeed: 3, FaultKind: fault.NodeFailure}, 1,
			"e50d41237685ce38b8b45c3d5a46507cde5bf97b0a444ff235e3a7b55aafc952"},
		{"ulfm-schedule", Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4, Schedule: &sched, FaultSeed: 9}, 1,
			"98d6c790333948c70d440d5c8e898922d5877bdce086bc8beced9a1d17cc3658"},
		{"restart-ring", Config{App: "HPCCG", Design: RestartFTI, Faults: 1, FaultSeed: 1,
			Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}}, 1,
			"7c6343d074c6bc827a272e7a84ee07fb77d5fbc3d5ba36f1fa1f55f6893d5aec"},
		{"replica-tree", Config{App: "LULESH", Design: ReplicaFTI, Faults: 1, FaultSeed: 1,
			Detector: detect.Config{Kind: detect.Tree}}, 1,
			"a379ee65d3a8932b92354edd27e90f6b14a91e6a6d28ad4999f40129e42a6083"},
		{"reinit-launcher", Config{App: "miniFE", Design: ReinitFTI, Faults: 3, FaultSeed: 2,
			Detector: detect.Config{Kind: detect.Launcher}}, 1,
			"9832ce8c396c3d2bc232cc908da52f77e51f81abd172b49fa03a6fdb81d6e60f"},
		{"reinit-multilevel", Config{App: "HPCCG", Design: ReinitFTI, Faults: 1, FaultSeed: 1,
			CkptPolicy: ckpt.Config{Kind: ckpt.MultiLevel, Stride: 2, L3Every: 1}}, 1,
			"4a0bedc4130a8d39aed08a7350dcac74f420f24acf755c54f525a50e9fc54785"},
		{"replica-aware-hotspare", Config{App: "AMG", Design: ReplicaFTI, Faults: 2, FaultSeed: 5, Replica: replica.Config{HotSpare: true},
			CkptPolicy: ckpt.Config{Kind: ckpt.ReplicaAware}}, 1,
			"cc823e5c94ec75a0577c29ee3a57adae2238877943b3135a58500c61d28d7efd"},
		{"replica-level-hotspare-half", Config{App: "AMG", Design: ReplicaFTI, Faults: 1, FaultSeed: 5,
			Replica: replica.Config{HotSpare: true, ReplicaFactor: 0.5, SpawnDelay: simnet.Second}}, 1,
			"7b1e9b3309701417ac59ef6e99bbdf9dfdfb538568d1392669f641f812f0180f"},
		{"replica-dup1", Config{App: "CoMD", Design: ReplicaFTI, Replica: replica.Config{DupDegree: 1}}, 1,
			"2f2e53b7666b9aeceb3c84d44fc24fe94d46f00bc33f81fb9a2ed0cf70d5f1f7"},
		{"ulfm-params", Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4, InjectFault: true, FaultSeed: 7,
			Params: tinyParams("HPCCG")}, 1,
			"e5ad07bf23e791e094c602907a96c482b7cc2673d787c044c8bca8c9ddc90a97"},
		{"reinit-reps3", Config{App: "miniFE", Design: ReinitFTI, Procs: 128, Input: Medium, Faults: 1, FaultSeed: 1}, 3,
			"c95d5a533c66cf83960ffd6ba8c412208f3c0e0acae2a574ab4ce74146caa103"},
		{"restart-ingress-l3", Config{App: "HPCCG", Design: RestartFTI, ModelIngress: true, FTILevel: fti.L3, CkptStride: 5,
			Restart: restart.Config{LaunchBase: 2 * simnet.Second}}, 1,
			"3cf7b057ef8dc59dc5b6fc9c369445dd46279e81700bbb15fd4e36d6b6c99f0e"},
		{"ulfm-ablation", Config{App: "miniVite", Design: UlfmFTI, Faults: 1, FaultSeed: 4, Input: Large,
			Ulfm: ulfm.Config{HeartbeatPeriod: 10 * simnet.Millisecond, DetectTimeout: 40 * simnet.Millisecond}}, 1,
			"4f504c7a6367f9d12c6e19ba229bc37822654f43820c4337aef4115398e077e8"},
	}
}

func TestCellKeyGolden(t *testing.T) {
	if cacheVersion != 1 {
		t.Fatalf("cacheVersion = %d: regenerate the golden keys with the bump", cacheVersion)
	}
	for _, g := range cellKeyGolden(t) {
		got, err := CellKey(g.cfg, g.reps)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got != g.key {
			t.Errorf("%s: CellKey = %s, want %s", g.name, got, g.key)
		}
	}
}

// explicitDefaults returns, per design, a bare configuration and its twin
// that spells out every default resolve would fill. extra is applied to
// both, so callers can make the pair cheap to run or inject failures.
func explicitDefaults(extra func(*Config)) map[Design][2]Config {
	twins := map[Design]Config{
		RestartFTI: {Restart: restart.DefaultConfig(), Detector: detect.LauncherConfig()},
		ReinitFTI:  {},
		UlfmFTI:    {Ulfm: ulfm.DefaultConfig()},
		ReplicaFTI: {Replica: replica.DefaultConfig()},
	}
	out := map[Design][2]Config{}
	for d, ex := range twins {
		bare := Config{App: "HPCCG", Design: d}
		ex.App, ex.Design = "HPCCG", d
		ex.Procs, ex.Nodes, ex.FTILevel, ex.CkptStride = 64, 32, fti.L1, 10
		if extra != nil {
			extra(&bare)
			extra(&ex)
		}
		out[d] = [2]Config{bare, ex}
	}
	return out
}

// Resolve/run agreement, the first instalment of cache soundness: two
// configurations with one CellKey run to the same Breakdown, and a cell
// served from the cache equals the same cell freshly simulated. The twin is
// served from the entry its bare sibling stored.
func TestEqualKeyMeansEqualRun(t *testing.T) {
	pairs := explicitDefaults(func(c *Config) {
		c.Params = tinyParams("HPCCG")
		c.InjectFault, c.FaultSeed = true, 7
	})
	for d, pair := range pairs {
		bare, explicit := pair[0], pair[1]
		kb, err := CellKey(bare, 1)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if ke, _ := CellKey(explicit, 1); ke != kb {
			t.Fatalf("%v: key(bare) != key(explicit defaults)", d)
		}
		fresh, err := Run(explicit)
		if err != nil {
			t.Fatalf("%v explicit: %v", d, err)
		}
		if fresh.Recoveries == 0 {
			t.Fatalf("%v: the injected failure never fired; the pair proves nothing about recovery", d)
		}
		st := store.NewMemory(0)
		cold, err := CampaignRunner{Workers: 1, Store: st}.Cells([]Config{bare}, 1)
		if err != nil {
			t.Fatalf("%v bare: %v", d, err)
		}
		warm, err := CampaignRunner{Workers: 1, Store: st}.Cells([]Config{explicit}, 1)
		if err != nil {
			t.Fatalf("%v warm: %v", d, err)
		}
		if cs := st.Stats(); cs.Puts != 1 || cs.Hits != 1 {
			t.Fatalf("%v: the twin was not served from its sibling's entry: %+v", d, cs)
		}
		if !reflect.DeepEqual(cold[0].Breakdown, fresh) {
			t.Errorf("%v: bare and explicit-defaults runs differ:\n%+v\n%+v", d, cold[0].Breakdown, fresh)
		}
		if !reflect.DeepEqual(warm[0].Breakdown, fresh) {
			t.Errorf("%v: cached cell differs from a fresh simulation:\n%+v\n%+v", d, warm[0].Breakdown, fresh)
		}
	}
}

// Whatever Run rejects, resolve rejects first — with the text Run has
// always reported, and with no cluster built — so CellKey, Validate and Run
// cannot disagree about what is runnable.
func TestResolveRejectsWhatRunRejects(t *testing.T) {
	sched, err := fault.ParseSchedule("99@1")
	if err != nil {
		t.Fatal(err)
	}
	strided := Config{App: "HPCCG", Params: tinyParams("HPCCG")}
	strided.Params.CkptStride = 3
	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"detector", Config{App: "HPCCG", Design: RestartFTI, Detector: detect.Config{Kind: detect.Ring,
			HeartbeatPeriod: 100 * simnet.Millisecond, DetectTimeout: simnet.Millisecond}},
			"detect: ring detector timeout 0.001s < heartbeat period 0.100s would declare every peer dead on the first silent period (want timeout >= period)"},
		{"policy", Config{App: "HPCCG", CkptPolicy: ckpt.Config{Stride: -1}},
			"ckpt: fixed placement with stride -1 would never checkpoint (want >= 1, or the never policy)"},
		{"app", Config{App: "NoSuchApp"},
			`apps: unknown application "NoSuchApp" (have [AMG CoMD HPCCG LULESH miniFE miniVite])`},
		{"input", Config{App: "HPCCG", Input: 7}, "core: bad input size input(7)"},
		{"design", Config{App: "HPCCG", Design: 9}, "core: unknown design design(9)"},
		{"schedule", Config{App: "HPCCG", Procs: 8, Nodes: 4, Schedule: &sched},
			"core: schedule event 0 (99@1) targets rank 99, outside 0..7"},
		// Settings Run would drop without a word: the stride the main loop
		// never read, and a design's Detect the resolved detector overwrote.
		{"params-stride", strided,
			"core: Params.CkptStride 3 is ignored; set Config.CkptStride"},
		{"design-detect", Config{App: "HPCCG", Design: UlfmFTI, Ulfm: ulfm.Config{Detect: detect.Config{Kind: detect.Tree}}},
			"core: ulfm Detect is ignored; set Config.Detector"},
		{"replica-detect", Config{App: "HPCCG", Design: ReplicaFTI,
			Replica: replica.Config{Detect: detect.Config{HeartbeatPeriod: simnet.Second}}},
			"core: replica Detect is ignored; set Config.Detector"},
		// Settings Run would silently change, or fail on in every rank's
		// first checkpoint.
		{"fti-level", Config{App: "HPCCG", FTILevel: 7},
			"core: FTI level 7 invalid (levels are 1-4: L1 local, L2 partner copy, L3 Reed-Solomon, L4 PFS; 0 means L1)"},
		{"dup-degree", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{DupDegree: -1}},
			"core: replica DupDegree -1 invalid (want >= 1, or 0 for the default 2)"},
		{"replica-factor", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{ReplicaFactor: 1.5}},
			"core: replica ReplicaFactor 1.5 invalid (want 0 < f <= 1, or 0 for the default 1)"},
		// A design's preset-detector settings, dropped by an explicit detector.
		{"ulfm-heartbeat", Config{App: "HPCCG", Design: UlfmFTI, Detector: detect.Config{Kind: detect.Tree},
			Ulfm: ulfm.Config{HeartbeatPeriod: 50 * simnet.Millisecond}},
			"core: ulfm detector settings are ignored under the explicit tree detector; set Config.Detector"},
		{"reinit-detect-timeout", Config{App: "HPCCG", Design: ReinitFTI, Detector: detect.Config{Kind: detect.Launcher},
			Reinit: reinit.Config{DetectTimeout: simnet.Second}},
			"core: reinit detector settings are ignored under the explicit launcher detector; set Config.Detector"},
	}
	for _, b := range bad {
		if _, err := resolve(b.cfg, 1); err == nil || err.Error() != b.want {
			t.Errorf("%s: resolve error = %v, want %q", b.name, err, b.want)
		}
		if _, err := Run(b.cfg); err == nil || err.Error() != b.want {
			t.Errorf("%s: Run error = %v, want %q", b.name, err, b.want)
		}
		if _, err := CellKey(b.cfg, 1); err == nil || err.Error() != b.want {
			t.Errorf("%s: CellKey error = %v, want %q", b.name, err, b.want)
		}
	}
}
