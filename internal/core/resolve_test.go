package core

import (
	"math"
	"reflect"
	"testing"

	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/replica"
	"match/internal/simnet"
	"match/internal/store"
	"match/internal/ulfm"
)

// cellKeyGolden pins CellKey's encoding: a key that moves orphans every
// on-disk cache entry, so a change here is declared, never a quiet edit.
// The keys were last regenerated when a rep became a cell: the resolved
// JSON lost its "reps" field and Params its "CkptStride", so every old key
// misses by itself and cacheVersion stays 1. reps is the rep keyed: the
// reinit-reps3 row is rep 3, whose fault seed is 1 + 2·1009.
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
			"8e8078a6f5c56a44ac42a19c9e50d442c8e0c9889ea0b444271a4926a31e10cd"},
		{"reinit-k0-seed-ignored", Config{App: "AMG", Design: ReinitFTI, FaultSeed: 7, FaultKind: fault.NodeFailure}, 1,
			"da680c0eff989261d697b4d3a69ba7f314199c411d572fa19612c807bd379ccc"},
		{"ulfm-k1", Config{App: "CoMD", Design: UlfmFTI, InjectFault: true, FaultSeed: 7}, 1,
			"e40d1e2a9ee1bd770fd1cd2c84dbecdfb4a9927a4a5295313242df7537d0d718"},
		{"replica-k2-node", Config{App: "miniVite", Design: ReplicaFTI, Faults: 2, FaultSeed: 3, FaultKind: fault.NodeFailure}, 1,
			"43061735ba50c459c8d4255d4a5ad5a8fc68db5fe1e7f8afc808b02991635e88"},
		{"ulfm-schedule", Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4, Schedule: &sched, FaultSeed: 9}, 1,
			"a700a7593e58e9f07c555dec892f17acd891c29169b6ea6c06d8554d6cb81d27"},
		{"restart-ring", Config{App: "HPCCG", Design: RestartFTI, Faults: 1, FaultSeed: 1,
			Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}}, 1,
			"289857746e56dfb8b0274ae09c080e0f110c2e851db1f7040f5d4e92685a3eba"},
		{"replica-tree", Config{App: "LULESH", Design: ReplicaFTI, Faults: 1, FaultSeed: 1,
			Detector: detect.Config{Kind: detect.Tree}}, 1,
			"74209be390e780c4988663347df5afd9944329c156ee7060335d4a984b6c86c3"},
		{"reinit-launcher", Config{App: "miniFE", Design: ReinitFTI, Faults: 3, FaultSeed: 2,
			Detector: detect.Config{Kind: detect.Launcher}}, 1,
			"ce3f0eae7dad0adaa18fb0f1b36ba5004c6579e1ed22512152dd828c1936e747"},
		{"reinit-multilevel", Config{App: "HPCCG", Design: ReinitFTI, Faults: 1, FaultSeed: 1,
			CkptPolicy: ckpt.Config{Kind: ckpt.MultiLevel, Stride: 2, L3Every: 1}}, 1,
			"38e2ad682be214f2b80d6ebd795c28b5c95f1d3cdb359226c5bea9a38874cd6b"},
		{"replica-aware-hotspare", Config{App: "AMG", Design: ReplicaFTI, Faults: 2, FaultSeed: 5, Replica: replica.Config{HotSpare: true},
			CkptPolicy: ckpt.Config{Kind: ckpt.ReplicaAware}}, 1,
			"5dd90a0c8ea3e0a8ea8869cf9da41c4271a5d276221d6089aa181c877b862cbc"},
		{"replica-level-hotspare-half", Config{App: "AMG", Design: ReplicaFTI, Faults: 1, FaultSeed: 5,
			Replica: replica.Config{HotSpare: true, ReplicaFactor: 0.5, SpawnDelay: simnet.Second}}, 1,
			"9fdb4a3794292c57ca82f0cf62227532d71e3ea04a9ede5d075f83793cb049c1"},
		{"replica-dup1", Config{App: "CoMD", Design: ReplicaFTI, Replica: replica.Config{DupDegree: 1}}, 1,
			"54fef96534204f7a7ac8322969311938f3c63a9ef53501b19f3d325b531c491e"},
		{"ulfm-params", Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4, InjectFault: true, FaultSeed: 7,
			Params: tinyParams("HPCCG")}, 1,
			"c59633dcbefb2f3d4def63fa6be00bdb6944d5d67a9017a390c26f4702439caf"},
		{"reinit-reps3", Config{App: "miniFE", Design: ReinitFTI, Procs: 128, Input: Medium, Faults: 1, FaultSeed: 1}, 3,
			"acf91713787b1ca19202a95f1bc10ed55728110fe905486bcce93677a7d13c0c"},
		{"restart-ingress-l3", Config{App: "HPCCG", Design: RestartFTI, ModelIngress: true, FTILevel: fti.L3, CkptStride: 5}, 1,
			"55e7832765855b70f8647df151bb655b2744e324b68d3b62e1c1e38215d2ae79"},
		{"ulfm-ablation", Config{App: "miniVite", Design: UlfmFTI, Faults: 1, FaultSeed: 4, Input: Large,
			Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: 10 * simnet.Millisecond, DetectTimeout: 40 * simnet.Millisecond}}, 1,
			"fdd0288e8f90caa094697ded206aaa51e43ef4a943a2c6e5909cdad1bbce06d2"},
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
		RestartFTI: {Detector: detect.LauncherConfig()},
		ReinitFTI:  {Detector: detect.TreeDefaults()},
		UlfmFTI: {Detector: detect.RingDefaults(),
			Ulfm: ulfm.Config{DeliveryFactor: ulfm.DefaultDeliveryFactor}},
		ReplicaFTI: {Detector: detect.LauncherConfig(),
			Replica: replica.Config{
				DupDegree:      replica.DefaultDupDegree,
				ReplicaFactor:  replica.DefaultReplicaFactor,
				FailoverDetect: replica.DefaultFailoverDetect,
				ElectionDelay:  replica.DefaultElectionDelay,
				HotSpare:       false,
				SpawnDelay:     replica.DefaultSpawnDelay,
				SpawnBandwidth: replica.DefaultSpawnBandwidth,
			}},
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
		// Settings Run would silently change, fail on in every rank's
		// first checkpoint, or run into a negative recovery or a cell
		// panic with.
		{"fti-level", Config{App: "HPCCG", FTILevel: 7},
			"core: FTI level 7 invalid (levels are 1-4: L1 local, L2 partner copy, L3 Reed-Solomon, L4 PFS; 0 means L1)"},
		{"dup-degree", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{DupDegree: -1}},
			"core: replica DupDegree -1 invalid (want >= 1, or 0 for the default 2)"},
		{"replica-factor", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{ReplicaFactor: 1.5}},
			"core: replica ReplicaFactor 1.5 invalid (want 0 < f <= 1, or 0 for the default 1)"},
		{"spawn-delay", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{HotSpare: true, SpawnDelay: -simnet.Second}},
			"core: replica SpawnDelay -1.000s invalid (want 0 < d <= 200000.000s, the run's virtual deadline, or 0 for the default 0.250s)"},
		{"failover-detect", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{FailoverDetect: -simnet.Second}},
			"core: replica FailoverDetect -1.000s invalid (want 0 < d <= 200000.000s, the run's virtual deadline, or 0 for the default 0.005s)"},
		{"election-delay", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{ElectionDelay: -simnet.Second}},
			"core: replica ElectionDelay -1.000s invalid (want 0 < d <= 200000.000s, the run's virtual deadline, or 0 for the default 0.015s)"},
		{"spawn-bw-negative", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{HotSpare: true, SpawnBandwidth: -5}},
			"core: replica SpawnBandwidth -5 invalid (want a finite rate >= 35.2 bytes/s, so a state transfer fits in virtual time, or 0 for the default 8e+09)"},
		{"spawn-bw-tiny", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{HotSpare: true, SpawnBandwidth: 1e-9}},
			"core: replica SpawnBandwidth 1e-09 invalid (want a finite rate >= 35.2 bytes/s, so a state transfer fits in virtual time, or 0 for the default 8e+09)"},
		{"spawn-bw-nan", Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{HotSpare: true, SpawnBandwidth: math.NaN()}},
			"core: replica SpawnBandwidth NaN invalid (want a finite rate >= 35.2 bytes/s, so a state transfer fits in virtual time, or 0 for the default 8e+09)"},
		{"delivery-factor-nan", Config{App: "HPCCG", Design: UlfmFTI, Ulfm: ulfm.Config{DeliveryFactor: math.NaN()}},
			"core: ulfm DeliveryFactor NaN invalid (want a finite f > 0, or 0 for the default 0.25)"},
		{"delivery-factor-negative", Config{App: "HPCCG", Design: UlfmFTI, Ulfm: ulfm.Config{DeliveryFactor: -1}},
			"core: ulfm DeliveryFactor -1 invalid (want a finite f > 0, or 0 for the default 0.25)"},
	}
	for _, b := range bad {
		if _, err := resolve(b.cfg); err == nil || err.Error() != b.want {
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
