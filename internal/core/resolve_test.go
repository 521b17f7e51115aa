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
// The keys were last regenerated when the stride became one knob: the
// resolved JSON lost its "ckpt_stride" field (the stride is ckpt_policy's
// Stride, which already held it), so every old key misses by itself and
// cacheVersion stays 1. reps is the rep keyed: the reinit-reps3 row is
// rep 3, whose fault seed is 1 + 2·1009.
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
			"cb7cd0c9c49e369f42267369f056ea8362ba89b4200cf71e43b13b73f6ede5e5"},
		{"reinit-k0-seed-ignored", Config{App: "AMG", Design: ReinitFTI, FaultSeed: 7, FaultKind: fault.NodeFailure}, 1,
			"8d67cafa74f6ec520b5949109ce16b7d3481e2d3933f385d2316b6b0d0488bf5"},
		{"ulfm-k1", Config{App: "CoMD", Design: UlfmFTI, Faults: 1, FaultSeed: 7}, 1,
			"761f1db1f0de6842570308eca9158f0fd8a986780722849944cfc136ce480658"},
		{"replica-k2-node", Config{App: "miniVite", Design: ReplicaFTI, Faults: 2, FaultSeed: 3, FaultKind: fault.NodeFailure}, 1,
			"da50e330852c758b29d93082a17fb5b07d2429c6921320939b6757181af28bff"},
		{"ulfm-schedule", Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4, Schedule: &sched, FaultSeed: 9}, 1,
			"044f142df230e8a3b3dcefe85f4322d6ee6c8e0f0f391d137aa5599c0ed04ab8"},
		{"restart-ring", Config{App: "HPCCG", Design: RestartFTI, Faults: 1, FaultSeed: 1,
			Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}}, 1,
			"7d789f2b31306042b46820cf08a8a714bc6aee5652314c10ef0c8d5264dd9f0b"},
		{"replica-tree", Config{App: "LULESH", Design: ReplicaFTI, Faults: 1, FaultSeed: 1,
			Detector: detect.Config{Kind: detect.Tree}}, 1,
			"d431a11cbe39dc8759398dbf1230c10ee22ffc129013cbe6338aaced480ca16f"},
		{"reinit-launcher", Config{App: "miniFE", Design: ReinitFTI, Faults: 3, FaultSeed: 2,
			Detector: detect.Config{Kind: detect.Launcher}}, 1,
			"6cc5a891a4f0dad149ad4b780cbb52746f4a5f26e5cdc3dd95c6231a0896e1b2"},
		{"reinit-multilevel", Config{App: "HPCCG", Design: ReinitFTI, Faults: 1, FaultSeed: 1,
			CkptPolicy: ckpt.Config{Kind: ckpt.MultiLevel, Stride: 2, L3Every: 1}}, 1,
			"c9db994f1cd0473e2bed6c5c830eb32f50b77d821b811da977f68d153b13797a"},
		{"replica-aware-hotspare", Config{App: "AMG", Design: ReplicaFTI, Faults: 2, FaultSeed: 5, Replica: replica.Config{HotSpare: true},
			CkptPolicy: ckpt.Config{Kind: ckpt.ReplicaAware}}, 1,
			"ce7d4c04f03fd8f7a29c7b45e0abe78299f239d78c2bfe945fd8e1b6da43ef33"},
		{"replica-level-hotspare-half", Config{App: "AMG", Design: ReplicaFTI, Faults: 1, FaultSeed: 5,
			Replica: replica.Config{HotSpare: true, ReplicaFactor: 0.5, SpawnDelay: simnet.Second}}, 1,
			"d79c31ac8ae3efab9fa3889d9dd9a4bb7c8dd0b12428966efab6c9a9831d1646"},
		{"replica-dup1", Config{App: "CoMD", Design: ReplicaFTI, Replica: replica.Config{DupDegree: 1}}, 1,
			"2eeac9c630ca48fcc19117e4e5a438e8806af4d5c6ee6e0c7f2713d13585fcd0"},
		{"ulfm-params", Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4, Faults: 1, FaultSeed: 7,
			Params: tinyParams("HPCCG")}, 1,
			"6be6cf46c29f4c09c0644d88592213274b655ea454dfa25d46a3df17099f1d0d"},
		{"reinit-reps3", Config{App: "miniFE", Design: ReinitFTI, Procs: 128, Input: Medium, Faults: 1, FaultSeed: 1}, 3,
			"b7d47aefbd1139cb410e399a8a7671b3112452ba949a2bba83ee83052a5432cc"},
		{"restart-ingress-l3", Config{App: "HPCCG", Design: RestartFTI, ModelIngress: true, FTILevel: fti.L3, CkptPolicy: ckpt.Config{Stride: 5}}, 1,
			"578d27e5a2cd9e23e40c21e229bcec1cd12fcf8b5aaf2cee4ae20737e8214474"},
		{"ulfm-ablation", Config{App: "miniVite", Design: UlfmFTI, Faults: 1, FaultSeed: 4, Input: Large,
			Detector: detect.Config{Kind: detect.Ring, HeartbeatPeriod: 10 * simnet.Millisecond, DetectTimeout: 40 * simnet.Millisecond}}, 1,
			"06e3df36fb7b4195c480b62a78953df80de7c39e4017cd41d9f3782b5a915953"},
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

// InjectFault is the legacy spelling of one failure, kept because the
// frozen benchmark probes set it: it resolves to the cell Faults: 1 is.
func TestInjectFaultIsOneFault(t *testing.T) {
	one := Config{App: "CoMD", Design: UlfmFTI, Faults: 1, FaultSeed: 7}
	legacy := Config{App: "CoMD", Design: UlfmFTI, InjectFault: true, FaultSeed: 7}
	k1, err := CellKey(one, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kl, err := CellKey(legacy, 1); err != nil || kl != k1 {
		t.Fatalf("InjectFault key %s (%v), want the Faults: 1 key %s", kl, err, k1)
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
		ex.Procs, ex.Nodes, ex.FTILevel, ex.CkptPolicy = 64, 32, fti.L1, ckpt.Config{Stride: 10}
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
		c.Faults, c.FaultSeed = 1, 7
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
