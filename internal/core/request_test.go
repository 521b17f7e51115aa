package core

import (
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/obs"
	"match/internal/replica"
	"match/internal/simnet"
	"match/internal/ulfm"
)

// The default-expansion invisibility fix: an empty request and one that
// spells every default out are the same campaign, so they must share one
// identity.
func TestRequestHashEmptyEqualsExplicitDefaults(t *testing.T) {
	empty := CampaignRequest{}
	explicit := CampaignRequest{
		Apps:      TableIApps(),
		Designs:   Designs(),
		Procs:     DefaultProcs,
		Input:     Small,
		MaxFaults: 0,
		Reps:      1,
		Seed:      1,
		Detectors: []detect.Config{{}},
		Policies:  []ckpt.Config{{}},
		HotSpares: []bool{false},
	}
	he, err := empty.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hx, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if he != hx {
		t.Fatalf("hash(empty) = %s, hash(explicit defaults) = %s", he, hx)
	}
}

func TestRequestHashChangesPerAxis(t *testing.T) {
	base, err := (CampaignRequest{}).Hash()
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]CampaignRequest{
		"apps":       {Apps: []string{"HPCCG"}},
		"designs":    {Designs: []Design{UlfmFTI}},
		"procs":      {Procs: 128},
		"input":      {Input: Medium},
		"max_faults": {MaxFaults: 2},
		"reps":       {Reps: 3},
		"seed":       {Seed: 2},
		"detectors":  {Detectors: []detect.Config{{Kind: detect.Ring}}},
		"policies":   {Policies: []ckpt.Config{{Kind: ckpt.MultiLevel}}},
		"factors":    {ReplicaFactors: []float64{0.5}},
		"hot_spares": {HotSpares: []bool{false, true}},
		"ingress":    {ModelIngress: true},
	}
	for name, req := range variants {
		h, err := req.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == base {
			t.Errorf("%s axis does not change the request hash", name)
		}
	}
}

func TestRequestHashVersionStamp(t *testing.T) {
	h1, err := (CampaignRequest{}).Hash()
	if err != nil {
		t.Fatal(err)
	}
	old := cacheVersion
	defer func() { cacheVersion = old }()
	cacheVersion++
	h2, err := (CampaignRequest{}).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("bumping cacheVersion did not change the request hash")
	}
}

func TestRequestJSONRoundTrip(t *testing.T) {
	req := CampaignRequest{
		Apps:      []string{"HPCCG", "CoMD"},
		Designs:   []Design{UlfmFTI, ReplicaFTI},
		Procs:     16,
		Input:     Medium,
		MaxFaults: 2,
		Seed:      9,
		Detectors: []detect.Config{{Kind: detect.Ring, HeartbeatPeriod: 50 * simnet.Millisecond}},
		HotSpares: []bool{false, true},
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back CampaignRequest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("round trip:\n%+v\n%+v", req, back)
	}
	// The wire form uses friendly names, not enum numbers.
	if want := `"designs":["ulfm","replica"]`; !strings.Contains(string(b), want) {
		t.Fatalf("designs not rendered by name: %s", b)
	}
	if want := `"input":"Medium"`; !strings.Contains(string(b), want) {
		t.Fatalf("input not rendered by name: %s", b)
	}
}

func TestRequestValidate(t *testing.T) {
	if err := (CampaignRequest{}).Validate(); err != nil {
		t.Fatalf("default request invalid: %v", err)
	}
	bad := []CampaignRequest{
		{Apps: []string{"NoSuchApp"}},
		{ReplicaFactors: []float64{2}},
		{Procs: -1},
		{Detectors: []detect.Config{{Kind: detect.Ring,
			HeartbeatPeriod: 100 * simnet.Millisecond, DetectTimeout: simnet.Millisecond}}},
	}
	for i, req := range bad {
		if err := req.Validate(); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestRequestConfigsMatrix(t *testing.T) {
	cfgs := CampaignRequest{Apps: []string{"HPCCG", "CoMD"}, MaxFaults: 2,
		Seed: 3, HotSpares: []bool{false, true}}.Configs()
	// 2 apps x (k=0..2) x (3 designs x 1 variant + replica x 2 variants).
	if want := 2 * 3 * (3 + 2); len(cfgs) != want {
		t.Fatalf("matrix size = %d, want %d", len(cfgs), want)
	}
	// The replication axis restricts the design list to replica.
	fac := CampaignRequest{ReplicaFactors: []float64{0, 1}, MaxFaults: 0}
	for _, c := range fac.Configs() {
		if c.Design != ReplicaFTI {
			t.Fatalf("replica-factor sweep produced %v cell", c.Design)
		}
	}
}

// An empty cell configuration and one that spells out every default Run
// would fill must share one cache key, for every design.
func TestCellKeyEmptyEqualsExplicitDefaults(t *testing.T) {
	for d, pair := range explicitDefaults(nil) {
		kb, err := CellKey(pair[0], 1)
		if err != nil {
			t.Fatalf("%v bare: %v", d, err)
		}
		ke, err := CellKey(pair[1], 1)
		if err != nil {
			t.Fatalf("%v explicit: %v", d, err)
		}
		if kb != ke {
			t.Errorf("%v: key(bare) != key(explicit defaults)", d)
		}
	}
}

func TestCellKeySeedIgnoredWithoutFaults(t *testing.T) {
	a := Config{App: "HPCCG", FaultSeed: 1}
	b := Config{App: "HPCCG", FaultSeed: 99, FaultKind: fault.NodeFailure}
	ka, _ := CellKey(a, 1)
	kb, _ := CellKey(b, 1)
	if ka != kb {
		t.Fatal("fault seed/kind split the cache for a failure-free cell")
	}
	a.Faults, b.Faults = 1, 1
	ka, _ = CellKey(a, 1)
	kb, _ = CellKey(b, 1)
	if ka == kb {
		t.Fatal("fault seed ignored for an injecting cell")
	}
	// An explicit schedule overrides the draw: the seed is ignored again.
	sched, err := fault.ParseSchedule("0@1")
	if err != nil {
		t.Fatal(err)
	}
	a.Schedule, b.Schedule = &sched, &sched
	ka, _ = CellKey(a, 1)
	kb, _ = CellKey(b, 1)
	if ka != kb {
		t.Fatal("fault seed split the cache under an explicit schedule")
	}
}

func TestCellKeyObserversExcluded(t *testing.T) {
	plain := Config{App: "HPCCG"}
	observed := plain
	observed.Metrics = obs.New()
	observed.Log = obs.NewLog(io.Discard)
	kp, _ := CellKey(plain, 1)
	ko, _ := CellKey(observed, 1)
	if kp != ko {
		t.Fatal("observers leaked into the cache key")
	}
}

func TestCellKeyInactiveDesignExcluded(t *testing.T) {
	plain := Config{App: "HPCCG", Design: RestartFTI}
	noisy := plain
	noisy.Ulfm = ulfm.Config{SpawnDelay: 123 * simnet.Second}
	noisy.Replica = replica.Config{DupDegree: 7}
	kp, _ := CellKey(plain, 1)
	kn, _ := CellKey(noisy, 1)
	if kp != kn {
		t.Fatal("an inactive design's configuration split the cache")
	}
}

func TestCellKeyHotSpareFolding(t *testing.T) {
	// The harness-level and replica-level switches are one knob.
	a := Config{App: "HPCCG", Design: ReplicaFTI, HotSpare: true}
	b := Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{HotSpare: true}}
	ka, _ := CellKey(a, 1)
	kb, _ := CellKey(b, 1)
	if ka != kb {
		t.Fatal("equivalent hot-spare spellings hash differently")
	}
	off := Config{App: "HPCCG", Design: ReplicaFTI}
	ko, _ := CellKey(off, 1)
	if ko == ka {
		t.Fatal("hot-spare switch ignored for the replica design")
	}
	// The knob means nothing outside the replica design.
	ra := Config{App: "HPCCG", Design: RestartFTI, HotSpare: true}
	rb := Config{App: "HPCCG", Design: RestartFTI}
	ka, _ = CellKey(ra, 1)
	kb, _ = CellKey(rb, 1)
	if ka != kb {
		t.Fatal("hot-spare switch split the cache for a non-replica design")
	}
}

func TestCellKeyRepsAndVersion(t *testing.T) {
	cfg := Config{App: "HPCCG"}
	k1, _ := CellKey(cfg, 1)
	k3, _ := CellKey(cfg, 3)
	if k1 == k3 {
		t.Fatal("repetition count ignored (averaged breakdowns differ)")
	}
	old := cacheVersion
	defer func() { cacheVersion = old }()
	cacheVersion++
	k1v, _ := CellKey(cfg, 1)
	if k1v == k1 {
		t.Fatal("bumping cacheVersion did not change the cell key")
	}
}

func TestDesignJSON(t *testing.T) {
	for _, d := range Designs() {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+d.ShortName()+`"` {
			t.Fatalf("%v marshals as %s", d, b)
		}
		var back Design
		if err := json.Unmarshal(b, &back); err != nil || back != d {
			t.Fatalf("%v round trip: %v, %v", d, back, err)
		}
	}
	var d Design
	if err := json.Unmarshal([]byte(`"ULFM-FTI"`), &d); err != nil || d != UlfmFTI {
		t.Fatalf("full spelling: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1`), &d); err != nil || d != ReinitFTI {
		t.Fatalf("numeric form: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"frobnicate"`), &d); err == nil {
		t.Fatal("unknown design accepted")
	}
}

func TestInputSizeJSON(t *testing.T) {
	for _, s := range InputSizes() {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back InputSize
		if err := json.Unmarshal(b, &back); err != nil || back != s {
			t.Fatalf("%v round trip: %v, %v", s, back, err)
		}
	}
	if v, err := ParseInputSize("medium"); err != nil || v != Medium {
		t.Fatalf("ParseInputSize(medium) = %v, %v", v, err)
	}
	if _, err := ParseInputSize("gigantic"); err == nil {
		t.Fatal("unknown input size accepted")
	}
}

// A result survives the wire: the JSON the service returns re-renders
// byte-identically on the client because the decoded Result is identical.
func TestResultJSONRoundTrip(t *testing.T) {
	params := tinyParams("HPCCG")
	params.CkptStride = 3
	cfg := Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4,
		Params: params, InjectFault: true, FaultSeed: 7}
	bd, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := []Result{{Config: cfg, Breakdown: bd}}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back []Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("result round trip diverged:\n%+v\n%+v", res, back)
	}
}
