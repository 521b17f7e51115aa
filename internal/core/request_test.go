package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

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
		"scales":     {Scales: []int{64}},
		"inputs":     {Inputs: []InputSize{Small}},
		"min_faults": {MinFaults: 1, MaxFaults: 1},
		"max_faults": {MaxFaults: 2},
		"reps":       {Reps: 3},
		"seed":       {Seed: 2},
		"detectors":  {Detectors: []detect.Config{{Kind: detect.Ring}}},
		"policies":   {Policies: []ckpt.Config{{Kind: ckpt.MultiLevel}}},
		"factors":    {ReplicaFactors: []float64{0.5}},
		"hot_spares": {HotSpares: []bool{false, true}},
		"ingress":    {ModelIngress: true},
	}
	seen := map[string]string{}
	for name, req := range variants {
		h, err := req.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == base {
			t.Errorf("%s axis does not change the request hash", name)
		}
		if other, ok := seen[h]; ok {
			t.Errorf("%s and %s hash identically", name, other)
		}
		seen[h] = name
	}
}

// goldenRequests are the identities other things stand on: the first six
// were computed at the commit before Scales, Inputs and MinFaults existed
// (a request that sets none of them must encode as it did then — they are
// bench/'s campaign IDs and every matchserve client's), the rest are the
// paper's figures. Like TestCellKeyGolden, never update a hash for a
// refactor: a changed one orphans every stored campaign ID.
var goldenRequests = []struct {
	name string
	req  CampaignRequest
	hash string
}{
	{"empty", CampaignRequest{},
		"e2b0c191dfb2bf5a40096bf32111b37fdebb873916bf5eb037992373bacacd91"},
	{"determinism job", CampaignRequest{Apps: []string{"HPCCG"}, MaxFaults: 1, Seed: 7},
		"137dfcc29a055d0c482174d4c850c2195f2bddbbe80c6dd535c92074bfd88822"},
	{"bench serve-warm", CampaignRequest{Apps: []string{"AMG", "HPCCG", "LULESH", "miniFE"}, Procs: 8, MaxFaults: 0, Seed: 1},
		"e7a93be858378cd1a4971b6a5ddfb252b0a020bc9eae9e2f1bee04cca5e18fda"},
	{"bench serve-overlap", CampaignRequest{Apps: []string{"AMG", "miniFE"}, Procs: 8, MaxFaults: 1, Seed: 1},
		"bd2355f01d194b36fd57d18f8ef73da514115c4b662a096f4ea87e5667221585"},
	{"bench campaign-ckpt", CampaignRequest{Apps: []string{"HPCCG"}, Designs: []Design{RestartFTI, ReinitFTI},
		Procs: 8, MaxFaults: 1, Seed: 9, Policies: []ckpt.Config{{Kind: ckpt.MultiLevel, Stride: 2, L3Every: 1}}},
		"37a4905bda16141c4d2e7e7f6227120b6488978aadebddabcac94cb89f47804f"},
	{"replica sweep", CampaignRequest{Apps: []string{"HPCCG"}, MaxFaults: 2, ReplicaFactors: []float64{0, 0.5},
		HotSpares: []bool{true, false, true}},
		"95924ff9334281eda71847c91f6e68115945439e04552b58d4c4fdbf016c1612"},
	{"fig 5", mustFigureRequest(5), "bff3a3bf8751af84edb18156456fc368ffff81fb61932d974a3647f4c770d999"},
	{"fig 6", mustFigureRequest(6), "5c596932abd8cfb6eb93931f416fe2eb25ccf2cc60a5ea20b9db0ef4eff45697"},
	// Figs. 7 and 10 replot the runs of 6 and 9: same request, same ID.
	{"fig 7", mustFigureRequest(7), "5c596932abd8cfb6eb93931f416fe2eb25ccf2cc60a5ea20b9db0ef4eff45697"},
	{"fig 8", mustFigureRequest(8), "56b319508825c476ba400766320b61e1639b20d1d6a33b449f38afbdaac5a979"},
	{"fig 9", mustFigureRequest(9), "23f34ad88f88c800e9490ad8cc1d477c0b6c974f81db66158ff64fc6a0d92c1d"},
	{"fig 10", mustFigureRequest(10), "23f34ad88f88c800e9490ad8cc1d477c0b6c974f81db66158ff64fc6a0d92c1d"},
}

func mustFigureRequest(fig int) CampaignRequest {
	req, err := FigureRequest(fig)
	if err != nil {
		panic(err)
	}
	return req
}

func TestRequestHashGolden(t *testing.T) {
	for _, g := range goldenRequests {
		if h, err := g.req.Hash(); err != nil || h != g.hash {
			t.Errorf("%s: hash %s (%v), want %s", g.name, h, err, g.hash)
		}
	}
	// Spelling does not make a new campaign: scale order and repeats on any
	// axis are canonicalized away, and Canonical is a fixed point.
	a := CampaignRequest{Scales: []int{128, 64, 128}, Inputs: []InputSize{Medium, Small, Medium}, MinFaults: -4}
	b := CampaignRequest{Scales: []int{64, 128}, Inputs: []InputSize{Medium, Small}}
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Errorf("respelled request hashes differently:\n%+v\n%+v", a.Canonical(), b.Canonical())
	}
	if c := a.Canonical(); !reflect.DeepEqual(c, c.Canonical()) {
		t.Errorf("Canonical is not idempotent:\n%+v\n%+v", c, c.Canonical())
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
		Scales:    []int{64, 512},
		Inputs:    []InputSize{Large, Small},
		MinFaults: 1,
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
	if want := `"input":"Medium","scales":[64,512],"inputs":["Large","Small"],"min_faults":1`; !strings.Contains(string(b), want) {
		t.Fatalf("input, scales, inputs, min_faults not rendered by name: %s", b)
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
		// Hostile axes are refused by range checks or by a count that stops
		// one cell past the cap: the whole table runs in well under a second.
		{Procs: 1000000000},
		{MaxFaults: 1000000000},
		{Reps: 1000000000},
		{MaxFaults: maxFaults, Detectors: make([]detect.Config, 8), Policies: make([]ckpt.Config, 8)},
		{Apps: make([]string, 100000), Detectors: make([]detect.Config, 100000), Policies: make([]ckpt.Config, 100000)},
		// An app Table I runs at none of the scales yields no cell, so the
		// walk must skip it before crossing its other axes.
		{Apps: []string{"LULESH", "HPCCG"}, Scales: []int{128}, Detectors: make([]detect.Config, 100000), Policies: make([]ckpt.Config, 100000)},
		// The new axes.
		{Procs: 64, Scales: []int{64}},
		{Input: Medium, Inputs: []InputSize{Medium}},
		{MinFaults: 2, MaxFaults: 1},
		{MinFaults: -1},
		{Scales: []int{100}},
		{Apps: []string{"LULESH"}, Scales: []int{128}},
		{Inputs: []InputSize{99}},
	}
	start := time.Now()
	for i, req := range bad {
		if err := req.Validate(); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejecting %d bad requests took %v: a cap was checked after enumerating", len(bad), d)
	}
	if err := (CampaignRequest{Scales: []int{100}}).Validate(); err == nil || !strings.Contains(err.Error(), "[64 128 256 512]") {
		t.Errorf("bad-scale error %v does not list the valid scales", err)
	}
	good := []CampaignRequest{
		{Procs: maxProcs, MaxFaults: maxFaults, Reps: maxReps},
		{Apps: []string{"LULESH"}, Scales: []int{64, 128, 256, 512}},
		{Apps: []string{"LULESH", "HPCCG"}, Scales: []int{128}},
		{Inputs: []InputSize{Small}}, // Input's zero value is Small: nothing is set twice
	}
	for i, req := range good {
		if err := req.Validate(); err != nil {
			t.Errorf("good request %d rejected: %v", i, err)
		}
		if n, err := req.CellCount(); err != nil || n != len(req.Configs()) {
			t.Errorf("good request %d: CellCount %d, %v; want %d cells", i, n, err, len(req.Configs()))
		}
	}
}

// A request of more than a billion cells is refused with the size error
// after counting one cell past the cap, and the count keeps no cell: the
// rejection allocates less than the cap's worth of cells, let alone the
// request's.
func TestValidateBoundsBeforeEnumerating(t *testing.T) {
	factors := make([]float64, 32)
	for i := range factors {
		factors[i] = float64(i) / 31
	}
	req := CampaignRequest{Apps: []string{"HPCCG"}, Detectors: make([]detect.Config, 1024),
		Policies: make([]ckpt.Config, 1024), ReplicaFactors: factors,
		Inputs: InputSizes(), MaxFaults: maxFaults, HotSpares: []bool{false, true}}
	// Replica is the one design of a factor sweep, and runs both hot-spare variants.
	if cells := 1024 * 1024 * 32 * len(InputSizes()) * (maxFaults + 1) * 2; cells < 1e9 {
		t.Fatalf("request has %d cells, want at least 1e9", cells)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := req.Validate()
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("core: campaign enumerates more than %d cells", maxCells); err == nil || err.Error() != want {
		t.Fatalf("Validate = %v, want %q", err, want)
	}
	if got, capBytes := after.TotalAlloc-before.TotalAlloc, uint64(maxCells+1)*uint64(unsafe.Sizeof(Config{})); got > capBytes {
		t.Errorf("rejecting the request allocated %d bytes, more than %d cells' worth (%d bytes)", got, maxCells+1, capBytes)
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
	noisy.Ulfm = ulfm.Config{DeliveryFactor: 0.9}
	noisy.Replica = replica.Config{DupDegree: 7}
	kp, _ := CellKey(plain, 1)
	kn, _ := CellKey(noisy, 1)
	if kp != kn {
		t.Fatal("an inactive design's configuration split the cache")
	}
}

func TestCellKeyHotSpareFolding(t *testing.T) {
	on := Config{App: "HPCCG", Design: ReplicaFTI, Replica: replica.Config{HotSpare: true}}
	off := Config{App: "HPCCG", Design: ReplicaFTI}
	kon, _ := CellKey(on, 1)
	koff, _ := CellKey(off, 1)
	if kon == koff {
		t.Fatal("hot-spare switch ignored for the replica design")
	}
	// The knob means nothing outside the replica design.
	ra := Config{App: "HPCCG", Design: RestartFTI, Replica: replica.Config{HotSpare: true}}
	rb := Config{App: "HPCCG", Design: RestartFTI}
	ka, _ := CellKey(ra, 1)
	kb, _ := CellKey(rb, 1)
	if ka != kb {
		t.Fatal("hot-spare switch split the cache for a non-replica design")
	}
}

// A rep is a cell: reps of a failure-free cell share rep 1's key, reps of
// a faulty cell each have their own, and reps count from 1.
func TestCellKeyRepsAndVersion(t *testing.T) {
	free := Config{App: "HPCCG"}
	k1, _ := CellKey(free, 1)
	for r := 2; r <= 3; r++ {
		if k, _ := CellKey(free, r); k != k1 {
			t.Fatalf("rep %d of a failure-free cell has its own key", r)
		}
	}
	faulty := Config{App: "HPCCG", Faults: 1, FaultSeed: 7}
	seen := map[string]bool{}
	for r := 1; r <= 3; r++ {
		k, _ := CellKey(faulty, r)
		if seen[k] {
			t.Fatalf("rep %d of a faulty cell shares a key with an earlier rep", r)
		}
		seen[k] = true
	}
	if _, err := CellKey(free, 0); err == nil {
		t.Fatal("rep 0 has a key")
	}
	old := cacheVersion
	defer func() { cacheVersion = old }()
	cacheVersion++
	k1v, _ := CellKey(free, 1)
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
	cfg := Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 7}
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

// FuzzCampaignRequest feeds the service's decode path arbitrary bodies. A
// request Validate accepts has one identity however it is spelled or
// re-encoded, enumerates at least one cell and no more than the cap, stops
// its enumeration where the caller does, and every one of its cells has a
// cell key. Nothing may panic.
func FuzzCampaignRequest(f *testing.F) {
	for _, g := range goldenRequests {
		b, err := json.Marshal(g.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"max_faults":1000000000}`,
		`{"procs":1000000000}`,
		`{"scales":[64],"procs":64}`,
		`{"min_faults":2,"max_faults":1}`,
		`{"scales":[100]}`,
		`{"designs":[99]}`,
		`{"hot_spares":[true,true,false]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req CampaignRequest
		if dec.Decode(&req) != nil || req.Validate() != nil {
			return
		}
		c := req.Canonical()
		if !reflect.DeepEqual(c, c.Canonical()) {
			t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", c, c.Canonical())
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back CampaignRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("canonical form %s does not decode: %v", b, err)
		}
		h1, err1 := req.Hash()
		h2, err2 := back.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("hash changed under re-encoding: %s (%v) -> %s (%v)\n%s", h1, err1, h2, err2, b)
		}
		cfgs := req.Configs()
		if len(cfgs) == 0 || len(cfgs) > maxCells {
			t.Fatalf("%d cells enumerated, cap %d", len(cfgs), maxCells)
		}
		// Validate's count stops its enumeration part-way; a stopped
		// enumeration walks exactly the prefix of Configs.
		var head []Config
		c.each(func(cfg Config) bool {
			head = append(head, cfg)
			return len(head) <= len(cfgs)/2
		})
		if len(head) != len(cfgs)/2+1 || !reflect.DeepEqual(head, cfgs[:len(head)]) {
			t.Fatalf("enumeration stopped after %d cells is not the prefix of Configs", len(head))
		}
		for _, cfg := range cfgs {
			if _, err := CellKey(cfg, c.Reps); err != nil {
				t.Fatalf("validated cell %+v has no key: %v", cfg, err)
			}
		}
	})
}
