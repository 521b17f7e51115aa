package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"match/internal/ckpt"
	"match/internal/enc"
	"match/internal/fault"
	"match/internal/simnet"
	"match/internal/store"
)

// tinyCampaign is a fast-but-real campaign: one app at a small scale, a
// failure-free and a single-failure cell per design (8 cells).
func tinyCampaign() CampaignRequest {
	return CampaignRequest{Apps: []string{"HPCCG"}, Procs: 8, MaxFaults: 1, Seed: 7}
}

// A warm rerun of an identical campaign must simulate nothing and still be
// byte-identical on every deterministic output stream.
func TestCampaignColdWarmByteIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := tinyCampaign()
	rn := CampaignRunner{Workers: 4, Store: st}

	var cold bytes.Buffer
	coldRes, err := rn.Run(req, &cold)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(req.Configs())
	cs := st.Stats()
	if cs.Misses != int64(cells) || cs.Puts != int64(cells) || cs.Hits != 0 {
		t.Fatalf("cold stats = %+v, want %d misses/puts", cs, cells)
	}

	var warm bytes.Buffer
	warmRes, err := rn.Run(req, &warm)
	if err != nil {
		t.Fatal(err)
	}
	ws := st.Stats()
	if ws.Misses != cs.Misses || ws.Puts != cs.Puts {
		t.Fatalf("warm run simulated cells: %+v", ws)
	}
	if ws.Hits != int64(cells) {
		t.Fatalf("warm run hit %d of %d cells", ws.Hits, cells)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("warm table diverged:\n--- cold ---\n%s\n--- warm ---\n%s", &cold, &warm)
	}
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatal("warm results diverged from cold results")
	}
	var coldCSV, warmCSV bytes.Buffer
	WriteCSV(&coldCSV, coldRes)
	WriteCSV(&warmCSV, warmRes)
	if !bytes.Equal(coldCSV.Bytes(), warmCSV.Bytes()) {
		t.Fatal("warm CSV diverged from cold CSV")
	}
}

// An LRU front far smaller than the campaign still serves a fully warm
// rerun: evicted entries come back as disk hits.
func TestCampaignWarmUnderTinyLRU(t *testing.T) {
	st, err := store.Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	req := tinyCampaign()
	rn := CampaignRunner{Workers: 2, Store: st}
	var cold bytes.Buffer
	if _, err := rn.Run(req, &cold); err != nil {
		t.Fatal(err)
	}
	cs := st.Stats()
	if cs.Evictions == 0 {
		t.Fatalf("campaign of %d cells never overflowed a 2-entry LRU: %+v", len(req.Configs()), cs)
	}
	var warm bytes.Buffer
	if _, err := rn.Run(req, &warm); err != nil {
		t.Fatal(err)
	}
	ws := st.Stats()
	if ws.Misses != cs.Misses {
		t.Fatalf("warm run missed despite disk backing: %+v", ws)
	}
	if ws.DiskHits == 0 {
		t.Fatalf("no disk hits under a tiny LRU: %+v", ws)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("warm table diverged under a tiny LRU")
	}
}

// A cacheVersion bump must orphan every prior entry: the rerun misses and
// re-simulates everything.
func TestCampaignVersionStampInvalidates(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := CampaignRequest{Apps: []string{"HPCCG"}, Designs: []Design{RestartFTI},
		Procs: 8, MaxFaults: 0, Seed: 7}
	rn := CampaignRunner{Store: st}
	if _, err := rn.Run(req, nil); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	old := cacheVersion
	defer func() { cacheVersion = old }()
	cacheVersion++
	if _, err := rn.Run(req, nil); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.Hits != before.Hits {
		t.Fatalf("stale entry served across a version bump: %+v -> %+v", before, after)
	}
	if after.Misses <= before.Misses || after.Puts <= before.Puts {
		t.Fatalf("version bump did not force a re-run: %+v -> %+v", before, after)
	}
}

// Concurrent campaigns may share one store (matchserve's worker pool
// does); results must be identical and race-free.
func TestConcurrentCampaignsSharedStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	req := CampaignRequest{Apps: []string{"HPCCG"}, Procs: 8, MaxFaults: 1, Seed: 7,
		Designs: []Design{RestartFTI, UlfmFTI}}
	const n = 3
	outs := make([][]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rn := CampaignRunner{Workers: 2, Store: st}
			outs[g], errs[g] = rn.Run(req, nil)
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatalf("campaign %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(outs[g], outs[0]) {
			t.Fatalf("campaign %d diverged from campaign 0", g)
		}
	}
	cells := int64(len(req.Configs()))
	cs := st.Stats()
	// Concurrency can race the same cell to a duplicate simulation, but
	// never past one simulation per cell per campaign, and the combined
	// lookups must balance.
	if cs.Hits+cs.Misses != cells*n {
		t.Fatalf("lookup count %d, want %d: %+v", cs.Hits+cs.Misses, cells*n, cs)
	}
	if cs.Misses < cells || cs.Misses > cells*n {
		t.Fatalf("implausible miss count: %+v", cs)
	}
}

// A corrupt or stale cache entry is a miss, not an error: the cell re-runs
// and the entry is repaired. Stale includes the JSON value older builds
// wrote under the same key, a cut-short record and another version's one.
// The store counts the lookup as the miss it is — hits 0, misses 1, puts 1
// for the cell — whether the bad value sat in memory or only on disk.
func TestCorruptCacheEntryFallsBackToRun(t *testing.T) {
	cfg := Config{App: "HPCCG", Procs: 8, Design: RestartFTI}
	key, err := CellKey(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldJSON, err := json.Marshal(struct {
		V         int       `json:"v"`
		Breakdown Breakdown `json:"breakdown"`
	}{cacheVersion, want})
	if err != nil {
		t.Fatal(err)
	}
	record := encodeCachedCell(want)
	otherVersion := append(enc.AppendInt64(nil, int64(cacheVersion)+1), record[8:]...)
	// withBad returns a store holding bad under key: in its memory front,
	// or only in the directory a fresh store reads.
	withBad := func(onDisk bool, bad []byte) *store.Store {
		dir := ""
		if onDisk {
			dir = t.TempDir()
		}
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, bad); err != nil {
			t.Fatal(err)
		}
		if onDisk {
			if st, err = store.Open(dir, 0); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	for name, bad := range map[string][]byte{
		"garbage":       []byte("not json"),
		"older JSON":    oldJSON,
		"truncated":     record[:len(record)-8],
		"other version": otherVersion,
	} {
		for _, onDisk := range []bool{false, true} {
			name := fmt.Sprintf("%s (on disk: %v)", name, onDisk)
			st := withBad(onDisk, bad)
			before := st.Stats()
			got, cached, err := CampaignRunner{Store: st}.cell(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			after := st.Stats()
			if hits, misses, puts := after.Hits-before.Hits, after.Misses-before.Misses, after.Puts-before.Puts; cached || hits != 0 || misses != 1 || puts != 1 {
				t.Errorf("%s: cached=%v, hits %d misses %d puts %d, want the cell simulated: 0, 1 and 1", name, cached, hits, misses, puts)
			}
			if got != want {
				t.Errorf("%s: row is not the simulated breakdown:\n%+v\n%+v", name, got, want)
			}
			// The rerun repaired the entry: a fresh lookup decodes to it.
			raw, ok := st.Get(key)
			if !ok {
				t.Fatalf("%s: repaired entry missing", name)
			}
			if got, err := decodeCachedCell(raw); err != nil || got != want {
				t.Errorf("%s: repaired entry decodes to %+v, %v", name, got, err)
			}
		}
	}
}

// The cached value must reproduce the Breakdown exactly — every field,
// including the float fingerprint — or warm runs would not be
// byte-identical.
func TestCachedBreakdownRoundTrip(t *testing.T) {
	params := tinyParams("HPCCG")
	bd, err := Run(Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, Nodes: 4,
		Params: params, CkptPolicy: ckpt.Config{Stride: 3}, Faults: 1, FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeCachedCell(encodeCachedCell(bd))
	if err != nil {
		t.Fatal(err)
	}
	if bd != back {
		t.Fatalf("breakdown did not round-trip:\n%+v\n%+v", bd, back)
	}
}

// The record holds every Breakdown field: each one, array elements
// included, gets a distinct non-zero value (the Signature a NaN with a
// payload), and the record must bring all of them back bit for bit. A
// field added to Breakdown but not to the codec fails here.
func TestCachedCellCoversEveryField(t *testing.T) {
	var bd Breakdown
	v := reflect.ValueOf(&bd).Elem()
	n := int64(0)
	var fill func(f reflect.Value)
	fill = func(f reflect.Value) {
		n++
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(n<<40 | n)
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(n)<<8 | 0x5a))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Array:
			n--
			for i := 0; i < f.Len(); i++ {
				fill(f.Index(i))
			}
		default:
			t.Fatalf("Breakdown field of kind %s: teach the record and this test its encoding", f.Kind())
		}
	}
	for i := 0; i < v.NumField(); i++ {
		fill(v.Field(i))
	}
	if n+1 != cachedCellWords {
		t.Fatalf("Breakdown has %d words of fields, the record %d", n, cachedCellWords-1)
	}
	raw := encodeCachedCell(bd)
	if len(raw) != 232 {
		t.Fatalf("record is %d bytes, want 232", len(raw))
	}
	back, err := decodeCachedCell(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the encodings, not the structs: NaN != NaN, but its bits must
	// survive.
	if math.Float64bits(back.Signature) != math.Float64bits(bd.Signature) {
		t.Errorf("Signature bits %#x, want %#x", math.Float64bits(back.Signature), math.Float64bits(bd.Signature))
	}
	back.Signature, bd.Signature = 0, 0
	if back != bd {
		t.Errorf("breakdown did not round-trip:\n%s", breakdownDiff(back, &bd))
	}
}

// Whatever bytes a store hands back, decoding never panics: it is an
// error, or a Breakdown whose record is those same bytes.
func FuzzCachedCell(f *testing.F) {
	f.Add(encodeCachedCell(Breakdown{}))
	f.Add(encodeCachedCell(Breakdown{Total: 12, Signature: math.NaN(), Completed: true, CkptBytesAt: [5]int64{4: -1}}))
	f.Add([]byte(`{"v":1,"breakdown":{"Total":1}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		bd, err := decodeCachedCell(raw)
		if err != nil {
			return
		}
		if again := encodeCachedCell(bd); !bytes.Equal(again, raw) {
			t.Fatalf("decoded %+v re-encodes to\n%x, not\n%x", bd, again, raw)
		}
	})
}

// Figures are sweeps of the same cells: Figs. 7 and 10 replot 6 and 9, and
// the Small-input cells of Figs. 8/9 are the 64-proc cells of 5/6. The
// census (keys only, no simulation) pins the numbers the README quotes;
// the simulated half runs a cheap slice of the matrix through one runner
// with a store and requires every repeat to be a hit and every table to
// match, byte for byte, the same table rendered from the Breakdowns the
// figure gate pins for those cells.
func TestFiguresShareCells(t *testing.T) {
	figure := func(fig int, narrow func(*CampaignRequest)) CampaignRequest {
		req := mustFigureRequest(fig)
		narrow(&req)
		return req
	}
	census := func(narrow func(*CampaignRequest)) (cells, distinct int) {
		keys := map[string]bool{}
		for fig := 5; fig <= 10; fig++ {
			cfgs := figure(fig, narrow).Configs()
			for _, cfg := range cfgs {
				k, err := CellKey(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				keys[k] = true
			}
			cells += len(cfgs)
		}
		return cells, len(keys)
	}
	if c, d := census(func(*CampaignRequest) {}); c != 480 || d != 272 {
		t.Fatalf("full evaluation: %d cells, %d distinct, want 480 and 272", c, d)
	}
	// What `matchsuite -all -apps HPCCG -scales 64,128` runs: the list
	// narrows the scaling sweeps only.
	hpccg := func(r *CampaignRequest) {
		r.Apps = []string{"HPCCG"}
		if len(r.Scales) > 0 {
			r.Scales = []int{64, 128}
		}
	}
	if c, d := census(hpccg); c != 60 || d != 32 {
		t.Fatalf("HPCCG at 64,128: %d cells, %d distinct, want 60 and 32", c, d)
	}
	if testing.Short() {
		t.Skip("64-proc figure cells skipped in -short mode")
	}

	// Six figures of four cells each, 8 distinct: at one scale and one
	// input, Figs. 5 and 8 are the same cells, as are 6, 7, 9 and 10. The
	// reference render is each figure's cells with the figure gate's
	// Breakdowns (its fig5 and fig6 HPCCG p64 Small rows), found by CellKey.
	p64 := func(r *CampaignRequest) {
		r.Apps = []string{"HPCCG"}
		if len(r.Scales) > 0 {
			r.Scales = []int{64}
		} else {
			r.Inputs = []InputSize{Small}
		}
	}
	golden := map[string]Breakdown{}
	for _, l := range readFiguresGolden(t) {
		if l.Key != "" {
			golden[l.Key] = *l.Breakdown
		}
	}
	st := store.NewMemory(0)
	shared := CampaignRunner{Store: st}
	byFig := map[int][]Result{}
	for fig := 5; fig <= 10; fig++ {
		req := figure(fig, p64)
		var got, want bytes.Buffer
		results, err := shared.Run(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		WriteFigure(&got, fig, results)
		var reference []Result
		for _, cfg := range req.Configs() {
			key, err := CellKey(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			bd, ok := golden[key]
			if !ok {
				t.Fatalf("fig %d: no %s row has the key of %s/%s", fig, figuresGolden, cfg.App, cfg.Design)
			}
			reference = append(reference, Result{Config: cfg, Breakdown: bd})
		}
		WriteFigure(&want, fig, reference)
		if got.String() != want.String() {
			t.Fatalf("fig %d differs with a store:\n%s\n---\n%s", fig, got.String(), want.String())
		}
		byFig[fig] = results
	}
	if cs := st.Stats(); cs.Puts != 8 || cs.Misses != 8 || cs.Hits != 16 {
		t.Fatalf("cache stats = %+v, want puts=8 misses=8 hits=16", cs)
	}
	if !reflect.DeepEqual(byFig[7], byFig[6]) || !reflect.DeepEqual(byFig[10], byFig[9]) {
		t.Fatal("figs 7/10 did not reuse the results of 6/9")
	}
}

// One rep is one cell: the unit that is keyed, stored and simulated. A
// failure-free or explicitly scheduled cell simulates once at any rep
// count; a faulty cell's reps are distinct cells, and rep 1 is the one-rep
// cell. The row is the reps' mean, taken here field by field.
func TestRepIsACell(t *testing.T) {
	tiny := func(c Config) Config {
		c.App, c.Design, c.Procs, c.Nodes = "HPCCG", ReinitFTI, 8, 4
		c.Params, c.CkptPolicy = tinyParams("HPCCG"), ckpt.Config{Stride: 3}
		return c
	}
	cells := func(st *store.Store, cfg Config, reps int) Breakdown {
		t.Helper()
		res, err := CampaignRunner{Store: st}.Cells([]Config{cfg}, reps)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Breakdown
	}

	st := store.NewMemory(0)
	free := tiny(Config{})
	if five, one := cells(st, free, 5), cells(nil, free, 1); !reflect.DeepEqual(five, one) {
		t.Errorf("failure-free row at reps 5 differs from reps 1:\n%+v\n%+v", five, one)
	}
	if cs := st.Stats(); cs.Puts != 1 || cs.Misses != 1 || cs.Hits != 0 {
		t.Errorf("failure-free cell at reps 5: %+v, want 1 miss and 1 put, reps 2-5 with no store traffic", cs)
	}

	sched, err := fault.ParseSchedule("3@4")
	if err != nil {
		t.Fatal(err)
	}
	st = store.NewMemory(0)
	cells(st, tiny(Config{Schedule: &sched, FaultSeed: 11}), 3)
	if cs := st.Stats(); cs.Puts != 1 || cs.Misses != 1 || cs.Hits != 0 {
		t.Errorf("explicit-schedule cell at reps 3: %+v, want 1 miss and 1 put", cs)
	}

	st = store.NewMemory(0)
	faulty := tiny(Config{Faults: 1, FaultSeed: 11})
	got := cells(st, faulty, 3)
	before := st.Stats()
	if before.Puts != 3 {
		t.Errorf("faulty cell at reps 3: %+v, want 3 puts", before)
	}
	cells(st, faulty, 1)
	if cs := st.Stats(); cs.Hits != before.Hits+1 || cs.Misses != before.Misses || cs.Puts != before.Puts {
		t.Errorf("reps 1 after reps 3: %+v then %+v, want one pure hit", before, cs)
	}

	// The mean: times divide, counts round half up, Completed is ANDed and
	// the Signature is rep 1's.
	var reps []reflect.Value
	for r := 1; r <= 3; r++ {
		bd, err := Run(repConfig(faulty, r))
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, reflect.ValueOf(bd))
	}
	var want Breakdown
	w := reflect.ValueOf(&want).Elem()
	mean := func(dst reflect.Value, field func(reflect.Value) reflect.Value) {
		switch {
		case dst.Kind() == reflect.Int || dst.Kind() == reflect.Int64:
			var sum int64
			for _, r := range reps {
				sum += field(r).Int()
			}
			if dst.Type() == reflect.TypeOf(simnet.Time(0)) {
				dst.SetInt(sum / 3)
			} else {
				dst.SetInt((sum + 1) / 3)
			}
		case dst.Kind() == reflect.Bool:
			all := true
			for _, r := range reps {
				all = all && field(r).Bool()
			}
			dst.SetBool(all)
		default: // Signature
			dst.Set(field(reps[0]))
		}
	}
	for f := 0; f < w.NumField(); f++ {
		if w.Field(f).Kind() == reflect.Array {
			for i := 0; i < w.Field(f).Len(); i++ {
				mean(w.Field(f).Index(i), func(v reflect.Value) reflect.Value { return v.Field(f).Index(i) })
			}
			continue
		}
		mean(w.Field(f), func(v reflect.Value) reflect.Value { return v.Field(f) })
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reps 3 row is not the reps' mean:\n%s", breakdownDiff(got, &want))
	}
	if reps[0].Interface() == reps[1].Interface() {
		t.Error("the faulty reps ran identically; the mean proves nothing")
	}
}
