package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"match/internal/ckpt"
	"match/internal/core"
	"match/internal/enc"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/obs"
	"match/internal/rs"
	"match/internal/simnet"
	"match/internal/storage"
	"match/internal/store"
	"match/internal/trace"
)

// Layer probes: each times a fixed amount of work around one layer's public
// calls, on one P, and reports the median of reps repetitions. They are the
// micro-benchmarks behind the prediction table in README.md: a change to a
// layer should move its probe first, and the end-to-end metric of the
// workload that layer dominates second.

// timeIt returns the median host time of reps runs of f.
func timeIt(reps int, f func()) time.Duration {
	var v []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		v = append(v, float64(time.Since(t0)))
	}
	return time.Duration(median(v))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// calibrate is a fixed arithmetic loop (xorshift, no memory traffic). Its
// time depends on the host alone: when host.calib_ms_p50 moves between two
// runs, the machine changed speed, not the program.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var calibSink uint64

// runProbes runs every probe reps times and returns metric -> median. The
// six app cells at the paper's 64 ranks take 3.5 s a pass, so they repeat
// appReps times: once in a traced workload run, to stay inside its budget.
func runProbes(outDir string, reps, appReps int) map[string]float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	out := map[string]float64{}

	var calib []float64
	for i := 0; i < 2*reps+1; i++ {
		calib = append(calib, calibrate())
	}
	out["host.calib_ms_p50"] = median(calib)

	probeSimnet(out, reps)
	probeMPI(out, reps)
	probeFTI(out, reps)
	probeCodecs(out, reps)
	probeStore(out, reps, outDir)
	probeCore(out, reps)
	probeApps(out, appReps)
	probeObservers(out, reps)
	return out
}

func probeSimnet(out map[string]float64, reps int) {
	const events = 400_000
	d := timeIt(reps, func() {
		s := simnet.NewScheduler()
		fn := func(any, int64) {}
		for i := 0; i < events; i++ {
			s.AfterFunc(simnet.Time(i%64+1), fn, nil, 0)
			if i%64 == 63 {
				s.Run()
			}
		}
		s.Run()
	})
	out["simnet.sched_ns_per_event"] = float64(d.Nanoseconds()) / events

	const procs, sleeps = 64, 1000
	d = timeIt(reps, func() {
		c := simnet.NewCluster(simnet.Config{Nodes: 8})
		for p := 0; p < procs; p++ {
			c.StartProc(p%8, 0, func(p *simnet.Proc) {
				for k := 0; k < sleeps; k++ {
					p.Sleep(10)
				}
			})
		}
		c.Run()
	})
	out["simnet.handoff_ns_per_switch"] = float64(d.Nanoseconds()) / (procs * sleeps)
}

func probeMPI(out map[string]float64, reps int) {
	const rounds = 20_000
	payload := make([]byte, 64)
	d := timeIt(reps, func() {
		c := simnet.NewCluster(simnet.Config{Nodes: 2})
		mpi.Launch(c, 2, 0, func(r *mpi.Rank) {
			w := r.Job().World()
			me := r.Rank(w)
			for k := 0; k < rounds; k++ {
				if me == 0 {
					must(mpi.Send(r, w, 1, 1, payload))
					_, err := mpi.Recv(r, w, 1, 2)
					must(err)
				} else {
					_, err := mpi.Recv(r, w, 0, 1)
					must(err)
					must(mpi.Send(r, w, 0, 2, payload))
				}
			}
		})
		c.Run()
	})
	out["mpi.p2p_us_per_msg"] = float64(d.Nanoseconds()) / 1e3 / (2 * rounds)

	const allreduces = 50
	d = timeIt(reps, func() {
		c := simnet.NewCluster(simnet.Config{Nodes: 8})
		mpi.Launch(c, 64, 0, func(r *mpi.Rank) {
			w := r.Job().World()
			for k := 0; k < allreduces; k++ {
				_, err := mpi.AllreduceF64Scalar(r, w, 1.0, mpi.OpSum)
				must(err)
			}
		})
		c.Run()
	})
	out["mpi.allreduce64_us"] = float64(d.Nanoseconds()) / 1e3 / allreduces
}

// probeFTI checkpoints 8 ranks x 1 MiB at each level and recovers from the
// default level. The simulation runs one goroutine at a time, so the host
// time between two barriers, stamped by rank 0, is the work of all ranks.
func probeFTI(out map[string]float64, reps int) {
	const ranks, floats = 8, 1 << 17 // 1 MiB of float64 per rank
	const mib = float64(ranks)
	run := func(level fti.Level) (ckptMS, recoverMS float64) {
		var t [3]time.Time
		c := simnet.NewCluster(simnet.Config{Nodes: 8})
		st := storage.New(c, storage.Config{})
		mpi.Launch(c, ranks, 0, func(r *mpi.Rank) {
			w := r.Job().World()
			f, err := fti.Init(fti.Config{Level: level, ExecID: "probe"}, r, w, st)
			must(err)
			data := make([]float64, floats)
			for i := range data {
				data[i] = float64(i + r.Rank(w))
			}
			f.Protect(0, fti.F64s{P: &data})
			stamp := func(i int) {
				must(mpi.Barrier(r, w))
				if r.Rank(w) == 0 {
					t[i] = time.Now()
				}
			}
			stamp(0)
			must(f.CheckpointAt(1, level))
			stamp(1)
			must(f.Recover())
			stamp(2)
		})
		c.Run()
		return float64(t[1].Sub(t[0]).Nanoseconds()) / 1e6, float64(t[2].Sub(t[1]).Nanoseconds()) / 1e6
	}
	for _, level := range []fti.Level{fti.L1, fti.L2, fti.L3, fti.L4} {
		var ck, rec []float64
		for i := 0; i < reps; i++ {
			c, r := run(level)
			ck, rec = append(ck, c), append(rec, r)
		}
		out[fmt.Sprintf("fti.ckpt_l%d_ms_per_mb", int(level))] = median(ck) / mib
		if level == fti.L1 {
			out["fti.recover_ms_per_mb"] = median(rec) / mib
		}
	}
}

func probeCodecs(out map[string]float64, reps int) {
	const k, m, shard = 4, 4, 256 << 10
	code, err := rs.New(k, m)
	must(err)
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, shard)
		for j := range data[i] {
			data[i][j] = byte(i*31 + j)
		}
	}
	var parity [][]byte
	d := timeIt(reps, func() {
		parity, err = code.Encode(data)
		must(err)
	})
	const dataMB = float64(k*shard) / (1 << 20)
	out["rs.encode_mb_per_s"] = dataMB / d.Seconds()
	d = timeIt(reps, func() {
		shards := append(append([][]byte{}, data...), parity...)
		shards[0], shards[2] = nil, nil // two data shards lost
		must(code.Reconstruct(shards))
	})
	out["rs.reconstruct_mb_per_s"] = dataMB / d.Seconds()

	const floats, passes = 1 << 17, 16
	v := make([]float64, floats)
	for i := range v {
		v[i] = float64(i)
	}
	d = timeIt(reps, func() {
		for i := 0; i < passes; i++ {
			v = enc.BytesToFloat64s(enc.Float64sToBytes(v))
		}
	})
	out["enc.f64_mb_per_s"] = float64(passes*floats*8) / (1 << 20) / d.Seconds()
}

func probeStore(out map[string]float64, reps int, outDir string) {
	const n = 400
	val := bytes.Repeat([]byte(`{"v":1,"breakdown":{"Total":123456789}}`), 20) // a cached cell is ~0.8 KB
	keys := make([]string, n)
	absent := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
		absent[i] = fmt.Sprintf("%064x", i+1+n)
	}
	var put, mem, disk, miss []float64
	for r := 0; r < reps; r++ {
		dir, err := os.MkdirTemp(outDir, "probe-store-*")
		must(err)
		st, err := store.Open(dir, 0)
		must(err)
		per := func(f func(key string)) float64 {
			t0 := time.Now()
			for _, k := range keys {
				f(k)
			}
			return float64(time.Since(t0).Nanoseconds()) / 1e3 / n
		}
		put = append(put, per(func(k string) { must(st.Put(k, val)) }))
		mem = append(mem, per(func(k string) { st.Get(k) }))
		cold, err := store.Open(dir, 0) // same directory, empty LRU: every Get reads a file
		must(err)
		disk = append(disk, per(func(k string) { cold.Get(k) }))
		t0 := time.Now()
		for _, k := range absent {
			cold.Get(k)
		}
		miss = append(miss, float64(time.Since(t0).Nanoseconds())/1e3/n)
		os.RemoveAll(dir)
	}
	out["store.put_us"] = median(put)
	out["store.get_mem_us"] = median(mem)
	out["store.get_disk_us"] = median(disk)
	out["store.get_miss_us"] = median(miss)
}

func probeCore(out map[string]float64, reps int) {
	const n = 2000
	cfg := core.Config{App: "AMG", Design: core.ReplicaFTI, Procs: 8, InjectFault: true, Faults: 1, FaultSeed: 7}
	d := timeIt(reps, func() {
		for i := 0; i < n; i++ {
			_, err := core.CellKey(cfg, 1)
			must(err)
		}
	})
	out["core.cellkey_us"] = float64(d.Nanoseconds()) / 1e3 / n
	d = timeIt(reps, func() {
		for i := 0; i < n; i++ {
			_, err := warmRequest.Hash()
			must(err)
		}
	})
	out["core.request_hash_us"] = float64(d.Nanoseconds()) / 1e3 / n

	// A warm in-process campaign: what serve-warm costs without HTTP.
	req := core.CampaignRequest{Apps: []string{"miniFE"}, Procs: 8, MaxFaults: 0}
	rn := core.CampaignRunner{Workers: 1, Store: store.NewMemory(0)}
	results, err := rn.Run(req, nil)
	must(err)
	const warmRuns = 200
	d = timeIt(reps, func() {
		for i := 0; i < warmRuns; i++ {
			_, err := rn.Run(req, nil)
			must(err)
		}
	})
	cells := float64(len(results))
	out["core.warm_cell_us"] = float64(d.Nanoseconds()) / 1e3 / warmRuns / cells
	d = timeIt(reps, func() {
		for i := 0; i < warmRuns; i++ {
			core.WriteCampaign(io.Discard, results)
			renderResults(results)
		}
	})
	out["core.render_us_per_cell"] = float64(d.Nanoseconds()) / 1e3 / warmRuns / cells

	// The worker pool: the same 8 cells on one P and on every P. Half of
	// nproc is the ceiling where another tenant holds the second core.
	pool := core.CampaignRequest{Apps: []string{"miniFE"}, Procs: 16, MaxFaults: 1}
	run := func(workers int) time.Duration {
		prev := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
		return timeIt(reps, func() {
			_, err := core.CampaignRunner{Workers: workers}.Run(pool, nil)
			must(err)
		})
	}
	out["core.pool_speedup"] = run(1).Seconds() / run(runtime.NumCPU()).Seconds()
}

// probeApps times one failure-free cell of each app: ReinitFTI, 64 ranks
// as in the paper, no checkpoints — the kernel and its messages alone.
func probeApps(out map[string]float64, reps int) {
	for _, app := range core.TableIApps() {
		cfg := core.Config{App: app, Design: core.ReinitFTI, Procs: 64, CkptPolicy: ckpt.Config{Kind: ckpt.Never}}
		d := timeIt(reps, func() {
			_, err := core.Run(cfg)
			must(err)
		})
		out["apps."+strings.ToLower(app)+"_cell_ms"] = float64(d.Nanoseconds()) / 1e6
	}
}

// probeObservers runs one AMG cell bare, metered and traced, interleaved,
// and reports what attaching each observer costs. Untraced workload runs
// attach neither, so a move here must not move any end-to-end metric.
func probeObservers(out map[string]float64, reps int) {
	cfg := core.Config{App: "AMG", Design: core.ReinitFTI, Procs: 16}
	var bare, metered, traced []float64
	cell := func(c core.Config) float64 {
		t0 := time.Now()
		_, err := core.Run(c)
		must(err)
		return float64(time.Since(t0).Nanoseconds())
	}
	for i := 0; i < 2*reps+1; i++ {
		bare = append(bare, cell(cfg))
		m := cfg
		m.Metrics = obs.New()
		metered = append(metered, cell(m))
		t := cfg
		t.Trace = trace.New()
		traced = append(traced, cell(t))
	}
	out["obs.metered_overhead_pct"] = (median(metered)/median(bare) - 1) * 100
	out["trace.recorder_overhead_pct"] = (median(traced)/median(bare) - 1) * 100
}
