package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"match/internal/core"
	"match/internal/obs"
	"match/internal/store"
)

// campaignDriver runs campaign workloads in this process, pinned to one
// core: GOMAXPROCS(1) with Workers: 1. With two Ps a cell's rank goroutines
// hand off across OS threads, which is both slower and far noisier (see
// README.md); one P is also the per-core cost a saturated -j N pool pays.
type campaignDriver struct {
	w    *workload
	opts options
	tmp  string
	t    *tally

	// Traced rounds only.
	meter    *obs.SweepMeter
	shares   map[string]float64 // cpu ns per bucket
	totals   tracedTotals
	allocB   uint64
	gcCycles uint32
}

func newCampaignDriver(w *workload, opts options, tmp string, t *tally) *campaignDriver {
	return &campaignDriver{w: w, opts: opts, tmp: tmp, t: t,
		meter: obs.NewSweepMeter(), shares: map[string]float64{}}
}

func (c *campaignDriver) setup() error {
	runtime.GOMAXPROCS(1)
	for _, cfg := range c.w.warm {
		bd, err := core.Run(cfg)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", cfg.App, err)
		}
		if !bd.Completed {
			return fmt.Errorf("warm-up %s did not complete", cfg.App)
		}
	}
	return nil
}

func (c *campaignDriver) teardown() {}

func (c *campaignDriver) peakRSSMB() (float64, error) {
	kb, err := procStatusKB(os.Getpid(), "VmHWM")
	return kb / 1024, err
}

func (c *campaignDriver) round(r int, traced bool, parent int) (roundStat, error) {
	dir := filepath.Join(c.tmp, fmt.Sprintf("round-%d", r))
	defer os.RemoveAll(dir)
	reqs := c.w.round(c.opts.seed, r)

	var prof bytes.Buffer
	var m0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return roundStat{}, err
		}
	}
	t0, cpu0 := time.Now(), selfCPUSeconds()
	// A store per round: every round simulates its cells, none reads what
	// an earlier round put.
	st, err := store.Open(dir, 0)
	if err != nil {
		return roundStat{}, err
	}
	ops := 0
	var results []core.Result
	for _, req := range reqs {
		results = append(results, c.runRequest(req, st, traced, parent)...)
		ops += len(req.Configs())
	}
	stat := roundStat{ops: ops, wall: time.Since(t0).Seconds(), cpu: selfCPUSeconds() - cpu0, traced: traced}
	for _, res := range results {
		if c.t.digest != nil {
			b, _ := json.Marshal(res.Breakdown) // plain numbers and bools
			c.t.digest.Write(b)
		}
		if traced {
			c.totals.virtS += res.Breakdown.Total.Seconds()
		}
	}
	if traced {
		pprof.StopCPUProfile()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		c.allocB += m1.TotalAlloc - m0.TotalAlloc
		c.gcCycles += m1.NumGC - m0.NumGC
		if err := addProfile(prof.Bytes(), c.shares); err != nil {
			return roundStat{}, fmt.Errorf("cpu profile: %w", err)
		}
		c.totals.addStore(st.Stats(), store.Stats{})
		c.totals.ops += ops
		c.totals.hostS += stat.wall
	}
	return stat, nil
}

// runRequest runs one campaign request and checks every cell: an op fails
// on an error, a panic on the calling goroutine, a timeout, a run that did
// not complete, or a k >= 1 cell whose answer differs from the failure-free
// answer of the same app and design. A panic inside the runner's worker
// goroutine cannot be caught from outside and takes the run down — the
// workloads steer clear of the cells known to do that (README.md).
func (c *campaignDriver) runRequest(req core.CampaignRequest, st *store.Store, traced bool, parent int) []core.Result {
	n := len(req.Configs())
	c.t.attempted += n
	rn := core.CampaignRunner{
		Workers: 1,
		Store:   st,
		Progress: func(_, _ int, res core.Result, wall time.Duration) {
			c.t.latMS = append(c.t.latMS, float64(wall.Nanoseconds())/1e6)
			if traced {
				now := time.Now()
				name := fmt.Sprintf("cell %s/%s/k%d", res.Config.App, res.Config.Design.ShortName(), res.Config.FaultCount())
				op := c.t.spans.add(name, parent, now.Add(-wall), now)
				c.t.spans.add("cell", op, now.Add(-wall), now)
			}
		},
	}
	if traced {
		rn.Meter = c.meter
	}
	type outcome struct {
		results []core.Result
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		results, err := rn.Run(req, nil)
		done <- outcome{results, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(opTimeout * time.Duration(n)):
		o.err = fmt.Errorf("timed out")
	}
	if o.err != nil {
		c.t.fail(n-len(o.results), "%v: %v", req.Apps, o.err)
	}
	type cell struct {
		app    string
		design core.Design
	}
	baseline := map[cell]float64{}
	for _, res := range o.results {
		key := cell{res.Config.App, res.Config.Design}
		switch {
		case !res.Breakdown.Completed:
			c.t.fail(1, "%s k=%d did not complete", res.Key(), res.Config.FaultCount())
		case res.Config.FaultCount() == 0:
			baseline[key] = res.Breakdown.Signature
		default:
			if sig, ok := baseline[key]; ok && sig != res.Breakdown.Signature {
				c.t.fail(1, "%s k=%d: signature %v, failure-free %v",
					res.Key(), res.Config.FaultCount(), res.Breakdown.Signature, sig)
			}
		}
	}
	return o.results
}

func (c *campaignDriver) finish(layer map[string]float64) error {
	if layer == nil {
		return nil
	}
	var om bytes.Buffer
	if err := c.meter.WriteOpenMetrics(&om); err != nil {
		return err
	}
	if err := c.totals.addTo(layer, parseOpenMetrics(om.Bytes())); err != nil {
		return err
	}
	ops := float64(c.totals.ops)
	total := 0.0
	for _, v := range c.shares {
		total += v
	}
	for _, name := range shareNames {
		if total > 0 {
			layer["share."+name] = c.shares[name] / total
		}
	}
	layer["go.alloc_mb_per_op"] = float64(c.allocB) / (1 << 20) / ops
	layer["go.gc_cycles_per_op"] = float64(c.gcCycles) / ops
	return nil
}
