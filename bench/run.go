package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// opTimeout bounds one op (a cell, or a submit-to-results round trip). The
// slowest op of any workload takes about a second; a minute means "hung".
const opTimeout = 60 * time.Second

// setupRepeats is how often an untraced run sets up, so that setup_s is a
// median and not one cold sample. A traced run sets up once.
const setupRepeats = 3

// minRounds rounds follow every set-up, whatever -seconds says. peak_rss_mb
// is read when they end and virt_digest covers the first set-up's, so both
// describe the same work on a fast and on a slow commit.
const minRounds = 2

type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // build products and scratch space, inside the checkout
}

// roundStat is what one round measured.
type roundStat struct {
	ops    int
	wall   float64   // seconds
	cpu    float64   // user+sys seconds of the simulating process
	latMS  []float64 // latency of each op that completed
	traced bool
}

// driver is one way of executing a workload: in-process campaigns, or a
// matchserve child over HTTP. The run loop below is shared.
type driver interface {
	// setup does one complete set-up; teardown undoes it. The last set-up
	// is the one the rounds run against.
	setup() error
	teardown()
	// round executes round r and appends its op latencies and failures to
	// the tally.
	round(r int, traced bool, parent int) (roundStat, error)
	// peakRSSMB is VmHWM of the simulating process.
	peakRSSMB() (float64, error)
	// finish runs the checks that need the whole run (serve: compare the
	// first and last results with an in-process run) and, in a traced run,
	// adds the driver's per-layer metrics to layer.
	finish(layer map[string]float64) error
}

// tally is the op bookkeeping both drivers share.
type tally struct {
	attempted int
	failed    int
	latMS     []float64 // per-op latency, every round
	digest    hash.Hash // simulated statistics of the guaranteed rounds
	notes     []string  // why ops failed, for stderr
	spans     *spanLog
}

func (t *tally) fail(n int, format string, args ...interface{}) {
	t.failed += n
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// runOutcome is everything a run reports.
type runOutcome struct {
	tally
	setups []float64
	rounds []roundStat
	rssMB  float64
	virt   string
	layer  map[string]float64 // traced runs only
}

func runWorkload(w *workload, opts options) (*runOutcome, error) {
	tmp, err := os.MkdirTemp(opts.outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	out := &runOutcome{tally: tally{digest: sha256.New()}}
	if opts.trace {
		out.spans = &spanLog{}
		out.layer = map[string]float64{}
	}
	var d driver
	if w.serve {
		d = newServeDriver(w, opts, tmp, &out.tally)
	} else {
		d = newCampaignDriver(w, opts, tmp, &out.tally)
	}
	stopOnSignal(func() { d.teardown(); os.RemoveAll(tmp) })
	defer d.teardown()

	// A run is made of legs: a complete set-up, then whole rounds for a
	// share of -seconds. Three legs give setup_s three samples and, for a
	// serve workload, spread the rounds over three matchserve processes, so
	// that no single process's luck with memory placement decides the run.
	// A traced run has one leg and leaves 40 % of its time to the probes.
	legs, budget := setupRepeats, opts.seconds/setupRepeats
	if opts.trace {
		legs, budget = 1, 0.6*opts.seconds
	}
	runSpan := out.spans.open("run "+w.name, 0)
	var calib, rss []float64
	round := 0
	for leg := 0; leg < legs; leg++ {
		if leg > 0 {
			d.teardown()
		}
		id := out.spans.open("setup", runSpan)
		t0 := time.Now()
		if err := d.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		out.spans.end(id)

		start := time.Now()
		for n := 0; n < minRounds || time.Since(start).Seconds() < budget; n++ {
			// A traced run traces every other round, so it holds both kinds
			// and their ratio is the tracing overhead.
			traced := opts.trace && n%2 == 0
			id := out.spans.open(fmt.Sprintf("round %d", round), runSpan)
			latBefore := len(out.latMS)
			st, err := d.round(round, traced, id)
			out.spans.end(id)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", round, err)
			}
			st.latMS = out.latMS[latBefore:]
			out.rounds = append(out.rounds, st)
			round++
			// VmHWM never falls, so only a fresh process gives a fresh
			// reading: every leg of a serve workload has one, an in-process
			// workload only its first.
			if n == minRounds-1 && (leg == 0 || w.serve) {
				mb, err := d.peakRSSMB()
				if err != nil {
					return nil, err
				}
				rss = append(rss, mb)
			}
			if n == minRounds-1 && leg == 0 {
				out.virt = hex.EncodeToString(out.digest.Sum(nil))
				out.digest = nil
			}
			if opts.trace {
				calib = append(calib, calibrate())
			}
		}
	}
	out.rssMB = median(rss)
	if err := d.finish(out.layer); err != nil {
		return nil, err
	}
	out.spans.end(runSpan)

	if opts.trace {
		var traced, plain []float64
		for _, r := range out.rounds {
			if r.traced {
				traced = append(traced, float64(r.ops)/r.wall)
			} else {
				plain = append(plain, float64(r.ops)/r.wall)
			}
		}
		if m := median(traced); m > 0 {
			out.layer["trace.overhead_pct"] = (median(plain)/m - 1) * 100
		}
		d.teardown() // the probes want the machine to themselves
		for name, v := range runProbes(opts.outDir, 3, 1) {
			out.layer[name] = v
		}
		// The calibration loop that ran between this run's rounds says more
		// about the host during them than the probes' own.
		out.layer["host.calib_ms_p50"] = median(calib)
		path := filepath.Join("bench", "out", "trace-"+w.name+".json")
		if err := out.spans.writeChrome(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// endToEnd derives the five end-to-end metrics from a run. Other tenants
// of the host only ever slow a round down, so round times have a hard floor
// and a long upper tail: when a neighbour woke up, the median round moved
// 15 % between back-to-back runs of the same code, the faster rounds 6 %
// (README.md). The three time metrics are therefore taken over the faster
// half of the rounds, pooled — an estimate of the undisturbed speed that
// rests on half the work of the run, not on its single luckiest round.
func (o *runOutcome) endToEnd() map[string]float64 {
	byWall := append([]roundStat(nil), o.rounds...)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].wall < byWall[j].wall })
	var ops, wall, cpu float64
	var lat []float64
	for _, r := range byWall[:(len(byWall)+1)/2] {
		ops += float64(r.ops)
		wall += r.wall
		cpu += r.cpu
		lat = append(lat, r.latMS...)
	}
	return map[string]float64{
		"setup_s":      median(o.setups),
		"ops_per_s":    ops / wall,
		"op_ms_p50":    median(lat),
		"cpu_s_per_op": cpu / ops,
		"peak_rss_mb":  o.rssMB,
	}
}
