package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"match/internal/apps"
	"match/internal/apps/appkit"
	"match/internal/fault"
	"match/internal/fti"
	"match/internal/mpi"
	"match/internal/replica"
	"match/internal/simnet"
)

// deadlockCell is a cell that livelocks: ULFM losing rank 3's node at
// iteration 12 under L2 (`match -design ulfm -app HPCCG -procs 8 -level 2
// -fault-schedule '3@12:kind=node'`, nodeLossKnownBad's "ulfm/L2"). It is
// the regression cell for "a cell that trips the virtual deadline is a
// failed cell"; when a fix makes it recover, another cell that trips the
// deadline takes its place.
func deadlockCell() Config {
	sched := fault.Schedule{Events: []fault.Event{{Kind: fault.NodeFailure, TargetRank: 3, TargetIter: 12}}}
	return Config{App: "HPCCG", Design: UlfmFTI, Procs: 8, FTILevel: fti.L2, Schedule: &sched}
}

func healthyCell() Config {
	return Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4, Params: tinyParams("HPCCG")}
}

// The scheduler's deadline net is an error of the cell, not the end of the
// process: Run returns it, Cells reports it as the failing cell whatever the
// worker count, and a healthy cell runs afterwards. The dead cell keeps
// nothing: its parked ranks are unwound, so the goroutine count is back at
// its baseline. The count is process-wide, so neither this test nor its
// sub-tests are parallel (the package's parallel tests wait for it).
func TestDeadlineIsAnError(t *testing.T) {
	check := func(t *testing.T, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "core: virtual deadline") {
			t.Fatalf("err = %v, want the virtual deadline", err)
		}
	}
	// Ranks are released before Run returns; the settle loop is for a pool
	// worker that has delivered its last result but not yet returned.
	settled := func(t *testing.T, base int, when string) {
		t.Helper()
		n := runtime.NumGoroutine()
		for wait := time.Now().Add(2 * time.Second); n > base && time.Now().Before(wait); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Fatalf("%d goroutines %s, %d before it: ranks leaked", n, when, base)
		}
	}
	t.Run("Run", func(t *testing.T) {
		base := runtime.NumGoroutine()
		bd, err := Run(deadlockCell())
		check(t, err)
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%d goroutines when the deadlocked cell returned, %d before it: ranks leaked", n, base)
		}
		// The run lasted until the clock stopped: the last event before the
		// deadline is a heartbeat on the 100 ms grid, at the deadline itself.
		want := Breakdown{Total: runDeadline, Ckpt: 307658998, Recovery: 1774870150,
			App:           runDeadline - 307658998 - 1774870150,
			DetectLatency: 300 * simnet.Millisecond, DetectedFailures: 1, Recoveries: 1, FaultsInjected: 1,
			CkptCount: 3, CkptBytes: 124728,
			Messages: 670, NetBytes: 211126}
		want.CkptCountAt[fti.L2], want.CkptBytesAt[fti.L2] = 3, 124728
		if bd != want {
			t.Fatalf("partial breakdown = %+v, want %+v (as before ranks were released: fault fired and detected, the world repaired once, the run never finished)", bd, want)
		}
		if bd, err := Run(healthyCell()); err != nil || !bd.Completed {
			t.Fatalf("healthy cell after the deadline: %+v, %v", bd, err)
		}
		settled(t, base, "after the healthy cell that followed")
	})
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("Cells/j%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			rn := CampaignRunner{Workers: workers}
			results, err := rn.Cells([]Config{healthyCell(), deadlockCell(), healthyCell()}, 1)
			check(t, err)
			if len(results) != 1 || !results[0].Breakdown.Completed {
				t.Fatalf("%d results, want the one healthy cell before the deadlocked one", len(results))
			}
			settled(t, base, "after the sweep with the deadlocked cell")
			if results, err := rn.Cells([]Config{healthyCell()}, 1); err != nil || len(results) != 1 {
				t.Fatalf("healthy sweep after the deadline: %d results, %v", len(results), err)
			}
			settled(t, base, "after the healthy sweep that followed")
		})
	}
}

// The Table I byte scale has one home, simnet.Config.BytesScale, and every
// layer that charges time per byte reads it there. One Medium-input cell per
// scaled layer (storage + FTI under an L4 checkpoint, the message path of a
// comm-heavy app across a relaunch, the hot-spare state transfer) must keep
// the virtual times recorded at 708a852, before the three per-layer copies
// and the per-launch hooks that carried them were deleted; the scales are in
// the hundreds to thousands, so a layer that lost its scale misses by far.
func TestByteScaleHasOneHome(t *testing.T) {
	cells := []struct {
		name               string
		cfg                Config
		ckpt, total, spawn simnet.Time
	}{
		{"L4-checkpoint",
			Config{App: "HPCCG", Design: ReinitFTI, Procs: 8, Nodes: 4, Input: Medium, FTILevel: fti.L4},
			804799331, 48263959305, 0},
		{"comm-heavy",
			Config{App: "AMG", Design: RestartFTI, Procs: 8, Nodes: 4, Input: Medium, Faults: 1, FaultSeed: 1},
			400589700, 274737189050, 0},
		{"hot-spare",
			Config{App: "HPCCG", Design: ReplicaFTI, Procs: 8, Nodes: 4, Input: Medium,
				Schedule: doubleHit(t), Replica: replica.Config{HotSpare: true}},
			695732144, 48225701785, 522650792},
	}
	var cfgs []Config
	for _, c := range cells {
		cfgs = append(cfgs, c.cfg)
	}
	results, err := CampaignRunner{}.Cells(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		bd := results[i].Breakdown
		if bd.Ckpt != c.ckpt || bd.Total != c.total || bd.SpawnTime != c.spawn {
			t.Errorf("%s: ckpt=%d total=%d spawn=%d, want %d/%d/%d (ns of virtual time)", c.name,
				int64(bd.Ckpt), int64(bd.Total), int64(bd.SpawnTime),
				int64(c.ckpt), int64(c.total), int64(c.spawn))
		}
	}
}

// parked is an app whose every rank waits, in its first step, for a
// message no rank sends. A cell running it never completes, and no rank
// reports an error: it is the fixture for an incomplete cell.
type parked struct{}

func (parked) Name() string                               { return "Parked" }
func (parked) Init(*appkit.Context) error                 { return nil }
func (parked) Signature(*appkit.Context) (float64, error) { return 0, nil }

func (parked) Step(ctx *appkit.Context, _ int) error {
	_, err := mpi.Recv(ctx.R, ctx.World, mpi.AnySource, mpi.AnyTag)
	return err
}

// A cell whose ranks never all finish says why: here no rank returned an
// error, so the message says so, and reports the incarnations, recoveries
// and fired faults it knows of. No model cell is known to end this way, so
// the cell runs parked, whose ranks all wait for a message no rank sends.
func TestIncompleteCellSaysWhy(t *testing.T) {
	if err := apps.Register("Parked", func() appkit.App { return parked{} }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { apps.Unregister("Parked") })
	bd, err := Run(Config{App: "Parked", Design: RestartFTI, Procs: 8, Params: appkit.Params{MaxIter: 10}})
	want := "core: only 0/8 ranks completed, no rank reported an error " +
		"(1 incarnations launched, 0 recoveries logged, 0/0 faults fired)"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	// The partial Breakdown is still a breakdown: no time or count is
	// negative (Signature, an answer, may be).
	v := reflect.ValueOf(bd)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		elems := []reflect.Value{f}
		if f.Kind() == reflect.Array {
			elems = elems[:0]
			for j := 0; j < f.Len(); j++ {
				elems = append(elems, f.Index(j))
			}
		}
		for _, x := range elems {
			if x.CanInt() && x.Int() < 0 {
				t.Errorf("partial %s = %v, want >= 0", v.Type().Field(i).Name, f)
			}
		}
	}
}
