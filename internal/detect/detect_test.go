package detect

import (
	"strings"
	"testing"

	"match/internal/mpi"
	"match/internal/simnet"
)

// TestValidateRejectsDegenerateConfigs pins the construction-time
// validation contract: configurations that could never detect fail loudly
// instead of hanging a run forever.
func TestValidateRejectsDegenerateConfigs(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"zero-period ring", Config{Kind: Ring, DetectTimeout: 300 * simnet.Millisecond}, "would never detect"},
		{"negative-period ring", Config{Kind: Ring, HeartbeatPeriod: -1, DetectTimeout: simnet.Second}, "would never detect"},
		{"zero-period tree", Config{Kind: Tree, DetectTimeout: 100 * simnet.Millisecond}, "would never detect"},
		{"timeout below period", Config{Kind: Ring, HeartbeatPeriod: 100 * simnet.Millisecond, DetectTimeout: 50 * simnet.Millisecond}, "timeout"},
		{"unresolved preset", Config{}, "resolved"},
		{"negative steal", Config{Kind: Tree, HeartbeatPeriod: simnet.Millisecond, DetectTimeout: simnet.Millisecond, InterferenceSteal: -1}, "negative"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
		cl := simnet.NewCluster(simnet.Config{Nodes: 2})
		if _, nerr := New(tc.cfg, mpi.NewJob(cl), nil); nerr == nil {
			t.Fatalf("%s: New accepted %+v", tc.name, tc.cfg)
		}
	}
	if err := (Config{Kind: Launcher}).Validate(); err != nil {
		t.Fatalf("launcher rejected: %v", err)
	}
	if err := RingDefaults().Validate(); err != nil {
		t.Fatalf("ring defaults rejected: %v", err)
	}
	if err := TreeDefaults().Validate(); err != nil {
		t.Fatalf("tree defaults rejected: %v", err)
	}
}

// TestResolve pins the preset/default merging rules, including the
// 3x-period derived timeout that keeps period sweeps valid.
func TestResolve(t *testing.T) {
	preset := Config{Kind: Ring, HeartbeatPeriod: 7, DetectTimeout: 21}
	if got := Resolve(Config{}, preset); got != preset {
		t.Fatalf("preset passthrough: got %+v", got)
	}
	got := Resolve(Config{Kind: Ring, HeartbeatPeriod: 200 * simnet.Millisecond}, preset)
	if got.DetectTimeout != 600*simnet.Millisecond {
		t.Fatalf("derived timeout = %v, want 3x period", got.DetectTimeout)
	}
	if got.HeartbeatBytes != RingDefaults().HeartbeatBytes {
		t.Fatalf("bytes = %d, want ring default", got.HeartbeatBytes)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("resolved config invalid: %v", err)
	}
	if got := Resolve(Config{Kind: Tree}, preset); got != TreeDefaults() {
		t.Fatalf("tree fill = %+v, want defaults", got)
	}
	if got := Resolve(Config{Kind: Launcher}, preset); got.Kind != Launcher {
		t.Fatalf("launcher resolve = %+v", got)
	}
}

// harness starts an n-proc job whose ranks just compute, kills victim at
// killAt, and returns the detector's confirmed failures at drain.
func harness(t *testing.T, cfg Config, n, victim int, killAt simnet.Time) []Failure {
	t.Helper()
	cl := simnet.NewCluster(simnet.Config{Nodes: 4})
	cl.Scheduler().SetDeadline(1000 * simnet.Second)
	job := mpi.Launch(cl, n, 0, func(r *mpi.Rank) {
		for r.Now() < 5*simnet.Second {
			r.Compute(10 * simnet.Millisecond)
		}
	})
	det, err := New(cfg, job, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	det.SetProcs(job.World().Leaders())
	vp := job.World().Member(victim)
	cl.Scheduler().At(killAt, func() { vp.SimProc().Kill() })
	cl.Run()
	return det.Failures()
}

// TestLauncherDetectsInstantly pins the out-of-band baseline: detection
// latency is exactly zero, at the exact death time.
func TestLauncherDetectsInstantly(t *testing.T) {
	kill := 1*simnet.Second + 3*simnet.Millisecond
	fs := harness(t, LauncherConfig(), 4, 2, kill)
	if len(fs) != 1 {
		t.Fatalf("failures = %+v, want 1", fs)
	}
	f := fs[0]
	if f.FailedAt != kill || f.DetectedAt != kill || f.Latency() != 0 {
		t.Fatalf("launcher failure %+v, want instant at %v", f, kill)
	}
}

// TestRingLatencyMonotonicInPeriod sweeps the heartbeat period (timeout
// derived as 3x period) and requires the end-to-end detection delay —
// death to confirmation — to be monotonically nondecreasing, and each
// reported latency to equal the configured timeout exactly (the ring can
// only ever attribute observation-to-confirmation to itself).
func TestRingLatencyMonotonicInPeriod(t *testing.T) {
	kill := 1*simnet.Second + 3*simnet.Millisecond
	var lastDelay simnet.Time = -1
	for _, period := range []simnet.Time{10 * simnet.Millisecond, 50 * simnet.Millisecond, 200 * simnet.Millisecond} {
		cfg := Resolve(Config{Kind: Ring, HeartbeatPeriod: period}, Config{})
		fs := harness(t, cfg, 4, 2, kill)
		if len(fs) != 1 {
			t.Fatalf("period %v: failures = %+v, want 1", period, fs)
		}
		f := fs[0]
		if f.Latency() != cfg.DetectTimeout {
			t.Fatalf("period %v: latency %v != timeout %v", period, f.Latency(), cfg.DetectTimeout)
		}
		if f.FailedAt < kill {
			t.Fatalf("period %v: observed %v before the death %v", period, f.FailedAt, kill)
		}
		delay := f.DetectedAt - kill
		if delay < lastDelay {
			t.Fatalf("period %v: death-to-confirmation %v shrank below %v", period, delay, lastDelay)
		}
		lastDelay = delay
	}
}

// TestTreeConfirmsAfterTimeout pins the daemon-tree semantics: the exact
// death time is observed (SIGCHLD), confirmation lands on the first
// supervision round at least DetectTimeout later.
func TestTreeConfirmsAfterTimeout(t *testing.T) {
	kill := 1*simnet.Second + 3*simnet.Millisecond
	cfg := TreeDefaults()
	fs := harness(t, cfg, 4, 1, kill)
	if len(fs) != 1 {
		t.Fatalf("failures = %+v, want 1", fs)
	}
	f := fs[0]
	if f.FailedAt != kill {
		t.Fatalf("tree observed %v, want exact death %v", f.FailedAt, kill)
	}
	if f.Latency() < cfg.DetectTimeout || f.Latency() >= cfg.DetectTimeout+cfg.HeartbeatPeriod {
		t.Fatalf("tree latency %v outside [timeout, timeout+period) = [%v, %v)",
			f.Latency(), cfg.DetectTimeout, cfg.DetectTimeout+cfg.HeartbeatPeriod)
	}
}

// TestRingHeartbeatsConsumeNICTime pins the interference mechanism: a run
// under a chatty ring detector finishes later than the identical run under
// the silent launcher, because heartbeats serialize on egress NICs and the
// steal preempts the application.
func TestRingHeartbeatsConsumeNICTime(t *testing.T) {
	run := func(cfg Config) simnet.Time {
		cl := simnet.NewCluster(simnet.Config{Nodes: 4})
		cl.Scheduler().SetDeadline(1000 * simnet.Second)
		var job *mpi.Job
		job = mpi.Launch(cl, 4, 0, func(r *mpi.Rank) {
			for i := 0; i < 100; i++ {
				if _, err := mpi.AllreduceF64Scalar(r, job.World(), 1, mpi.OpSum); err != nil {
					t.Errorf("allreduce: %v", err)
					return
				}
				r.Compute(simnet.Millisecond)
			}
		})
		det, err := New(cfg, job, nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		det.SetProcs(job.World().Leaders())
		return cl.Run()
	}
	quiet := run(LauncherConfig())
	noisy := run(Resolve(Config{Kind: Ring, HeartbeatPeriod: 5 * simnet.Millisecond}, Config{}))
	if noisy <= quiet {
		t.Fatalf("ring run (%v) not slower than launcher run (%v)", noisy, quiet)
	}
}

// TestDetectorConfirmsEachFailureOnce kills two ranks of the watch set,
// at two times or in one node loss, and expects exactly two
// confirmations, in kill order, with no duplicates across later rounds.
// The launcher and the tree see the exact death time.
func TestDetectorConfirmsEachFailureOnce(t *testing.T) {
	const loss = 1*simnet.Second + 3*simnet.Millisecond
	cases := []struct {
		name    string
		victims []int         // world ranks, in kill order
		killAt  []simnet.Time // death time of each victim
		kill    func(cl *simnet.Cluster, w *mpi.Comm)
	}{
		{"two kills", []int{1, 3}, []simnet.Time{1 * simnet.Second, 2 * simnet.Second},
			func(cl *simnet.Cluster, w *mpi.Comm) {
				cl.Scheduler().At(1*simnet.Second, func() { w.Member(1).SimProc().Kill() })
				cl.Scheduler().At(2*simnet.Second, func() { w.Member(3).SimProc().Kill() })
			}},
		// 8 ranks on 4 nodes: ranks 2 and 3 share node 1.
		{"one node loss", []int{2, 3}, []simnet.Time{loss, loss},
			func(cl *simnet.Cluster, w *mpi.Comm) {
				cl.Scheduler().At(loss, func() { cl.FailNode(1) })
			}},
	}
	for _, tc := range cases {
		for _, cfg := range []Config{LauncherConfig(), RingDefaults(), TreeDefaults()} {
			cl := simnet.NewCluster(simnet.Config{Nodes: 4})
			cl.Scheduler().SetDeadline(1000 * simnet.Second)
			job := mpi.Launch(cl, 8, 0, func(r *mpi.Rank) {
				for r.Now() < 5*simnet.Second {
					r.Compute(10 * simnet.Millisecond)
				}
			})
			det, err := New(cfg, job, nil)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			w := job.World()
			det.SetProcs(w.Leaders())
			tc.kill(cl, w)
			cl.Run()
			fs := det.Failures()
			if len(fs) != len(tc.victims) {
				t.Fatalf("%s, %s: failures = %+v, want %d", tc.name, cfg.Kind, fs, len(tc.victims))
			}
			for i, v := range tc.victims {
				if fs[i].GID != w.Member(v).GID() {
					t.Fatalf("%s, %s: confirmation order %+v, want ranks %v", tc.name, cfg.Kind, fs, tc.victims)
				}
				if cfg.Kind != Ring && fs[i].FailedAt != tc.killAt[i] {
					t.Fatalf("%s, %s: FailedAt of rank %d = %v, want the death %v", tc.name, cfg.Kind, v, fs[i].FailedAt, tc.killAt[i])
				}
			}
		}
	}
}

// TestParseKind pins the CLI spellings.
func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got, err := ParseKind(""); err != nil || got != Preset {
		t.Fatalf("ParseKind(\"\") = %v, %v", got, err)
	}
	if _, err := ParseKind("nope"); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("ParseKind(nope) err = %v", err)
	}
}
