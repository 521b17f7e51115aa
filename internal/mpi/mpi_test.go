package mpi

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"match/internal/enc"
	"match/internal/simnet"
)

// runJob launches n ranks running body and drives the simulation; it fails
// the test if any rank did not complete. A rank that panics panics Run.
func runJob(t *testing.T, n int, body func(*Rank)) *Job {
	t.Helper()
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	j := Launch(c, n, 0, body)
	c.Run()
	for i, p := range j.World().Leaders() {
		if !p.Completed() {
			t.Fatalf("rank %d did not complete (failed %v; else deadlocked)", i, p.Failed())
		}
	}
	return j
}

func TestLaunchRanksAndPlacement(t *testing.T) {
	ranks := make([]int, 8)
	nodes := make([]int, 8)
	runJob(t, 8, func(r *Rank) {
		w := r.Job().World()
		ranks[r.Rank(w)] = r.Rank(w)
		nodes[r.Rank(w)] = r.Process().NodeID()
		if r.Size(w) != 8 {
			t.Errorf("size = %d", r.Size(w))
		}
	})
	for i := 0; i < 8; i++ {
		if ranks[i] != i {
			t.Fatalf("rank %d missing", i)
		}
		if nodes[i] != i/2 { // 8 ranks over 4 nodes, block placement
			t.Fatalf("rank %d on node %d, want %d", i, nodes[i], i/2)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	var got []byte
	runJob(t, 2, func(r *Rank) {
		w := r.Job().World()
		switch r.Rank(w) {
		case 0:
			if err := Send(r, w, 1, 7, []byte("hello")); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			m, err := Recv(r, w, 0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = m.Data
			if m.SrcRank != 0 || m.Tag != 7 {
				t.Errorf("bad envelope: src=%d tag=%d", m.SrcRank, m.Tag)
			}
		}
	})
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestMessageOrderNonOvertaking(t *testing.T) {
	var order []int
	runJob(t, 2, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			// A large message followed by a small one: the small one must
			// not overtake despite shorter transfer time.
			Send(r, w, 1, 1, make([]byte, 1<<20))
			Send(r, w, 1, 1, []byte{42})
		} else {
			for i := 0; i < 2; i++ {
				m, err := Recv(r, w, 0, 1)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				order = append(order, len(m.Data))
			}
		}
	})
	if len(order) != 2 || order[0] != 1<<20 || order[1] != 1 {
		t.Fatalf("order = %v, want [1048576 1]", order)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	seen := map[int]bool{}
	runJob(t, 4, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			for i := 0; i < 3; i++ {
				m, err := Recv(r, w, AnySource, AnyTag)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				seen[m.SrcRank] = true
			}
		} else {
			Send(r, w, 0, 100+r.Rank(w), []byte{byte(r.Rank(w))})
		}
	})
	if len(seen) != 3 {
		t.Fatalf("saw senders %v, want 3 distinct", seen)
	}
}

func TestRecvTagSelectivity(t *testing.T) {
	runJob(t, 2, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			Send(r, w, 1, 5, []byte("five"))
			Send(r, w, 1, 6, []byte("six"))
		} else {
			m6, err := Recv(r, w, 0, 6) // out of arrival order, by tag
			if err != nil || string(m6.Data) != "six" {
				t.Errorf("tag 6: %v %q", err, m6.Data)
				return
			}
			m5, err := Recv(r, w, 0, 5)
			if err != nil || string(m5.Data) != "five" {
				t.Errorf("tag 5: %v %q", err, m5.Data)
			}
		}
	})
}

func TestIprobe(t *testing.T) {
	runJob(t, 2, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			Send(r, w, 1, 9, []byte("x"))
		} else {
			if Iprobe(r, w, 0, 9) {
				t.Error("probe true before arrival possible at t=0")
			}
			r.Sim().Sleep(simnet.Second) // let it arrive
			if !Iprobe(r, w, 0, 9) {
				t.Error("probe false after arrival")
			}
			Recv(r, w, 0, 9)
			if Iprobe(r, w, 0, 9) {
				t.Error("probe true after consuming")
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	after := make([]simnet.Time, 4)
	runJob(t, 4, func(r *Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		r.Sim().Sleep(simnet.Time(me) * simnet.Millisecond) // skewed arrival
		if err := Barrier(r, w); err != nil {
			t.Errorf("barrier: %v", err)
		}
		after[me] = r.Now()
	})
	// Everyone leaves the barrier no earlier than the last arrival (3ms).
	for i, tm := range after {
		if tm < 3*simnet.Millisecond {
			t.Fatalf("rank %d left barrier at %v, before last arrival", i, tm)
		}
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for root := 0; root < 5; root++ {
		got := make([][]byte, 5)
		runJob(t, 5, func(r *Rank) {
			w := r.Job().World()
			var in []byte
			if r.Rank(w) == root {
				in = []byte{byte(root) * 11, 7}
			}
			out, err := Bcast(r, w, root, in)
			if err != nil {
				t.Errorf("bcast: %v", err)
				return
			}
			got[r.Rank(w)] = out
		})
		for i, v := range got {
			if len(v) != 2 || v[0] != byte(root)*11 || v[1] != 7 {
				t.Fatalf("root %d: rank %d got %v", root, i, v)
			}
		}
	}
}

func TestAllreduceOps(t *testing.T) {
	n := 6
	tests := []struct {
		op   Op
		want float64
	}{
		{OpSum, 15}, {OpMax, 5}, {OpMin, 0}, {OpProd, 0},
	}
	for _, tc := range tests {
		results := make([]float64, n)
		runJob(t, n, func(r *Rank) {
			w := r.Job().World()
			v, err := AllreduceF64Scalar(r, w, float64(r.Rank(w)), tc.op)
			if err != nil {
				t.Errorf("%v: %v", tc.op, err)
				return
			}
			results[r.Rank(w)] = v
		})
		for i, v := range results {
			if v != tc.want {
				t.Fatalf("op %v rank %d = %v, want %v", tc.op, i, v, tc.want)
			}
		}
	}
}

func TestAllreduceI64Bitwise(t *testing.T) {
	n := 4
	vals := []int64{0b1111, 0b1101, 0b0111, 0b0101}
	ands := make([]int64, n)
	ors := make([]int64, n)
	runJob(t, n, func(r *Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		a, err := AllreduceI64Scalar(r, w, vals[me], OpBAnd)
		if err != nil {
			t.Errorf("band: %v", err)
		}
		o, err := AllreduceI64Scalar(r, w, vals[me], OpBOr)
		if err != nil {
			t.Errorf("bor: %v", err)
		}
		ands[me], ors[me] = a, o
	})
	for i := 0; i < n; i++ {
		if ands[i] != 0b0101 || ors[i] != 0b1111 {
			t.Fatalf("rank %d: and=%b or=%b", i, ands[i], ors[i])
		}
	}
}

func TestGathervAndAllgatherv(t *testing.T) {
	n := 5
	all := make([][][]byte, n)
	runJob(t, n, func(r *Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		payload := make([]byte, me+1) // variable sizes
		for i := range payload {
			payload[i] = byte(me)
		}
		out, err := Allgatherv(r, w, payload)
		if err != nil {
			t.Errorf("allgatherv: %v", err)
			return
		}
		all[me] = out
	})
	for me := 0; me < n; me++ {
		for i := 0; i < n; i++ {
			if len(all[me][i]) != i+1 || all[me][i][0] != byte(i) {
				t.Fatalf("rank %d slot %d = %v", me, i, all[me][i])
			}
		}
	}
}

// Property: Allreduce(sum) over random vectors equals the serial sum on
// every rank.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		k := 1 + rng.Intn(8)
		vecs := make([][]float64, n)
		want := make([]float64, k)
		for i := range vecs {
			vecs[i] = make([]float64, k)
			for j := range vecs[i] {
				vecs[i][j] = float64(rng.Intn(1000))
				want[j] += vecs[i][j]
			}
		}
		pass := true
		c := simnet.NewCluster(simnet.Config{Nodes: 2})
		j := Launch(c, n, 0, func(r *Rank) {
			w := r.Job().World()
			out, err := AllreduceF64(r, w, vecs[r.Rank(w)], OpSum)
			if err != nil {
				pass = false
				return
			}
			for i := range want {
				if math.Abs(out[i]-want[i]) > 1e-9 {
					pass = false
				}
			}
		})
		c.Run()
		_ = j
		return pass
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRecvFromFailedHangsUntilDetected(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	var recvErr error
	done := false
	j := Launch(c, 2, 0, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			r.Sim().Sleep(10 * simnet.Millisecond)
			r.Die()
		} else {
			_, recvErr = Recv(r, w, 0, 1)
			done = true
		}
	})
	c.Run()
	if done {
		t.Fatal("recv returned before failure detection")
	}
	// A failure detector notices and marks the failure; the blocked recv
	// must now fail with ErrProcFailed.
	j.MarkDetected(j.World().Member(0).GID())
	c.Run()
	if !done {
		t.Fatal("recv still blocked after detection")
	}
	if !errors.Is(recvErr, ErrProcFailed) {
		t.Fatalf("err = %v, want ErrProcFailed", recvErr)
	}
}

func TestSendToDetectedFailedErrors(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	var sendErr error
	j := Launch(c, 2, 0, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			r.Die()
		} else {
			r.Sim().Sleep(simnet.Millisecond)
			r.Job().MarkDetected(w.Member(0).GID())
			sendErr = Send(r, w, 0, 1, []byte("x"))
		}
	})
	c.Run()
	_ = j
	if !errors.Is(sendErr, ErrProcFailed) {
		t.Fatalf("err = %v, want ErrProcFailed", sendErr)
	}
}

func TestRevokeInterruptsBlockedRecv(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	var recvErr error
	j := Launch(c, 2, 0, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			r.Sim().Sleep(5 * simnet.Millisecond)
			w.Revoke()
			// Our own subsequent ops fail too.
			if err := Send(r, w, 1, 1, nil); !errors.Is(err, ErrRevoked) {
				t.Errorf("send on revoked = %v", err)
			}
		} else {
			_, recvErr = Recv(r, w, 0, 99)
		}
	})
	c.Run()
	_ = j
	if !errors.Is(recvErr, ErrRevoked) {
		t.Fatalf("err = %v, want ErrRevoked", recvErr)
	}
}

func TestEpochBumpFlushesInflight(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	delivered := false
	j := Launch(c, 2, 0, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			Send(r, w, 1, 1, make([]byte, 1<<20)) // slow message
		} else {
			r.Sim().Sleep(10 * simnet.Second)
			delivered = Iprobe(r, w, 0, 1)
		}
	})
	// Bump the epoch after the send is posted but before the 1 MiB message
	// lands (transfer takes ~100 µs at 10 GB/s).
	c.Scheduler().At(10*simnet.Microsecond, func() { j.BumpEpoch() })
	c.Run()
	if delivered {
		t.Fatal("stale-epoch message was delivered")
	}
}

func TestAbortKillsJob(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	finished := 0
	j := Launch(c, 4, 0, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			r.Sim().Sleep(simnet.Millisecond)
			r.Job().Abort()
			return
		}
		r.Sim().Sleep(simnet.Second)
		finished++
	})
	c.Run()
	if finished != 0 {
		t.Fatalf("%d ranks survived abort", finished)
	}
	if !j.Aborted() {
		t.Fatal("job not marked aborted")
	}
}

func TestPerOpOverheadCharged(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	var elapsed simnet.Time
	j := Launch(c, 2, 0, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			start := r.Now()
			Send(r, w, 1, 1, []byte("x"))
			elapsed = r.Now() - start
		} else {
			Recv(r, w, 0, 1)
		}
	})
	j.PerOpOverhead = simnet.Millisecond
	c.Run()
	if elapsed < simnet.Millisecond {
		t.Fatalf("send took %v, want >= 1ms per-op overhead", elapsed)
	}
}

func TestStealChargedAtNextOp(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	var elapsed simnet.Time
	j := Launch(c, 2, 0, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			r.Job().Steal(r.Process().GID(), 7*simnet.Millisecond)
			start := r.Now()
			Send(r, w, 1, 1, nil)
			elapsed = r.Now() - start
		} else {
			Recv(r, w, 0, 1)
		}
	})
	_ = j
	c.Run()
	if elapsed < 7*simnet.Millisecond {
		t.Fatalf("stolen time not charged: %v", elapsed)
	}
}

func TestStatsCounted(t *testing.T) {
	j := runJob(t, 2, func(r *Rank) {
		w := r.Job().World()
		if r.Rank(w) == 0 {
			Send(r, w, 1, 1, make([]byte, 100))
		} else {
			Recv(r, w, 0, 1)
		}
	})
	if j.Stats.Messages != 1 || j.Stats.Bytes != 100 {
		t.Fatalf("stats = %+v", j.Stats)
	}
}

func TestEncRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		got := enc.BytesToFloat64s(enc.Float64sToBytes(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v []int64) bool {
		got := enc.BytesToInt64s(enc.Int64sToBytes(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// Gids are dense from 0 in AddProcess order, and MarkFailed and Steal
// ignore a gid the job never issued.
func TestJobGIDsDenseUnknownIgnored(t *testing.T) {
	j := NewJob(simnet.NewCluster(simnet.Config{Nodes: 1}))
	a, b := j.AddProcess(0), j.AddProcess(0)
	if a.GID() != 0 || b.GID() != 1 {
		t.Fatalf("gids %d, %d; want 0, 1", a.GID(), b.GID())
	}
	for _, gid := range []int{-1, 2, 1 << 40} {
		j.MarkFailed(gid)
		j.Steal(gid, simnet.Millisecond)
	}
	j.MarkFailed(1)
	if a.Failed() || !b.Failed() {
		t.Fatalf("failed %v, %v; want false, true", a.Failed(), b.Failed())
	}
}

// A process Start runs is failed once its node fails: the node loss kills
// the simnet process Start recorded before the body ran, and the kill
// marks the MPI process failed. This holds for a process started after
// launch on a job's own node, like a relaunched or respawned rank, as for
// one Launch started; its neighbour on a live node runs to the end.
func TestStartedProcessFailsWithItsNode(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	j := Launch(c, 2, 0, func(r *Rank) { r.Compute(simnet.Second) })
	repl := j.AddProcess(1)
	j.Start(repl, simnet.Millisecond, func(r *Rank) error {
		r.Compute(simnet.Second)
		return nil
	})
	if repl.SimProc() == nil {
		t.Fatal("Start did not record the simnet process before the body ran")
	}
	c.Scheduler().At(10*simnet.Millisecond, func() { c.FailNode(1) })
	c.Run()
	if !repl.Failed() || !j.World().Member(1).Failed() {
		t.Fatalf("failed = %v (started late), %v (launched); want both failed with node 1",
			repl.Failed(), j.World().Member(1).Failed())
	}
	if p := j.World().Member(0); p.Failed() || !p.Completed() {
		t.Fatalf("rank 0 on live node 0: failed = %v, completed = %v; want completed", p.Failed(), p.Completed())
	}
}

// Start decides how a rank ended, once: a main that returns nil completed,
// one that returns an error neither completed nor failed and has its error
// in Job.Errs, in the order mains return, and a killed one failed. A rank
// is running from Start on, also inside its start delay; a process only
// added, like a virtual hot spare, is neither running nor failed until
// MarkFailed.
func TestStartRecordsHowARankEnded(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 1})
	j := NewJob(c)
	ok, late, early, killed := j.AddProcess(0), j.AddProcess(0), j.AddProcess(0), j.AddProcess(0)
	delayed, spare, lostSpare := j.AddProcess(0), j.AddProcess(0), j.AddProcess(0)
	errLate, errEarly := errors.New("late"), errors.New("early")
	returns := func(after simnet.Time, err error) func(*Rank) error {
		return func(r *Rank) error {
			r.Compute(after)
			return err
		}
	}
	// Started in this order, the two errors return in the other.
	j.Start(ok, 0, returns(simnet.Second, nil))
	j.Start(late, 0, returns(3*simnet.Second, errLate))
	j.Start(early, 0, returns(2*simnet.Second, errEarly))
	j.Start(killed, 0, returns(4*simnet.Second, nil))
	c.Scheduler().At(simnet.Second/2, func() { killed.SimProc().Kill() })
	j.Start(delayed, 10*simnet.Second, returns(0, nil))
	j.MarkFailed(lostSpare.GID())
	// Every end is decided at 5 s; delayed is inside its start delay.
	c.Scheduler().At(5*simnet.Second, func() {
		for _, tc := range []struct {
			name                       string
			p                          *Process
			running, completed, failed bool
		}{
			{"nil", ok, false, true, false},
			{"late error", late, false, false, false},
			{"early error", early, false, false, false},
			{"kill", killed, false, false, true},
			{"start delay", delayed, true, false, false},
			{"never started", spare, false, false, false},
			{"never started, MarkFailed", lostSpare, false, false, true},
		} {
			if tc.p.Running() != tc.running || tc.p.Completed() != tc.completed || tc.p.Failed() != tc.failed {
				t.Errorf("%s: running = %v, completed = %v, failed = %v; want %v, %v, %v", tc.name,
					tc.p.Running(), tc.p.Completed(), tc.p.Failed(), tc.running, tc.completed, tc.failed)
			}
		}
	})
	c.Run()
	if errs := j.Errs(); len(errs) != 2 || errs[0] != errEarly || errs[1] != errLate {
		t.Fatalf("Errs() = %v, want [early late]", errs)
	}
	if !delayed.Completed() {
		t.Fatal("the delayed rank did not complete after its start delay")
	}
}

// A process added on a dead node lands on the cluster's LiveNode for it.
func TestAddProcessAvoidsDeadNode(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 3})
	j := NewJob(c)
	c.FailNode(2)
	if got := j.AddProcess(1).NodeID(); got != 1 {
		t.Fatalf("process on live node 1 placed on %d", got)
	}
	if got, want := j.AddProcess(2).NodeID(), c.LiveNode(2); got != want || want != 0 {
		t.Fatalf("process on dead node 2 placed on %d, want LiveNode(2) = %d = 0", got, want)
	}
}
