package storage

import (
	"errors"
	"testing"

	"match/internal/simnet"
)

func withProc(t *testing.T, nodes int, body func(c *simnet.Cluster, s *System, p *simnet.Proc)) {
	t.Helper()
	c := simnet.NewCluster(simnet.Config{Nodes: nodes})
	s := New(c, Config{})
	c.StartProc(0, 0, func(p *simnet.Proc) { body(c, s, p) })
	c.Run()
}

func TestWriteReadRoundTrip(t *testing.T) {
	withProc(t, 2, func(c *simnet.Cluster, s *System, p *simnet.Proc) {
		for _, tier := range []Tier{RAMFS, PFS} {
			if err := s.Write(p, tier, 0, "a/b", []byte("payload")); err != nil {
				t.Errorf("%v write: %v", tier, err)
				continue
			}
			got, err := s.Read(p, tier, 0, "a/b")
			if err != nil || string(got) != "payload" {
				t.Errorf("%v read: %q %v", tier, got, err)
			}
			if !s.Exists(tier, 0, "a/b") {
				t.Errorf("%v exists false", tier)
			}
			if s.Size(tier, 0, "a/b") != 7 {
				t.Errorf("%v size = %d", tier, s.Size(tier, 0, "a/b"))
			}
			s.Delete(tier, 0, "a/b")
			if _, err := s.Read(p, tier, 0, "a/b"); !errors.Is(err, ErrNotFound) {
				t.Errorf("%v read-after-delete: %v", tier, err)
			}
		}
	})
}

// Written bytes belong to the store: every write keeps the caller's
// backing array, and every read returns it, with no copy on either side.
func TestWriteKeepsCallerBuffer(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	s := New(c, Config{})
	c.StartProc(0, 0, func(p *simnet.Proc) {
		same := func(what string, got, want []byte) {
			t.Helper()
			if len(got) != len(want) || &got[0] != &want[0] {
				t.Errorf("%s returned a copy, not the written slice", what)
			}
		}
		for _, tier := range []Tier{RAMFS, PFS} {
			buf := []byte{1, 2, 3}
			s.Write(p, tier, 0, "x", buf)
			got, err := s.Read(p, tier, 0, "x")
			if err != nil {
				t.Fatalf("%v read: %v", tier, err)
			}
			same(tier.String()+" Write/Read", got, buf)
			free := []byte{4, 5}
			s.WriteFree(tier, 0, "free", free)
			got, _ = s.Read(p, tier, 0, "free")
			same(tier.String()+" WriteFree/Read", got, free)
		}
		remote := []byte{6, 7, 8, 9}
		if err := s.WriteRemote(p, RAMFS, 0, 1, "remote", remote); err != nil {
			t.Fatalf("remote write: %v", err)
		}
		got, err := s.ReadRemote(p, RAMFS, 1, 0, "remote")
		if err != nil {
			t.Fatalf("remote read: %v", err)
		}
		same("WriteRemote/ReadRemote", got, remote)
	})
	c.Run()
}

func TestTierSpeedOrdering(t *testing.T) {
	withProc(t, 1, func(c *simnet.Cluster, s *System, p *simnet.Proc) {
		data := make([]byte, 1<<20)
		times := map[Tier]simnet.Time{}
		for _, tier := range []Tier{RAMFS, PFS} {
			t0 := p.Now()
			s.Write(p, tier, 0, "f", data)
			times[tier] = p.Now() - t0
		}
		if times[RAMFS] >= times[PFS] {
			t.Errorf("ramfs %v not faster than pfs %v", times[RAMFS], times[PFS])
		}
	})
}

func TestPFSContention(t *testing.T) {
	// Two procs flushing 10 MB each at the same instant: the second finishes
	// roughly twice as late as a lone writer would.
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	s := New(c, Config{})
	var done []simnet.Time
	for i := 0; i < 2; i++ {
		i := i
		c.StartProc(i, 0, func(p *simnet.Proc) {
			s.Write(p, PFS, i, "big", make([]byte, 10<<20))
			done = append(done, p.Now())
		})
	}
	c.Run()
	if len(done) != 2 {
		t.Fatal("procs did not finish")
	}
	first, second := done[0], done[1]
	if second < first {
		first, second = second, first
	}
	// 10 MB at the 20 GB/s aggregate takes 500 µs; the loser queues behind
	// the winner for one full transfer.
	xfer := simnet.Time(float64(10<<20) / pfsBWBps * 1e9)
	if second-first < xfer*9/10 {
		t.Errorf("no PFS contention: first %v second %v (xfer %v)", first, second, xfer)
	}
}

func TestNodeFailureLosesLocalTiers(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	s := New(c, Config{})
	c.StartProc(0, 0, func(p *simnet.Proc) {
		s.Write(p, RAMFS, 0, "r", []byte("x"))
		s.Write(p, PFS, 0, "p", []byte("x"))
	})
	c.Run()
	c.FailNode(0)
	c.StartProc(1, 0, func(p *simnet.Proc) {
		if _, err := s.Read(p, RAMFS, 0, "r"); !errors.Is(err, ErrNodeDown) {
			t.Errorf("ramfs on dead node: %v", err)
		}
		if _, err := s.Read(p, PFS, 1, "p"); err != nil {
			t.Errorf("pfs should survive node failure: %v", err)
		}
	})
	c.Run()
}

func TestRemoteWriteAndRead(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	s := New(c, Config{})
	c.StartProc(0, 0, func(p *simnet.Proc) {
		t0 := p.Now()
		if err := s.WriteRemote(p, RAMFS, 0, 1, "remote", make([]byte, 1<<20)); err != nil {
			t.Errorf("remote write: %v", err)
		}
		remoteCost := p.Now() - t0
		t1 := p.Now()
		s.Write(p, RAMFS, 0, "local", make([]byte, 1<<20))
		localCost := p.Now() - t1
		if remoteCost <= localCost {
			t.Errorf("remote write %v not slower than local %v", remoteCost, localCost)
		}
		got, err := s.ReadRemote(p, RAMFS, 1, 0, "remote")
		if err != nil || len(got) != 1<<20 {
			t.Errorf("remote read: %v len=%d", err, len(got))
		}
	})
	c.Run()
}

func TestList(t *testing.T) {
	withProc(t, 1, func(c *simnet.Cluster, s *System, p *simnet.Proc) {
		s.Write(p, RAMFS, 0, "dir/a", nil)
		s.Write(p, RAMFS, 0, "dir/b", nil)
		s.Write(p, RAMFS, 0, "other/c", nil)
		got := s.List(RAMFS, 0, "dir/")
		if len(got) != 2 || got[0] != "dir/a" || got[1] != "dir/b" {
			t.Errorf("list = %v", got)
		}
	})
}

func TestWriteFreeChargesNothing(t *testing.T) {
	withProc(t, 1, func(c *simnet.Cluster, s *System, p *simnet.Proc) {
		t0 := p.Now()
		s.WriteFree(PFS, 0, "free", make([]byte, 1<<24))
		if p.Now() != t0 {
			t.Error("WriteFree charged time")
		}
		if s.Size(PFS, 0, "free") != 1<<24 {
			t.Error("WriteFree did not store data")
		}
	})
}

// A deferred file costs what a written file of its size costs, to write
// and to read, on every tier; until it is read it is listed, sized and
// found without running its fill.
func TestWriteDeferredChargesLikeWrite(t *testing.T) {
	withProc(t, 1, func(c *simnet.Cluster, s *System, p *simnet.Proc) {
		const size = 3 << 20
		for _, tier := range []Tier{RAMFS, PFS} {
			t0 := p.Now()
			s.Write(p, tier, 0, "plain", make([]byte, size))
			wrote := p.Now() - t0
			calls := 0
			t0 = p.Now()
			s.WriteDeferred(p, tier, 0, "dir/deferred", size, func() []byte { calls++; return make([]byte, size) })
			if got := p.Now() - t0; got != wrote {
				t.Errorf("%v: WriteDeferred charged %v, Write of the same size %v", tier, got, wrote)
			}
			if !s.Exists(tier, 0, "dir/deferred") || s.Size(tier, 0, "dir/deferred") != size {
				t.Errorf("%v: deferred file exists=%v size=%d, want true and %d", tier,
					s.Exists(tier, 0, "dir/deferred"), s.Size(tier, 0, "dir/deferred"), size)
			}
			if got := s.List(tier, 0, "dir/"); len(got) != 1 || got[0] != "dir/deferred" {
				t.Errorf("%v: list = %v", tier, got)
			}
			if calls != 0 {
				t.Errorf("%v: Exists, Size or List ran the fill %d times", tier, calls)
			}
			t0 = p.Now()
			s.Read(p, tier, 0, "plain")
			read := p.Now() - t0
			t0 = p.Now()
			s.Read(p, tier, 0, "dir/deferred")
			if got := p.Now() - t0; got != read {
				t.Errorf("%v: reading the deferred file charged %v, the written one %v", tier, got, read)
			}
			s.Delete(tier, 0, "plain")
			s.Delete(tier, 0, "dir/deferred")
		}
	})
}

// The first Read or ReadRemote of a deferred file runs its fill once;
// every later read returns the same backing array without running it.
func TestDeferredFileFillsOnceOnFirstRead(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	s := New(c, Config{})
	c.StartProc(0, 0, func(p *simnet.Proc) {
		local := func(tier Tier) ([]byte, error) { return s.Read(p, tier, 1, "d") }
		remote := func(tier Tier) ([]byte, error) { return s.ReadRemote(p, tier, 1, 0, "d") }
		for _, tier := range []Tier{RAMFS, PFS} {
			for _, order := range [][2]func(Tier) ([]byte, error){{local, remote}, {remote, local}} {
				want := []byte{1, 2, 3, 4}
				calls := 0
				s.WriteDeferred(p, tier, 1, "d", len(want), func() []byte { calls++; return want })
				for _, read := range []func(Tier) ([]byte, error){order[0], order[1], order[0]} {
					got, err := read(tier)
					if err != nil || len(got) != len(want) || &got[0] != &want[0] {
						t.Errorf("%v: read returned %v, %v; want the fill's own slice", tier, got, err)
					}
				}
				if calls != 1 {
					t.Errorf("%v: three reads ran the fill %d times, want 1", tier, calls)
				}
			}
		}
	})
	c.Run()
}

// A deferred file that is deleted, overwritten or lost with its node
// before anyone reads it never runs its fill.
func TestDeferredFileUnreadNeverFills(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 2})
	s := New(c, Config{})
	calls := 0
	fill := func() []byte { calls++; return []byte{9} }
	c.StartProc(1, 0, func(p *simnet.Proc) {
		for _, tier := range []Tier{RAMFS, PFS} {
			s.WriteDeferred(p, tier, 0, "deleted", 1, fill)
			s.Delete(tier, 0, "deleted")
			if _, err := s.Read(p, tier, 0, "deleted"); !errors.Is(err, ErrNotFound) {
				t.Errorf("%v read-after-delete: %v", tier, err)
			}
			s.WriteDeferred(p, tier, 0, "over", 1, fill)
			s.Write(p, tier, 0, "over", []byte{7})
			if got, err := s.Read(p, tier, 0, "over"); err != nil || string(got) != "\x07" {
				t.Errorf("%v read-after-overwrite: %v %v", tier, got, err)
			}
		}
		s.WriteDeferred(p, RAMFS, 0, "lost", 1, fill)
	})
	c.Run()
	c.FailNode(0)
	c.StartProc(1, 0, func(p *simnet.Proc) {
		if _, err := s.Read(p, RAMFS, 0, "lost"); !errors.Is(err, ErrNodeDown) {
			t.Errorf("read on dead node: %v", err)
		}
		if _, err := s.ReadRemote(p, RAMFS, 0, 1, "lost"); !errors.Is(err, ErrNodeDown) {
			t.Errorf("remote read from dead node: %v", err)
		}
	})
	c.Run()
	if calls != 0 {
		t.Errorf("unread deferred files ran their fill %d times", calls)
	}
}
