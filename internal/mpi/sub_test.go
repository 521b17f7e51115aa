package mpi

import (
	"errors"
	"slices"
	"testing"

	"match/internal/simnet"
)

// Sub is memoized on its parent: every member asking for the same ranks
// gets the same communicator and context, ranked from lo, and it works as
// a communicator of its own.
func TestSubIsMemoized(t *testing.T) {
	subs := make([]*Comm, 8)
	runJob(t, 8, func(r *Rank) {
		w := r.Job().World()
		me := r.Rank(w)
		lo := me - me%4
		s := w.Sub(lo, lo+4)
		if again := w.Sub(lo, lo+4); again != s || again.Ctx() != s.Ctx() {
			t.Errorf("rank %d: Sub(%d, %d) twice gave two communicators", me, lo, lo+4)
		}
		if got := r.Rank(s); got != me-lo || s.Size() != 4 {
			t.Errorf("rank %d: rank %d of %d in its sub, want %d of 4", me, got, s.Size(), me-lo)
		}
		subs[me] = s
		all, err := Allgatherv(r, s, []byte{byte(me)})
		if err != nil {
			t.Errorf("rank %d: allgather on sub: %v", me, err)
			return
		}
		var got []byte
		for _, b := range all {
			got = append(got, b...)
		}
		if want := []byte{byte(lo), byte(lo + 1), byte(lo + 2), byte(lo + 3)}; !slices.Equal(got, want) {
			t.Errorf("rank %d: allgather on sub = %v, want %v", me, got, want)
		}
	})
	for i, s := range subs {
		if s != subs[i-i%4] {
			t.Errorf("rank %d got another communicator than rank %d", i, i-i%4)
		}
	}
	if subs[0].Ctx() == subs[4].Ctx() {
		t.Errorf("two groups share context %d", subs[0].Ctx())
	}
}

// Revoking a communicator interrupts a rank blocked on one derived from it,
// and a communicator derived after the revoke starts revoked.
func TestRevokeReachesSub(t *testing.T) {
	var recvErr error
	runJob(t, 4, func(r *Rank) {
		w := r.Job().World()
		switch r.Rank(w) {
		case 0:
			w.Sub(0, 2) // derive it before rank 1 blocks on it
			r.Sim().Sleep(simnet.Second)
			w.Revoke()
			if s := w.Sub(2, 4); !s.Revoked() {
				t.Error("sub derived from a revoked communicator is not revoked")
			}
		case 1:
			_, recvErr = Recv(r, w.Sub(0, 2), 0, 7) // rank 0 never sends
		}
	})
	if !errors.Is(recvErr, ErrRevoked) {
		t.Fatalf("recv blocked on the sub returned %v, want ErrRevoked", recvErr)
	}
}

// A sub of a replica communicator is replica-aware, and the replica
// runtime's membership changes on the parent show in it: a pruned replica
// leaves the child's group, a promoted leader is the child's member, an
// added replica is mapped to its rank in the child that covers it only.
func TestSubOfReplicaCommIsAView(t *testing.T) {
	j := NewJob(simnet.NewCluster(simnet.Config{Nodes: 4}))
	groups := make([][]*Process, 4)
	for i := range groups {
		groups[i] = []*Process{j.AddProcess(i), j.AddProcess(i)}
	}
	w := j.NewReplicaComm(groups)
	s, other := w.Sub(2, 4), w.Sub(0, 2)
	if !s.Replicated() || s.Size() != 2 {
		t.Fatalf("sub: replicated %v, size %d; want true, 2", s.Replicated(), s.Size())
	}
	for k, p := range groups[3] {
		if got := s.RankOf(p.GID()); got != 1 {
			t.Errorf("replica %d of world rank 3: sub rank %d, want 1", k, got)
		}
	}
	if got := s.RankOf(groups[0][0].GID()); got != -1 {
		t.Errorf("world rank 0 has sub rank %d, want -1", got)
	}

	primary, twin := groups[2][0], groups[2][1]
	j.MarkFailed(primary.GID())
	w.PruneReplica(primary.GID())
	w.PromoteLeader(2)
	if g := s.ReplicaGroup(0); len(g) != 1 || g[0] != twin {
		t.Errorf("sub group after prune = %v, want the twin only", g)
	}
	if s.Member(0) != twin || s.Leaders()[0] != twin {
		t.Errorf("sub leader after promotion is gid %d, want the twin's %d", s.Member(0).GID(), twin.GID())
	}

	spare := j.AddProcess(3)
	w.AddReplica(3, spare, 2)
	if g := s.ReplicaGroup(1); len(g) != 3 || g[2] != spare {
		t.Errorf("sub group after add = %v, want the spare last", g)
	}
	if got := s.RankOf(spare.GID()); got != 1 {
		t.Errorf("spare's sub rank = %d, want 1", got)
	}
	if got := s.ReplicaIndexOf(spare.GID()); got != 2 {
		t.Errorf("spare's replica index in the sub = %d, want 2", got)
	}
	if got := other.RankOf(spare.GID()); got != -1 {
		t.Errorf("spare has rank %d in the sub not covering it, want -1", got)
	}
	if w.Size() != 4 || len(w.ReplicaGroup(3)) != 3 {
		t.Errorf("world changed shape: size %d, group 3 %v", w.Size(), w.ReplicaGroup(3))
	}
}
