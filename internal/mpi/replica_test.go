package mpi

import (
	"testing"

	"match/internal/simnet"
)

// launchReplicated starts n logical ranks, each backed by degree replicas
// (primary on node rank%nodes, twins offset by half the cluster), running
// body with (rank handle, replica world, logical rank, replica index).
func launchReplicated(c *simnet.Cluster, n, degree int, body func(*Rank, *Comm, int, int)) *Job {
	j := NewJob(c)
	groups := make([][]*Process, n)
	for i := 0; i < n; i++ {
		groups[i] = []*Process{j.AddProcess(i % c.NumNodes())}
	}
	for k := 1; k < degree; k++ {
		for i := 0; i < n; i++ {
			groups[i] = append(groups[i], j.AddProcess((i+c.NumNodes()/2)%c.NumNodes()))
		}
	}
	world := j.NewReplicaComm(groups)
	j.SetWorld(world)
	for i := 0; i < n; i++ {
		for k, p := range groups[i] {
			i, k := i, k
			j.Start(p, 0, func(r *Rank) error {
				body(r, world, i, k)
				return nil
			})
		}
	}
	return j
}

// Duplication and suppression: every replica of the sender transmits one
// copy per destination replica, and each receiver accepts exactly one copy
// of every logical message.
func TestReplicaSendDuplicatesAndSuppresses(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	got := make(map[int][]string) // receiving gid -> payloads in order
	j := launchReplicated(c, 2, 2, func(r *Rank, w *Comm, rank, idx int) {
		if rank == 0 {
			for _, pay := range []string{"a", "b"} {
				if err := Send(r, w, 1, 7, []byte(pay)); err != nil {
					t.Errorf("send: %v", err)
				}
			}
			return
		}
		for i := 0; i < 2; i++ {
			m, err := Recv(r, w, 0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if m.SrcRank != 0 {
				t.Errorf("SrcRank = %d, want logical 0", m.SrcRank)
			}
			got[r.Process().GID()] = append(got[r.Process().GID()], string(m.Data))
		}
	})
	c.Run()
	// 2 sender replicas x 2 receiver replicas x 2 messages = 8 copies.
	if j.Stats.Messages != 8 {
		t.Errorf("physical messages = %d, want 8", j.Stats.Messages)
	}
	// Each receiver suppressed one duplicate per logical message.
	if j.Stats.Suppressed != 4 {
		t.Errorf("suppressed = %d, want 4", j.Stats.Suppressed)
	}
	for gid, msgs := range got {
		if len(msgs) != 2 || msgs[0] != "a" || msgs[1] != "b" {
			t.Errorf("gid %d received %v, want [a b]", gid, msgs)
		}
	}
	if len(got) != 2 {
		t.Errorf("receivers = %d, want both replicas of rank 1", len(got))
	}
}

// A collective over a replica communicator must complete on every replica
// with the logical-world result, including after one replica dies mid-run.
func TestReplicaCollectiveSurvivesReplicaDeath(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	const n = 4
	results := make(map[int]float64)
	launchReplicated(c, n, 2, func(r *Rank, w *Comm, rank, idx int) {
		for round := 0; round < 3; round++ {
			if round == 1 && rank == 2 && idx == 0 {
				r.Die() // kill one replica between collectives
			}
			sum, err := AllreduceF64Scalar(r, w, float64(rank+1), OpSum)
			if err != nil {
				t.Errorf("rank %d replica %d round %d: %v", rank, idx, round, err)
				return
			}
			if sum != 10 { // 1+2+3+4
				t.Errorf("rank %d replica %d round %d: sum = %v, want 10", rank, idx, round, sum)
			}
		}
		results[r.Process().GID()] = float64(rank)
	})
	c.Run()
	if len(results) != 2*n-1 {
		t.Fatalf("finishers = %d, want %d (all but the killed replica)", len(results), 2*n-1)
	}
}

// Partial replication: unreplicated ranks (group size 1) interoperate with
// replicated ones on the same communicator.
func TestReplicaPartialGroups(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	j := NewJob(c)
	groups := [][]*Process{
		{j.AddProcess(0), j.AddProcess(2)}, // rank 0 replicated
		{j.AddProcess(1)},                  // rank 1 not
	}
	world := j.NewReplicaComm(groups)
	j.SetWorld(world)
	sums := make(map[int]float64)
	for i, g := range groups {
		for _, p := range g {
			i, p := i, p
			j.Start(p, 0, func(r *Rank) error {
				sum, err := AllreduceF64Scalar(r, world, float64(i+1), OpSum)
				if err != nil {
					return err
				}
				sums[p.GID()] = sum
				return nil
			})
		}
	}
	c.Run()
	for _, err := range j.Errs() {
		t.Errorf("rank error: %v", err)
	}
	if len(sums) != 3 {
		t.Fatalf("finishers = %d, want 3", len(sums))
	}
	for gid, s := range sums {
		if s != 3 {
			t.Errorf("gid %d: sum = %v, want 3", gid, s)
		}
	}
	if world.ReplicaDegree(0) != 2 || world.ReplicaDegree(1) != 1 {
		t.Errorf("degrees = %d,%d want 2,1", world.ReplicaDegree(0), world.ReplicaDegree(1))
	}
}

// PruneReplica must stop the duplication onto a removed member, and
// PromoteLeader must repoint Member() at a survivor.
func TestReplicaPruneAndPromote(t *testing.T) {
	c := simnet.NewCluster(simnet.Config{Nodes: 4})
	j := NewJob(c)
	groups := [][]*Process{
		{j.AddProcess(0)},
		{j.AddProcess(1), j.AddProcess(3)},
	}
	world := j.NewReplicaComm(groups)
	j.SetWorld(world)
	primary := groups[1][0]
	shadow := groups[1][1]
	if world.Member(1) != primary {
		t.Fatal("initial leader is not the primary")
	}
	j.MarkFailed(primary.GID())
	world.PruneReplica(primary.GID())
	world.PromoteLeader(1)
	if world.Member(1) != shadow {
		t.Fatal("leader not promoted to the shadow")
	}
	if d := world.ReplicaDegree(1); d != 1 {
		t.Fatalf("degree after prune = %d, want 1", d)
	}
	if world.ReplicaIndexOf(shadow.GID()) != 1 {
		t.Fatal("replica identity must be stable across promotion")
	}
}
