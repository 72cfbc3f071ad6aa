package proxdisc

import (
	"testing"
	"time"
)

// TestPublicSimulation runs the full simulated protocol.
func TestPublicSimulation(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{
		Topology: TopologyConfig{
			CoreRouters: 300, LeafRouters: 300, EdgesPerNode: 2, Seed: 5,
		},
		NumLandmarks: 4,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.JoinN(100); err != nil {
		t.Fatal(err)
	}
	q, err := sim.EvaluateQuality(30)
	if err != nil {
		t.Fatal(err)
	}
	if q.DOverDclosest() < 1.0 || q.DOverDclosest() > 2.0 {
		t.Fatalf("D/Dclosest=%v", q.DOverDclosest())
	}
}

// TestPublicNetworkStack runs server + landmark + agent end to end on
// loopback through the public API only.
func TestPublicNetworkStack(t *testing.T) {
	logic, err := NewCluster(ClusterConfig{Landmarks: []RouterID{0}})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := ListenLandmark("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	ns, err := ListenAndServe(NetServerConfig{
		Addr:          "127.0.0.1:0",
		Server:        logic,
		LandmarkAddrs: map[RouterID]string{0: lm.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	join := func(peer int64, edge RouterID) []WireCandidate {
		c, err := Dial(ns.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		agent := &Agent{
			Client: c,
			Provider: PathProviderFunc(func(landmark int32) ([]int32, error) {
				return []int32{int32(edge), 50, landmark}, nil
			}),
			ProbeTries:   1,
			ProbeTimeout: time.Second,
		}
		cands, err := agent.Join(peer)
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}
	if got := join(1, 30); len(got) != 0 {
		t.Fatalf("first joiner got %v", got)
	}
	got := join(2, 31)
	if len(got) != 1 || got[0].Peer != 1 {
		t.Fatalf("second joiner got %v", got)
	}
}

// TestPublicCluster exercises the sharded management cluster through the
// public API: the same answers from four shards as from one, and every peer
// answerable.
func TestPublicCluster(t *testing.T) {
	landmarks := []RouterID{0, 100, 200, 300}
	c, err := NewCluster(ClusterConfig{Landmarks: landmarks, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCluster(ClusterConfig{Landmarks: landmarks})
	if err != nil {
		t.Fatal(err)
	}
	paths := [][]RouterID{
		{10, 11, 0}, {12, 11, 0}, {20, 21, 100}, {22, 21, 100}, {30, 200}, {40, 300},
	}
	for i, path := range paths {
		p := PeerID(i + 1)
		a, errA := s.Join(p, path)
		b, errB := c.Join(p, path)
		if errA != nil || errB != nil {
			t.Fatalf("join %d: %v / %v", p, errA, errB)
		}
		if len(a) != len(b) {
			t.Fatalf("join %d: answers differ: %v vs %v", p, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("join %d: answers differ at %d: %v vs %v", p, j, a, b)
			}
		}
	}
	if c.NumPeers() != s.NumPeers() {
		t.Fatalf("4-shard peers=%d 1-shard peers=%d", c.NumPeers(), s.NumPeers())
	}
	for i := range paths {
		if _, err := c.Lookup(PeerID(i + 1)); err != nil {
			t.Fatalf("lookup %d: %v", i+1, err)
		}
	}
}

// TestPublicShardedSimulation runs a small simulation over the sharded
// management plane.
func TestPublicShardedSimulation(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{
		Topology:     TopologyConfig{CoreRouters: 200, LeafRouters: 200, EdgesPerNode: 2, Seed: 5},
		NumLandmarks: 4,
		Shards:       4,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.JoinN(40); err != nil {
		t.Fatal(err)
	}
	if got := sim.Server.NumPeers(); got != 40 {
		t.Fatalf("peers=%d", got)
	}
}
