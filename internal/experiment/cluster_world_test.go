package experiment

import (
	"reflect"
	"testing"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

func clusterWorldConfig(seed int64, shards int) WorldConfig {
	return WorldConfig{
		Topology: topology.Config{
			Model:        topology.ModelBarabasiAlbert,
			CoreRouters:  400,
			LeafRouters:  400,
			EdgesPerNode: 2,
			Seed:         seed,
		},
		NumLandmarks: 8,
		Shards:       shards,
		Seed:         seed,
	}
}

// TestShardedWorldMatchesSingleServer drives the full two-round protocol —
// topology, landmark probing, traceroute, join — through a 4-shard cluster
// and a single server over the same world, and requires identical join
// answers and identical k-closest query answers for every peer.
func TestShardedWorldMatchesSingleServer(t *testing.T) {
	w1, err := BuildWorld(clusterWorldConfig(42, 0))
	if err != nil {
		t.Fatal(err)
	}
	w4, err := BuildWorld(clusterWorldConfig(42, 4))
	if err != nil {
		t.Fatal(err)
	}
	if w1.Server.NumShards() != 1 || w4.Server.NumShards() != 4 {
		t.Fatalf("worlds run %d and %d shards, want 1 and 4", w1.Server.NumShards(), w4.Server.NumShards())
	}
	// Identical seeds give identical attachment sequences; join peers in
	// lockstep and compare every answer.
	const peers = 120
	if len(w1.LeafPool) < peers || !reflect.DeepEqual(w1.LeafPool, w4.LeafPool) {
		t.Fatal("worlds diverged before any join")
	}
	for i := 0; i < peers; i++ {
		p := pathtree.PeerID(i + 1)
		att := w1.LeafPool[i]
		a, err := w1.JoinPeer(p, att)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w4.JoinPeer(p, att)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("join %d answers differ:\nsingle  %+v\nsharded %+v", p, a, b)
		}
	}
	if w1.Server.NumPeers() != w4.Server.NumPeers() {
		t.Fatalf("peers: single=%d sharded=%d", w1.Server.NumPeers(), w4.Server.NumPeers())
	}
	for _, p := range w1.Server.Peers() {
		a, err := w1.Server.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w4.Server.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("lookup %d answers differ:\nsingle  %+v\nsharded %+v", p, a, b)
		}
	}
	// The evaluation pipeline must agree too (same sampled peers, same
	// scores), so every experiment is valid over the sharded path.
	q1, err := w1.EvaluateQuality(60)
	if err != nil {
		t.Fatal(err)
	}
	q4, err := w4.EvaluateQuality(60)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q4 {
		t.Fatalf("quality diverged: single=%+v sharded=%+v", q1, q4)
	}
}
