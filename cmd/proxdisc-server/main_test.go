package main

import (
	"strings"
	"testing"
	"time"

	"proxdisc/internal/cluster"
	"proxdisc/internal/netserver"
	"proxdisc/internal/topology"
)

// TestFollowConflict pins what -follow refuses beside it: more than one
// shard, which the primary supplies, and a data directory, which would
// otherwise be dropped without a word for a follower that keeps its copy in
// memory.
func TestFollowConflict(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		dataDir string
		want    string
	}{
		{1, "", ""},
		{4, "", "shard count from the primary"},
		{1, "/var/lib/proxdisc", "drop -data-dir"},
		{2, "/var/lib/proxdisc", "drop -shards"},
	} {
		err := followConflict(tc.shards, tc.dataDir)
		if tc.want == "" {
			if err != nil {
				t.Fatalf("-shards %d -data-dir %q refused: %v", tc.shards, tc.dataDir, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("-shards %d -data-dir %q: %v, want an error saying %q", tc.shards, tc.dataDir, err, tc.want)
		}
	}
}

// TestShardsBeyondLandmarks pins that a primary refuses more shards than
// landmarks, naming both counts, and takes up to one shard per landmark.
func TestShardsBeyondLandmarks(t *testing.T) {
	for _, shards := range []int{1, 3} {
		if err := shardsBeyondLandmarks(shards, 3); err != nil {
			t.Fatalf("-shards %d beside 3 landmarks refused: %v", shards, err)
		}
	}
	err := shardsBeyondLandmarks(4, 3)
	if err == nil || !strings.Contains(err.Error(), "-shards 4") || !strings.Contains(err.Error(), "3 landmarks") {
		t.Fatalf("-shards 4 beside 3 landmarks: %v, want an error naming both counts", err)
	}
}

// TestPrimaryShards: a follower learns its shard count from the primary's
// status answer, and a primary it cannot reach fails the probe.
func TestPrimaryShards(t *testing.T) {
	for _, shards := range []int{1, 3} {
		clu, err := cluster.New(cluster.Config{Landmarks: []topology.NodeID{0, 100, 200}, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ns, err := netserver.Listen(netserver.Config{Addr: "127.0.0.1:0", Server: clu})
		if err != nil {
			t.Fatal(err)
		}
		got, err := primaryShards(ns.Addr(), 5*time.Second)
		ns.Close()
		if err != nil || got != shards {
			t.Fatalf("probe of a %d-shard primary: %d, %v", shards, got, err)
		}
	}
	if _, err := primaryShards("127.0.0.1:1", time.Second); err == nil {
		t.Fatal("probe of an address nothing listens on succeeded")
	}
}
