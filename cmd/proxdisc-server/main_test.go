package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"proxdisc/internal/cluster"
	"proxdisc/internal/netserver"
	"proxdisc/internal/topology"
)

// TestFollowConflict pins what -follow refuses beside it: a data directory,
// which would otherwise be dropped without a word for a follower that keeps
// its copy in memory.
func TestFollowConflict(t *testing.T) {
	if err := followConflict(""); err != nil {
		t.Fatalf("-follow without -data-dir refused: %v", err)
	}
	if err := followConflict("/var/lib/proxdisc"); err == nil || !strings.Contains(err.Error(), "drop -data-dir") {
		t.Fatalf("-follow beside -data-dir: %v, want an error saying \"drop -data-dir\"", err)
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

// TestPrimaryLandmarks: a follower starts only with its primary's
// landmarks, in any order and over any shard count, and otherwise fails
// naming both sets; a primary it cannot reach fails the check.
func TestPrimaryLandmarks(t *testing.T) {
	clu, err := cluster.New(cluster.Config{Landmarks: []topology.NodeID{0, 100, 200}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := netserver.Listen(netserver.Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if err := primaryLandmarks(ns.Addr(), []topology.NodeID{200, 0, 100}, 5*time.Second); err != nil {
		t.Fatalf("the primary's landmarks in another order refused: %v", err)
	}
	for _, lms := range [][]topology.NodeID{{0, 100}, {0, 100, 300}, {0, 100, 200, 300}} {
		err := primaryLandmarks(ns.Addr(), lms, 5*time.Second)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(lms)) || !strings.Contains(err.Error(), "[0 100 200]") {
			t.Fatalf("-landmarks %v beside a primary of [0 100 200]: %v, want an error naming both", lms, err)
		}
	}
	if err := primaryLandmarks("127.0.0.1:1", []topology.NodeID{0}, time.Second); err == nil {
		t.Fatal("a check against an address nothing listens on passed")
	}
}
