package netserver

import (
	"reflect"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// TestRestartServesAcknowledgedStateOverTCP is the wire-level durability
// contract: peers join (with overlay addresses) through a TCP front end
// backed by a durable cluster, the whole node crashes (no flush, no final
// snapshot), and a restarted node — fresh netserver, cluster reopened
// from the data directory — answers lookups with the identical candidate
// lists including the dialable addresses, which only survive because join
// ops carry them into the WAL.
func TestRestartServesAcknowledgedStateOverTCP(t *testing.T) {
	dir := t.TempDir()
	lms := []topology.NodeID{0, 100}
	newLogic := func() *cluster.Cluster {
		t.Helper()
		logic, err := cluster.New(cluster.Config{Landmarks: lms, Shards: 2, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return logic
	}
	logic := newLogic()
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	joins := []struct {
		peer int64
		addr string
		path []int32
	}{
		{1, "10.0.0.1:41", []int32{10, 0}},
		{2, "10.0.0.2:41", []int32{11, 10, 0}},
		{3, "10.0.0.3:41", []int32{210, 100}},
		{4, "10.0.0.4:41", []int32{211, 210, 100}},
	}
	for _, j := range joins {
		if _, err := c.Join(j.peer, j.addr, j.path); err != nil {
			t.Fatalf("join %d: %v", j.peer, err)
		}
	}
	want := make(map[int64][]proto.Candidate)
	for _, j := range joins {
		cands, err := c.Lookup(j.peer)
		if err != nil {
			t.Fatalf("lookup %d: %v", j.peer, err)
		}
		want[j.peer] = cands
	}
	c.Close()
	ns.Close()
	// Crash the backend: the cluster is abandoned without Close, so
	// recovery runs purely from the WAL tail.
	logic = nil

	relogic := newLogic()
	defer relogic.Close()
	ns2, err := Listen(Config{Addr: "127.0.0.1:0", Server: relogic})
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	c2, err := client.Dial(ns2.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, j := range joins {
		cands, err := c2.Lookup(j.peer)
		if err != nil {
			t.Fatalf("lookup %d after restart: %v", j.peer, err)
		}
		if !reflect.DeepEqual(cands, want[j.peer]) {
			t.Errorf("lookup %d after restart:\n want %+v\n got  %+v", j.peer, want[j.peer], cands)
		}
		for _, cand := range cands {
			if cand.Addr == "" {
				t.Errorf("lookup %d: candidate %d lost its overlay address across the restart", j.peer, cand.Peer)
			}
		}
	}
}
