package netserver

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// committed reads every record a durable cluster has committed, in order.
func committed(t *testing.T, clu *cluster.Cluster) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := clu.ReadCommitted(0, func(_ uint64, rec []byte) error {
		recs = append(recs, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSingleJoinIsBatchOfOne pins the one join road: a single join over the
// wire leaves what a batch of that one join leaves. Two durable nodes on
// one fixed clock take the same joins — peers that join, re-join under the
// other shard's landmark, and one refused for its landmark — one node as
// Join, the other as JoinBatch of one item. Their answers and the bytes of
// every committed record must be equal, and each record is a one-entry
// KindBatchJoin.
func TestSingleJoinIsBatchOfOne(t *testing.T) {
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	dial := func() (*cluster.Cluster, *client.Client) {
		clu := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2,
			DataDir: t.TempDir(), NoSync: true, Clock: clock})
		ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		c, err := client.Dial(ns.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return clu, c
	}
	singleNode, single := dial()
	batchNode, batched := dial()

	var items []client.BatchItem
	for p := int64(1); p <= 12; p++ {
		items = append(items, client.BatchItem{Peer: p, Addr: fmt.Sprintf("10.0.0.%d:7000", p), Path: []int32{int32(1000 + p), int32(10 + p%3), 0}})
	}
	for p := int64(2); p <= 12; p += 3 { // re-join under the other shard's landmark
		items = append(items, client.BatchItem{Peer: p, Addr: fmt.Sprintf("10.0.1.%d:7000", p), Path: []int32{int32(2000 + p), 100}})
	}
	items = append(items, client.BatchItem{Peer: 50, Addr: "10.0.2.50:7000", Path: []int32{7, 999}}) // no such landmark
	for _, it := range items {
		want, wantErr := single.Join(it.Peer, it.Addr, it.Path)
		res, err := batched.JoinBatch([]client.BatchItem{it})
		if err != nil {
			t.Fatalf("peer %d: batch of one: %v", it.Peer, err)
		}
		got, gotErr := res[0].Neighbors, res[0].Err
		if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("peer %d: a batch of one answers %v, %v; a single join %v, %v", it.Peer, got, gotErr, want, wantErr)
		}
	}
	want, got := committed(t, singleNode), committed(t, batchNode)
	if len(want) != len(items)-1 {
		t.Fatalf("%d records committed for %d accepted joins", len(want), len(items)-1)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the batches of one committed other records than the single joins")
	}
	for i, rec := range want {
		o, err := op.Decode(rec)
		if err != nil || o.Kind != op.KindBatchJoin || len(o.Batch) != 1 {
			t.Fatalf("record %d: %+v, %v: want a one-entry batch join", i, o, err)
		}
	}
}

// TestJoinRecordRecoversAndFollows: a log holding a KindJoin record — what
// builds with a single-join road wrote, and what an in-process Apply of a
// join still writes — recovers, and a follower applies it.
func TestJoinRecordRecoversAndFollows(t *testing.T) {
	cfg := cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2, DataDir: t.TempDir(), NoSync: true}
	primary, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close() // after the reopen below, which finds no checkpoint of it
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: primary})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if err := primary.Apply(op.Join(1, []topology.NodeID{10, 11, 0}, "10.0.0.1:7000", 0)); err != nil {
		t.Fatal(err)
	}
	if err := primary.Apply(op.Join(2, []topology.NodeID{20, 100}, "10.0.0.2:7000", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.JoinOp(op.Join(3, []topology.NodeID{12, 11, 0}, "10.0.0.3:7000", 0)); err != nil {
		t.Fatal(err)
	}
	var kinds []op.Kind
	for _, rec := range committed(t, primary) {
		o, err := op.Decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, o.Kind)
	}
	if want := []op.Kind{op.KindJoin, op.KindJoin, op.KindBatchJoin}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("committed kinds %v, want %v", kinds, want)
	}

	copyOf := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}})
	f := newFollowerNode(t, ns.Addr(), 0, copyOf)
	defer f.Close()
	waitApplied(t, f, primary)
	assertSameSnapshot(t, primary, copyOf)

	// As after a crash: the primary is not closed, so it wrote no
	// checkpoint, and the reopened node replays the log.
	recovered, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer recovered.Close()
	assertSameSnapshot(t, primary, recovered)
	for p := pathtree.PeerID(1); p <= 3; p++ {
		if info, err := recovered.PeerInfo(p); err != nil || info.Addr != fmt.Sprintf("10.0.0.%d:7000", p) {
			t.Fatalf("recovered peer %d: %+v, %v", p, info, err)
		}
	}
}
