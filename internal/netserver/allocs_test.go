package netserver

import (
	"fmt"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// TestLookupRoadAllocs pins what one lookup allocates end to end, both sides
// counted: a client Lookup over loopback against a NetServer fronting a
// cluster. The server allocates nothing: the backend writes the answer into
// a pooled answer block, and the response is encoded from the block into a
// pooled buffer. Two allocations are left, the client's: its decoded slice
// and the one string it copies the addresses into. The budget of 4 leaves
// room for a stray allocation of the runtime's, not for a copy of the
// answer.
func TestLookupRoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	clu, err := cluster.New(cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 40; i++ {
		if _, err := c.Join(int64(i), fmt.Sprintf("10.0.%d.%d:7000", i/8, i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if cands, err := c.Lookup(3); err != nil || len(cands) == 0 {
			t.Fatalf("lookup: %v, %v", cands, err)
		}
	})
	t.Logf("%.2f allocations per lookup, client and server together", allocs)
	if allocs > 4 {
		t.Errorf("%.2f allocations per lookup, want ≤ 4", allocs)
	}
}

// TestBatchRoadAllocs pins what the server side of one batch join
// allocates: the request decoded into a pooled op, the entries grouped by
// shard in pooled scratch, their answers written into a pooled answer
// block and the response encoded from it into a pooled buffer. One
// allocation is left, the string of the request's addresses, so a batch
// of 8 entries costs what one of 32 does; the budget of 4 leaves room for
// a stray allocation of the runtime's, not for one per entry. The peers
// re-join where they are, so the trees' pools grow nothing.
func TestBatchRoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	clu, err := cluster.New(cluster.Config{Landmarks: benchLandmarks, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	batch := func(first, n int) []byte {
		m := &proto.BatchJoinRequest{}
		for p := first; p < first+n; p++ {
			m.Joins = append(m.Joins, proto.JoinRequest{Peer: int64(p), Addr: fmt.Sprintf("10.0.%d.%d:7000", p/250, p%250), Path: benchPathFor(int64(p))})
		}
		b, err := proto.EncodeBatchJoinRequest(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serve := func(payload []byte) {
		typ, resp := ns.handleReq(proto.MsgBatchJoinRequest, payload)
		if typ != proto.MsgBatchJoinResponse {
			t.Fatalf("batch answered with message type %v", typ)
		}
		proto.PutBuf(resp)
	}
	for p := 1; p <= 2000; p += proto.MaxBatch {
		serve(batch(p, proto.MaxBatch))
	}
	allocs := make(map[int]float64)
	for _, n := range []int{8, proto.MaxBatch} {
		payload := batch(100, n)
		allocs[n] = testing.AllocsPerRun(200, func() { serve(payload) })
		t.Logf("%.2f allocations per batch of %d joins, server side", allocs[n], n)
	}
	if allocs[8] != allocs[proto.MaxBatch] || allocs[proto.MaxBatch] > 4 {
		t.Errorf("a batch of 8 joins allocates %v times and one of %d %v, want the same and ≤ 4",
			allocs[8], proto.MaxBatch, allocs[proto.MaxBatch])
	}
}
