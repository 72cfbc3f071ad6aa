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

// TestBatchRoadAllocs pins what the server side of a join allocates, one
// join or a batch: the request decoded into a pooled op, the entries
// grouped by shard in pooled scratch, their answers written into a pooled
// answer block and the response encoded from it into a pooled buffer. One
// allocation is left, the string of the request's addresses, so a batch
// of 8 entries costs what one of 32 does, and a single join what a batch
// does; the budget of 4 leaves room for a stray allocation of the
// runtime's, not for one per entry. A durable node (NoSync) costs what an
// in-memory one does: the op is encoded into a pooled buffer and framed
// in the log's write buffer. The peers re-join where they are, so the
// trees' pools grow nothing.
func TestBatchRoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	join := func(p int) proto.JoinRequest {
		return proto.JoinRequest{Peer: int64(p), Addr: fmt.Sprintf("10.0.%d.%d:7000", p/250, p%250), Path: benchPathFor(int64(p))}
	}
	batch := func(first, n int) []byte {
		m := &proto.BatchJoinRequest{}
		for p := first; p < first+n; p++ {
			m.Joins = append(m.Joins, join(p))
		}
		b, err := proto.EncodeBatchJoinRequest(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	single := join(100)
	one, err := proto.AppendJoinRequest(nil, &single)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name      string
		typ, want proto.MsgType
		payload   []byte
	}{
		{"batch of 8 joins", proto.MsgBatchJoinRequest, proto.MsgBatchJoinResponse, batch(100, 8)},
		{fmt.Sprintf("batch of %d joins", proto.MaxBatch), proto.MsgBatchJoinRequest, proto.MsgBatchJoinResponse, batch(100, proto.MaxBatch)},
		{"single join", proto.MsgJoinRequest, proto.MsgJoinResponse, one},
	}
	arms := []struct {
		name string
		cfg  cluster.Config
	}{
		{"in memory", cluster.Config{Landmarks: benchLandmarks, Shards: 4}},
		{"durable", cluster.Config{Landmarks: benchLandmarks, Shards: 4, DataDir: t.TempDir(), NoSync: true}},
	}
	var first []float64 // the in-memory arm's
	for _, arm := range arms {
		clu, err := cluster.New(arm.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer clu.Close()
		ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
		if err != nil {
			t.Fatal(err)
		}
		defer ns.Close()
		serve := func(typ, want proto.MsgType, payload []byte) {
			got, resp := ns.handleReq(typ, payload)
			if got != want {
				t.Fatalf("%s: %v answered with message type %v", arm.name, typ, got)
			}
			proto.PutBuf(resp)
		}
		for p := 1; p <= 2000; p += proto.MaxBatch {
			serve(proto.MsgBatchJoinRequest, proto.MsgBatchJoinResponse, batch(p, proto.MaxBatch))
		}
		allocs := make([]float64, len(inputs))
		for i, in := range inputs {
			allocs[i] = testing.AllocsPerRun(200, func() { serve(in.typ, in.want, in.payload) })
			t.Logf("%s: %.2f allocations per %s, server side", arm.name, allocs[i], in.name)
		}
		if first == nil {
			first = allocs
		}
		for i, in := range inputs {
			if allocs[i] != allocs[0] || allocs[i] > 4 {
				t.Errorf("%s: a %s allocates %v times and a %s %v, want the same and ≤ 4", arm.name, in.name, allocs[i], inputs[0].name, allocs[0])
			}
			if allocs[i] != first[i] {
				t.Errorf("a %s allocates %v times on a %s node and %v %s, want the same", in.name, allocs[i], arm.name, first[i], arms[0].name)
			}
		}
	}
}
