package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"proxdisc/internal/loadgen"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNodeResidentBytesPerPeer pins what a resident peer costs a whole node:
// the live heap a 4-shard cluster holds for 50 000 loadgen.TreePath peers
// with addresses, divided by the peers. Each join is built inside the loop
// and dropped, so what stays is what the node owns, its copy of the address
// included. The budget is the measured 96.5 B — within a byte of what
// server.TestResidentBytesPerPeer measures for a lone server, because a node
// holds one peer index, not one per shard and another above them — plus
// 3 %.
func TestNodeResidentBytesPerPeer(t *testing.T) {
	const peers, budget = 50_000, 100
	lms := []topology.NodeID{0, 1, 2, 3}
	base := heapAlloc()
	c, err := New(Config{Landmarks: lms, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		raw := loadgen.TreePath(int32(i%len(lms)), i)
		path := make([]topology.NodeID, len(raw))
		for j, r := range raw {
			path[j] = topology.NodeID(r)
		}
		addr := fmt.Sprintf("10.%d.%d.%d:9000", i>>16&255, i>>8&255, i&255)
		if _, err := c.JoinOp(op.Join(pathtree.PeerID(i+1), path, addr, 0)); err != nil {
			t.Fatal(err)
		}
	}
	perPeer := float64(heapAlloc()-base) / peers
	t.Logf("%.1f B of live heap per resident peer", perPeer)
	if perPeer > budget {
		t.Errorf("%.1f B per resident peer, want ≤ %d", perPeer, budget)
	}
	runtime.KeepAlive(c)
}
