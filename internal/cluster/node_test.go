package cluster

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// included. The budget is the measured 115.6 B — what
// server.TestResidentBytesPerPeer measures for a lone server, because a node
// holds one peer index, not one per shard and another above them — plus
// 3 %.
func TestNodeResidentBytesPerPeer(t *testing.T) {
	const peers, budget = 50_000, 119
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

// TestMoveLandmarkMovesNoPeers pins that a handoff hands over a tree, not
// its peers: moving a landmark of 100 000 peers takes no longer (within 3×)
// and allocates no more than moving one of 1 000; every peer's index entry
// is bit for bit what it was; and a lookup racing the moves is answered —
// before the tree goes, or re-routed after — never refused.
func TestMoveLandmarkMovesNoPeers(t *testing.T) {
	small, large := testLandmarks[0], testLandmarks[1] // shards 0 and 1 of 4
	c := newTestCluster(t, 4)
	populations := map[topology.NodeID]int{small: 1_000, large: 100_000}
	p := pathtree.PeerID(0)
	for lm, n := range populations {
		for i := 0; i < n; i++ {
			p++
			if _, err := c.Join(p, synthPath(lm, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	type place struct {
		lm   topology.NodeID
		slot int32
	}
	before := make(map[pathtree.PeerID]place, p)
	for q := pathtree.PeerID(1); q <= p; q++ {
		lm, slot, ok := c.idx.Load().Place(q)
		if !ok {
			t.Fatalf("peer %d not indexed", q)
		}
		before[q] = place{lm, slot}
	}

	// bounce moves lm to the shard two on and back.
	bounce := func(lm topology.NodeID) {
		home, _ := c.ShardFor(lm)
		for _, dst := range []int{(home + 2) % 4, home} {
			if err := c.MoveLandmark(lm, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stop atomic.Bool
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for q := pathtree.PeerID(1 + g); !stop.Load(); q = q%p + 1 {
				if _, err := c.Lookup(q); err != nil {
					t.Errorf("lookup %d beside a move: %v", q, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		bounce(small)
		bounce(large)
	}
	stop.Store(true)
	readers.Wait()

	// Timed and counted with nothing beside them.
	median := func(lm topology.NodeID) time.Duration {
		var took []time.Duration
		for i := 0; i < 15; i++ {
			start := time.Now()
			for j := 0; j < 20; j++ {
				bounce(lm)
			}
			took = append(took, time.Since(start))
		}
		slices.Sort(took)
		return took[len(took)/2]
	}
	tSmall, tLarge := median(small), median(large)
	aSmall := testing.AllocsPerRun(10, func() { bounce(small) })
	aLarge := testing.AllocsPerRun(10, func() { bounce(large) })
	t.Logf("20 bounces of 1 000 peers: %v, %.0f allocs each; of 100 000 peers: %v, %.0f allocs each", tSmall, aSmall, tLarge, aLarge)
	if tLarge > 3*tSmall {
		t.Errorf("moving 100 000 peers took %v, 1 000 peers %v: more than 3× apart", tLarge, tSmall)
	}
	if aSmall != aLarge {
		t.Errorf("moving 100 000 peers allocates %.0f times, 1 000 peers %.0f", aLarge, aSmall)
	}
	for q, was := range before {
		if lm, slot, ok := c.idx.Load().Place(q); !ok || (place{lm, slot}) != was {
			t.Fatalf("peer %d's index entry is %d/%d (%v) after the moves, was %d/%d", q, lm, slot, ok, was.lm, was.slot)
		}
	}
	if err := checkIndex(c); err != nil {
		t.Fatal(err)
	}
}
