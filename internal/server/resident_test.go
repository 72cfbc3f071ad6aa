package server

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"proxdisc/internal/loadgen"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// residentLandmarks is the benchmark's landmark set.
var residentLandmarks = []topology.NodeID{0, 1, 2, 3}

// residentJoin is peer i's join as the benchmark's load generator would
// send it: a TreePath under one of four landmarks and an overlay address.
func residentJoin(i int) op.Op {
	raw := loadgen.TreePath(int32(i%len(residentLandmarks)), i)
	path := make([]topology.NodeID, len(raw))
	for j, r := range raw {
		path[j] = topology.NodeID(r)
	}
	return op.Join(pathtree.PeerID(i+1), path, fmt.Sprintf("10.%d.%d.%d:9000", i>>16&255, i>>8&255, i&255), 0)
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerPeer pins what a resident peer costs: the live heap a
// server holds for 50 000 peers with addresses, divided by the peers. Each
// join is built inside the loop and dropped, so what stays is what the
// server owns, its copy of the address included. The budget is the measured
// 119.7 B plus 4 %; the package comment has the table. With 32-byte trie
// nodes, each counting the peers below it, it read 130.9; before the address
// pool, when a record held its address as a string of its own, 151.
func TestResidentBytesPerPeer(t *testing.T) {
	const peers, budget = 50_000, 125
	base := heapAlloc()
	s, err := New(Config{Landmarks: residentLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		if _, err := s.JoinOp(residentJoin(i)); err != nil {
			t.Fatal(err)
		}
	}
	perPeer := float64(heapAlloc()-base) / peers
	t.Logf("%.1f B of live heap per resident peer", perPeer)
	if perPeer > budget {
		t.Errorf("%.1f B per resident peer, want ≤ %d", perPeer, budget)
	}
	runtime.KeepAlive(s)
}

// TestIndexBytesPerEntry measures the live heap of the 64-stripe Index per
// entry, filled with sequential peer IDs as the resident tests fill it, at
// 50 000 entries and at 178 000, the benchmark's flash_crowd end state: the
// figure a flat, open-addressed index would be sized against. A map grows by
// doubling, so the figure depends on where a fill stops between growths; the
// pin is loose.
func TestIndexBytesPerEntry(t *testing.T) {
	const budget = 30
	for _, n := range []int{50_000, 178_000} {
		base := heapAlloc()
		x := NewIndex()
		for p := 1; p <= n; p++ {
			x.swap(pathtree.PeerID(p), ref{lm: topology.NodeID(p % 4), slot: int32(p / 4)})
		}
		perEntry := float64(heapAlloc()-base) / float64(n)
		t.Logf("%d entries: %.1f B of live heap per entry", n, perEntry)
		if perEntry > budget {
			t.Errorf("%d entries: %.1f B per entry, want ≤ %d", n, perEntry, budget)
		}
		runtime.KeepAlive(x)
	}
}

// TestAnsweredJoinAllocs pins what an answered join allocates once the
// slabs are warm: the peer re-joins under the path it already holds, so its
// record, trie nodes, child runs and address run all come back from the free
// lists. What is left is two allocations: the answer slice, and the one
// string the answer's addresses are copied out of the trees into.
func TestAnsweredJoinAllocs(t *testing.T) {
	s, err := New(Config{Landmarks: residentLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := s.JoinOp(residentJoin(i)); err != nil {
			t.Fatal(err)
		}
	}
	o := residentJoin(777)
	allocs := testing.AllocsPerRun(200, func() {
		if cands, err := s.JoinOp(o); err != nil || len(cands) != DefaultNeighborCount {
			t.Fatalf("join: %v, %v", cands, err)
		}
	})
	t.Logf("%.0f allocations per answered join", allocs)
	if allocs > 2 {
		t.Errorf("%.0f allocations per answered join into warm slabs, want ≤ 2", allocs)
	}
}

// TestSnapshotAllocsPerTree pins that a snapshot allocates per tree, not per
// peer: writing out 50 000 peers over four landmarks takes fewer than 1 000
// allocations — the walks' path blocks, one address block per tree, the
// sorted image and the encoder's buffers.
func TestSnapshotAllocsPerTree(t *testing.T) {
	const peers = 50_000
	s, err := New(Config{Landmarks: residentLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		if _, err := s.JoinOp(residentJoin(i)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := s.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per snapshot of %d peers", allocs, peers)
	if allocs >= 1000 {
		t.Errorf("%.0f allocations per snapshot of %d peers, want < 1 000", allocs, peers)
	}
}
