package server

import (
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

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

// heapBytes reads the heap after two collections: HeapAlloc, the bytes of the
// live objects, and HeapInuse, the bytes of the spans that hold them, which is
// what the benchmark's bytes_per_peer divides.
func heapBytes() (alloc, inuse int64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc), int64(ms.HeapInuse)
}

// TestResidentBytesPerPeer pins what a resident peer costs: the live heap a
// server holds for 50 000 peers with addresses, divided by the peers. Each
// join is built inside the loop and dropped, so what stays is what the
// server owns, its copy of the address included. The budget is the measured
// 97.2 B plus 3 %; the package comment has the table.
func TestResidentBytesPerPeer(t *testing.T) {
	const peers, budget = 50_000, 100
	base, _ := heapBytes()
	s, err := New(Config{Landmarks: residentLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		if _, err := s.JoinOp(residentJoin(i)); err != nil {
			t.Fatal(err)
		}
	}
	live, _ := heapBytes()
	perPeer := float64(live-base) / peers
	t.Logf("%.1f B of live heap per resident peer", perPeer)
	if perPeer > budget {
		t.Errorf("%.1f B per resident peer, want ≤ %d", perPeer, budget)
	}
	runtime.KeepAlive(s)
}

// TestIndexBytesPerEntry pins the heap the 64-stripe Index takes per entry,
// filled with sequential peer IDs as the resident tests fill it, on both
// bases: HeapAlloc and HeapInuse. Where a fill stops between two rebuilds
// decides the load, so the pin is taken at 50 000 entries, at 178 000 (the
// benchmark's flash_crowd end state), and over fills from 40 000 to 1 000 000
// in 5 % steps, worst and mean. HeapInuse has looser budgets than HeapAlloc
// at the two points and at the worst fill: the hashes are seeded, so how many
// stripes have rebuilt their tables by a given fill, leaving spans of the old
// tables' size class part-used, changes from run to run. On the way it logs
// how long each stripe's latest rebuild took, median and longest, which is
// how long a growth stalls that stripe's readers.
func TestIndexBytesPerEntry(t *testing.T) {
	const sweepMean = 23
	pinned, sweepWorst := [2]float64{22, 26}, [2]float64{28, 30} // HeapAlloc, HeapInuse
	if IndexSlotBytes != 16 {
		t.Fatalf("an index slot is %d bytes, want 16", IndexSlotBytes)
	}
	stops := []int{50_000, 178_000, 1_000_000}
	for n := 40_000.0; n < 1_000_000; n *= 1.05 {
		stops = append(stops, int(n))
	}
	slices.Sort(stops)
	baseAlloc, baseInuse := heapBytes()
	x := NewIndex()
	var worst, sum [2]float64
	swept := 0
	rebuilt := make(map[*indexStripe]time.Duration) // each stripe's latest rebuild
	p := 0
	for _, n := range stops {
		for ; p < n; p++ {
			id := pathtree.PeerID(p + 1)
			s := x.stripe(x.key(id))
			size, start := len(s.slots), time.Now()
			x.swap(id, ref{lm: topology.NodeID(p % 4), slot: int32(p / 4)})
			if len(s.slots) != size {
				rebuilt[s] = time.Since(start)
			}
		}
		alloc, inuse := heapBytes()
		perEntry := [2]float64{float64(alloc-baseAlloc) / float64(n), float64(inuse-baseInuse) / float64(n)}
		switch n {
		case 50_000, 178_000:
			t.Logf("%d entries: %.1f B of HeapAlloc, %.1f B of HeapInuse per entry", n, perEntry[0], perEntry[1])
			if perEntry[0] > pinned[0] || perEntry[1] > pinned[1] {
				t.Errorf("%d entries: %.1f / %.1f B per entry, want ≤ %g / %g", n, perEntry[0], perEntry[1], pinned[0], pinned[1])
			}
		default:
			swept++
			for i, b := range perEntry {
				worst[i], sum[i] = max(worst[i], b), sum[i]+b
			}
		}
		if n == 178_000 || n == 1_000_000 {
			wave := slices.Sorted(maps.Values(rebuilt))
			t.Logf("each stripe's latest rebuild up to %d entries: median %v, longest %v", n, wave[len(wave)/2], wave[len(wave)-1])
		}
	}
	for i, basis := range []string{"HeapAlloc", "HeapInuse"} {
		mean := sum[i] / float64(swept)
		t.Logf("%d fills from 40 000 to 1 000 000: %s per entry worst %.1f B, mean %.1f B", swept, basis, worst[i], mean)
		if worst[i] > sweepWorst[i] || mean > sweepMean {
			t.Errorf("%s per entry over the sweep: worst %.1f B, mean %.1f B, want ≤ %g and ≤ %d", basis, worst[i], mean, sweepWorst[i], sweepMean)
		}
	}
	runtime.KeepAlive(x)
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
// peer: writing out 50 000 peers over four landmarks takes fewer than 80
// allocations — the walks' path blocks, one address block per tree, the
// sorted image and the encoder's buffers. It reads 49; an address block
// left unsized, which grows by doubling, reads 145.
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
		if err := WriteSnapshot(io.Discard, s); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per snapshot of %d peers", allocs, peers)
	if allocs >= 80 {
		t.Errorf("%.0f allocations per snapshot of %d peers, want < 80", allocs, peers)
	}
}
