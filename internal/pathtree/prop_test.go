package pathtree

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// pathSet is a quick.Generator producing a random population of valid
// peer→landmark paths: random-depth walks through a bounded router ID
// space, duplicate-free within each path, all ending at the landmark.
type pathSet struct {
	paths map[PeerID][]topology.NodeID
	seed  int64
}

const propLandmark topology.NodeID = 0

// Generate implements quick.Generator.
func (pathSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := 2 + r.Intn(size+30)
	ps := pathSet{paths: make(map[PeerID][]topology.NodeID, n), seed: r.Int63()}
	for i := 0; i < n; i++ {
		depth := 1 + r.Intn(10)
		path := make([]topology.NodeID, 0, depth+1)
		used := map[topology.NodeID]bool{propLandmark: true}
		// Walk "up" from a random leaf: IDs shrink toward the landmark so
		// paths share suffixes the way routes funnel through edge routers.
		id := topology.NodeID(1 + r.Intn(500))
		for d := 0; d < depth && !used[id]; d++ {
			path = append(path, id)
			used[id] = true
			id = 1 + id/topology.NodeID(2+r.Intn(3))
		}
		if len(path) == 0 {
			path = append(path, topology.NodeID(1000+i))
		}
		ps.paths[PeerID(i+1)] = append(path, propLandmark)
	}
	return reflect.ValueOf(ps)
}

// build inserts every path of the set into a fresh tree.
func (ps pathSet) build(t *testing.T) *Tree {
	t.Helper()
	tree := New(propLandmark, Options{})
	for p, path := range ps.paths {
		if err := tree.Insert(p, path); err != nil {
			t.Fatalf("insert %d %v: %v", p, path, err)
		}
	}
	return tree
}

// TestQuickDTreeInvariants checks the metric properties of the inferred
// distance over random populations: dtree(p,p) = 0, symmetry, and the
// dca-depth bounds — dca(p,q) is an ancestor of both peers, so
//
//	|depth(p) − depth(q)| ≤ dtree(p,q) ≤ depth(p) + depth(q)
//
// with the lower bound tight exactly when one peer's path prefixes the
// other's.
func TestQuickDTreeInvariants(t *testing.T) {
	f := func(ps pathSet) bool {
		tree := ps.build(t)
		peers := tree.Peers()
		rng := rand.New(rand.NewSource(ps.seed))
		for trial := 0; trial < 50; trial++ {
			p := peers[rng.Intn(len(peers))]
			q := peers[rng.Intn(len(peers))]
			dpq, err := tree.DTree(p, q)
			if err != nil {
				t.Logf("dtree(%d,%d): %v", p, q, err)
				return false
			}
			if p == q && dpq != 0 {
				t.Logf("dtree(%d,%d)=%d, want 0", p, p, dpq)
				return false
			}
			dqp, err := tree.DTree(q, p)
			if err != nil || dqp != dpq {
				t.Logf("asymmetric: dtree(%d,%d)=%d dtree(%d,%d)=%d", p, q, dpq, q, p, dqp)
				return false
			}
			dp, _ := tree.Depth(p)
			dq, _ := tree.Depth(q)
			lo := dp - dq
			if lo < 0 {
				lo = -lo
			}
			if dpq < lo || dpq > dp+dq {
				t.Logf("dtree(%d,%d)=%d outside [%d,%d]", p, q, dpq, lo, dp+dq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickClosestIsExact cross-checks the bounded-walk k-closest query
// against brute force over the full population: the answer must be exactly
// the k smallest (DTree, PeerID) pairs — the paper's exactness claim.
func TestQuickClosestIsExact(t *testing.T) {
	f := func(ps pathSet) bool {
		tree := ps.build(t)
		peers := tree.Peers()
		rng := rand.New(rand.NewSource(ps.seed + 1))
		for trial := 0; trial < 10; trial++ {
			p := peers[rng.Intn(len(peers))]
			k := 1 + rng.Intn(7)
			got, err := tree.Closest(p, k)
			if err != nil {
				t.Logf("closest(%d,%d): %v", p, k, err)
				return false
			}
			var want []Candidate
			for _, q := range peers {
				if q == p {
					continue
				}
				d, err := tree.DTree(p, q)
				if err != nil {
					return false
				}
				want = append(want, Candidate{Peer: q, DTree: d})
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].DTree != want[j].DTree {
					return want[i].DTree < want[j].DTree
				}
				return want[i].Peer < want[j].Peer
			})
			if len(want) > k {
				want = want[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("closest(%d,%d)\ngot  %+v\nwant %+v", p, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// refillBound is the most node slots (counted as ArenaStats.Allocated
// counts them) the pool can hold carved after the tree is drained and
// refilled with the population it holds now, in any order. A drain loses
// nothing — every run it frees parks whole on its class's free list — so a
// refill carves only where a class's list runs dry, and it carves no more
// than this:
//
//   - A refill only inserts, so a node's child count only grows. A node
//     below the landmark is made afresh and takes a run of class c (2^c
//     slots, runCap(c) children) only once its count passes runCap(c−1)
//     (reaches 1, for c = 0); the landmark's node keeps the run it has,
//     which holds its whole count.
//   - So at most need[c] class-c runs are ever held at once: one for each
//     node whose count at the end — the count it has now — passes
//     runCap(c−1), and the landmark's run if it is of class c.
//   - A class is carved afresh only when its free list is empty: every run
//     of the class is held, and so is the new one. Runs never split or
//     merge, so a class that has have[c] runs now gets at most
//     max(0, need[c] − have[c]) fresh ones.
//   - A fresh carve of 2^c slots may first park the rest of the chunk it
//     cannot fit in: fewer than 2^c slots, on smaller classes' lists.
//
// Exact reuse, which a pool of one-slot nodes gives, does not hold: which
// runs are held at once depends on the order the peers arrive in, and a
// refill in another order than the fill's may need more runs of a class at
// once than the fill left behind.
func refillBound(c *Core) int {
	var have, need [len(c.nodes.free)]int
	for class, head := range c.nodes.free {
		for off := head; off != none; off = c.nodes.at(off).parent {
			have[class]++
		}
	}
	var visit func(m int32)
	visit = func(m int32) {
		n := c.nodes.at(m)
		if n.kidsLog > 0 {
			have[n.kidsLog-1]++
		}
		switch {
		case m == root && n.kidsLog > 0:
			need[n.kidsLog-1]++
		case m != root && n.kidsLen > 0:
			for class := 0; class == 0 || n.kidsLen > runCap(class-1); class++ {
				need[class]++
			}
		}
		for j := range n.kidsLen {
			visit(n.kidsOff + j)
		}
	}
	visit(root)
	bound := int(c.nodes.carved) - 1
	for class := range need {
		bound += (2<<class - 1) * max(0, need[class]-have[class])
	}
	return bound
}

// TestQuickArenaRecycling drains and refills random populations, in a new
// order each time. A fully drained tree holds every carved node slot free
// and no node below the landmark; a refill rebuilds the same trie and
// carves no more node slots than refillBound proves it can.
func TestQuickArenaRecycling(t *testing.T) {
	f := func(ps pathSet) bool {
		tree := ps.build(t)
		live := tree.ArenaStats().Live
		if live == 0 {
			t.Log("population built no arena nodes")
			return false
		}
		for cycle := 0; cycle < 3; cycle++ {
			hw, bound := tree.ArenaStats().Allocated, refillBound(tree.core)
			for p := range ps.paths {
				tree.Remove(p)
			}
			if st := tree.ArenaStats(); st.Live != 0 || st.Free != hw || st.Allocated != hw {
				t.Logf("drained: %+v, want all %d nodes free", st, hw)
				return false
			}
			for p, path := range ps.paths {
				if err := tree.Insert(p, path); err != nil {
					t.Logf("refill %d: %v", p, err)
					return false
				}
			}
			if st := tree.ArenaStats(); st.Allocated > bound || st.Live != live {
				t.Logf("refill: %+v, want allocated ≤ %d (%d before) and %d live", st, bound, hw, live)
				return false
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Logf("cycle %d: %v", cycle, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertRemoveInvariants churns a random population through
// inserts, path-replacing re-inserts, and removals, and requires the deep
// structural invariants (pruning, child ordering, index maps) to
// hold at every step and the surviving peer set to match.
func TestQuickInsertRemoveInvariants(t *testing.T) {
	f := func(ps pathSet) bool {
		tree := ps.build(t)
		rng := rand.New(rand.NewSource(ps.seed + 2))
		alive := make(map[PeerID]bool, len(ps.paths))
		for p := range ps.paths {
			alive[p] = true
		}
		for p, path := range ps.paths {
			switch rng.Intn(3) {
			case 0:
				if tree.Contains(p) != alive[p] {
					t.Logf("contains(%d) diverged", p)
					return false
				}
				tree.Remove(p)
				delete(alive, p)
			case 1:
				// Re-insert with a rotated path: replaces, never duplicates.
				rotated := append([]topology.NodeID(nil), path...)
				if len(rotated) > 2 {
					rotated = rotated[1:]
				}
				if err := tree.Insert(p, rotated); err != nil {
					t.Logf("reinsert %d: %v", p, err)
					return false
				}
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Logf("invariants after touching %d: %v", p, err)
				return false
			}
		}
		if tree.Len() != len(alive) {
			t.Logf("len=%d alive=%d", tree.Len(), len(alive))
			return false
		}
		for _, p := range tree.Peers() {
			if !alive[p] {
				t.Logf("removed peer %d still present", p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAddressPool churns random populations through joins, address
// changes, removals and re-joins, each address a canonical IPv4 endpoint
// (held in the record), one of its near misses, or text of a random length
// in 0..codec.MaxAddrLen (each held in the pool), so records change form
// both ways. After every step it requires the pools' bookkeeping to hold,
// Len() to count the live peers, and every live peer's address to read back
// as it was last set.
func TestQuickAddressPool(t *testing.T) {
	f := func(ps pathSet) bool {
		rng := rand.New(rand.NewSource(ps.seed + 3))
		randAddr := func() string {
			switch rng.Intn(3) {
			case 0:
				return fmt.Sprintf("%d.%d.%d.%d:%d", rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(1<<16))
			case 1:
				return nearEndpoints[rng.Intn(len(nearEndpoints))]
			}
			b := make([]byte, rng.Intn(codec.MaxAddrLen+1))
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			return string(b)
		}
		type live struct {
			slot int32
			addr string
		}
		core := NewCore(propLandmark)
		model := map[PeerID]live{}
		join := func(p PeerID) {
			slot, _ := core.Join(p, ps.paths[p], 0, nil)
			model[p] = live{slot, randAddr()}
			core.SetAddr(core.Record(slot), model[p].addr)
		}
		peers := slices.Sorted(maps.Keys(ps.paths))
		for step := 0; step < 4*len(peers); step++ {
			p := peers[rng.Intn(len(peers))]
			l, resident := model[p]
			switch r := rng.Intn(3); {
			case !resident:
				join(p)
			case r == 0:
				core.Remove(l.slot)
				delete(model, p)
			case r == 1:
				l.addr = randAddr()
				core.SetAddr(core.Record(l.slot), l.addr)
				model[p] = l
			default:
				core.Remove(l.slot)
				join(p)
			}
			if err := core.CheckInvariants(); err != nil {
				t.Logf("step %d, peer %d: %v", step, p, err)
				return false
			}
			if core.Len() != len(model) {
				t.Logf("step %d: Len() = %d, %d peers live", step, core.Len(), len(model))
				return false
			}
			for q, l := range model {
				if got := string(core.AppendAddr(nil, core.Record(l.slot))); !core.Holds(l.slot, q) || got != l.addr {
					t.Logf("step %d: peer %d reads address %q, want %q", step, q, got, l.addr)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// heapPath is loadgen.TreePath's shape (which this package cannot import):
// position pos of an 8-ary heap of routers under the landmark, so peers
// attach at interior routers as well as at the leaves.
func heapPath(pos int) []topology.NodeID {
	var path []topology.NodeID
	for r := topology.NodeID(pos); r > 0; r = (r - 1) / 8 {
		path = append(path, r)
	}
	return append(path, propLandmark)
}

// bruteClosest is the oracle: every peer's dtree to the query path computed
// from the reported paths by suffix matching, fully sorted, first k kept.
func bruteClosest(paths map[PeerID][]topology.NodeID, query []topology.NodeID, k int, exclude PeerID) []Candidate {
	want := []Candidate{}
	for p, path := range paths {
		if p == exclude {
			continue
		}
		want = append(want, Candidate{Peer: p, DTree: pathDTree(path, query)})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].DTree != want[j].DTree {
			return want[i].DTree < want[j].DTree
		}
		return want[i].Peer < want[j].Peer
	})
	if len(want) > k {
		want = want[:k]
	}
	return want
}

// TestClosestMatchesOracleWhereBoundBites checks the depth-bounded search
// against bruteClosest on the populations where a wrong bound would show:
// sparse deep heaps (few peers, long unbranched descents), dense shallow ones
// (many peers at equal dtree straddling the kth place, peers attached at
// interior routers, several peers per router), with k below, at and above the
// tie group sizes, for resident peers and for newcomers whose path leaves the
// trie above the leaves — before and after interleaved removals.
func TestClosestMatchesOracleWhereBoundBites(t *testing.T) {
	shapes := []struct {
		name             string
		peers, positions int
	}{
		{"sparse-deep", 40, 200_000},
		{"mid", 300, 5_000},
		{"tie-heavy", 400, 72}, // ≈5 peers per router, three levels
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.peers)))
			tree := New(propLandmark, Options{})
			paths := make(map[PeerID][]topology.NodeID, sh.peers)
			for p := PeerID(1); int(p) <= sh.peers; p++ {
				paths[p] = heapPath(1 + rng.Intn(sh.positions))
				if err := tree.Insert(p, paths[p]); err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string) {
				t.Helper()
				for trial := 0; trial < 60; trial++ {
					for _, k := range []int{1, 5, 16} {
						// A resident peer.
						p := PeerID(1 + rng.Intn(sh.peers))
						if _, ok := paths[p]; ok {
							got, err := tree.Closest(p, k)
							if err != nil {
								t.Fatal(err)
							}
							if want := bruteClosest(paths, paths[p], k, p); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: Closest(%d,%d)\ngot  %v\nwant %v", stage, p, k, got, want)
							}
						}
						// A newcomer: a heap path whose lowest 0–3 hops are
						// replaced by routers no peer has reported, so the
						// match ends at an interior router.
						query := heapPath(1 + rng.Intn(sh.positions))
						cut := rng.Intn(min(4, len(query)))
						for i := 0; i < cut; i++ {
							query[i] = topology.NodeID(1_000_000 + i)
						}
						got, err := tree.ClosestToPathExcluding(query, k, p)
						if err != nil {
							t.Fatal(err)
						}
						if want := bruteClosest(paths, query, k, p); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: ClosestToPathExcluding(%v,%d,%d)\ngot  %v\nwant %v", stage, query, k, p, got, want)
						}
					}
				}
			}
			check("full")
			for round := 0; round < 3; round++ {
				for p := range paths {
					if rng.Intn(3) == 0 {
						tree.Remove(p)
						delete(paths, p)
					}
				}
				check("after removals")
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWideRunsUnderChurn churns peers below two routers with hundreds of
// children — the landmark and a hub under it — so that child runs grow
// past keyClass and shrink through prunes that move a run's last node into
// the hole, and requires the invariants after every step and the oracle's
// answer, for a resident peer and for a newcomer, every few steps.
func TestWideRunsUnderChurn(t *testing.T) {
	const hub topology.NodeID = 1
	rng := rand.New(rand.NewSource(11))
	tree := New(propLandmark, Options{})
	paths := map[PeerID][]topology.NodeID{}
	randPath := func() []topology.NodeID {
		leaf := topology.NodeID(10 + rng.Intn(400))
		switch rng.Intn(3) {
		case 0:
			return []topology.NodeID{leaf, propLandmark}
		case 1:
			return []topology.NodeID{leaf, hub, propLandmark}
		}
		return []topology.NodeID{1000 + topology.NodeID(rng.Intn(50)), leaf, hub, propLandmark}
	}
	for step := 0; step < 3000; step++ {
		p := PeerID(1 + rng.Intn(600))
		if _, ok := paths[p]; ok && rng.Intn(5) < 2 {
			tree.Remove(p)
			delete(paths, p)
		} else {
			paths[p] = randPath()
			if err := tree.Insert(p, paths[p]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%50 != 0 || len(paths) < 2 {
			continue
		}
		k := 1 + rng.Intn(8)
		got, err := tree.Closest(p, k)
		if _, ok := paths[p]; ok {
			if want := bruteClosest(paths, paths[p], k, p); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Closest(%d,%d)\ngot  %v, %v\nwant %v", step, p, k, got, err, want)
			}
		}
		query := randPath()
		query[0] = 5000 // a router no peer reports
		if got, err := tree.ClosestToPathExcluding(query, k, p); err != nil || !reflect.DeepEqual(got, bruteClosest(paths, query, k, p)) {
			t.Fatalf("step %d: ClosestToPathExcluding(%v,%d,%d) = %v, %v\nwant %v", step, query, k, p, got, err, bruteClosest(paths, query, k, p))
		}
	}
	if wide := tree.core.nodes.at(root).keySlots(); wide == 0 {
		t.Fatal("the landmark's child run never reached keyClass")
	}
}

// TestClosestVisitsBounded pins the query's cost, not just its answer: the
// mean number of trie nodes a query enqueues, on the tree shape the
// benchmark drives (8-ary router heap, 200 000 positions, k=5), must stay
// small and must fall as the population grows. An unbounded per-level search
// (the previous kernel) enqueues about 800 nodes per query at 10 000 peers
// and 72 at 100 000; the bounded one 52 and 14, and 170 in a sparse tree of
// 1 000, which must search wider. An answered join is held to
// the same bound and to one descent: joining under a path the trie already
// holds searches exactly one child run per hop — a query followed by a
// separate insert would search two.
func TestClosestVisitsBounded(t *testing.T) {
	const k, queries = 5, 2000
	for _, c := range []struct{ peers, maxMean int }{{1_000, 300}, {10_000, 100}, {100_000, 40}} {
		rng := rand.New(rand.NewSource(7))
		core := NewCore(propLandmark)
		slots := make([]int32, c.peers+1)
		paths := make([][]topology.NodeID, c.peers+1)
		for p := 1; p <= c.peers; p++ {
			paths[p] = heapPath(1 + rng.Intn(200_000))
			slots[p], _ = core.Join(PeerID(p), paths[p], 0, nil)
		}
		var resident, newcomer, joiner Scratch
		joinHops := 0
		for i := 0; i < queries; i++ {
			p := 1 + rng.Intn(c.peers)
			core.Closest(slots[p], k, &resident)
			core.ClosestToPath(heapPath(1+rng.Intn(200_000)), k, slots[p], &newcomer)
			path := paths[1+rng.Intn(c.peers)]
			slot, _ := core.Join(PeerID(c.peers+1+i), path, k, &joiner)
			joinHops += len(path) - 1
			core.Remove(slot)
		}
		if joiner.hops != joinHops {
			t.Errorf("peers=%d Join: %d child-run searches over paths of %d hops in all, want one per hop", c.peers, joiner.hops, joinHops)
		}
		for name, sc := range map[string]*Scratch{"Closest": &resident, "ClosestToPath": &newcomer, "Join": &joiner} {
			mean := float64(sc.visits) / queries
			t.Logf("peers=%d %s: %.1f nodes enqueued per query", c.peers, name, mean)
			if mean > float64(c.maxMean) {
				t.Errorf("peers=%d %s: %.1f nodes enqueued per query, want ≤ %d", c.peers, name, mean, c.maxMean)
			}
		}
	}
}

// TestChurnAllocs pins the steady state a long-lived landmark tree reaches
// once its population stops growing: on a prefilled tree a peer joins
// (answered, as a server joins it), takes an address and leaves, over and
// over. After one pass over the churn paths every trie node, child run,
// record and address run comes back from a free list, so a pass allocates
// nothing; a node, record or run taken from the heap per join shows here.
func TestChurnAllocs(t *testing.T) {
	const resident, k = 10_000, 5
	rng := rand.New(rand.NewSource(1))
	core := NewCore(propLandmark)
	for p := 1; p <= resident; p++ {
		core.Join(PeerID(p), heapPath(1+rng.Intn(200_000)), 0, nil)
	}
	churn := make([][]topology.NodeID, 256)
	for i := range churn {
		churn[i] = heapPath(1 + rng.Intn(200_000))
	}
	var sc Scratch
	pass := func() {
		for _, path := range churn {
			slot, _ := core.Join(resident+1, path, k, &sc)
			core.SetAddr(core.Record(slot), "203.0.113.9:7000")
			core.Remove(slot)
		}
	}
	pass() // sets the pools' high-water marks
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Errorf("%v allocations per pass of %d join-and-leave cycles, want 0", allocs, len(churn))
	}
}

// BenchmarkDTree measures the pairwise distance primitive on a tree of
// 10 000 peers.
func BenchmarkDTree(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	core := NewCore(propLandmark)
	slots := make([]int32, 10_000)
	for i := range slots {
		slots[i], _ = core.Join(PeerID(i+1), heapPath(1+rng.Intn(200_000)), 0, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DTree(slots[i%len(slots)], slots[i*7%len(slots)])
	}
}
