package pathtree

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// P is shorthand for building paths.
func P(ids ...topology.NodeID) []topology.NodeID { return ids }

func TestInsertAndLen(t *testing.T) {
	tr := New(0, Options{})
	if tr.Len() != 0 {
		t.Fatalf("empty len=%d", tr.Len())
	}
	if err := tr.Insert(1, P(5, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(2, P(6, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("len=%d want 2", tr.Len())
	}
	if !tr.Contains(1) || !tr.Contains(2) || tr.Contains(99) {
		t.Fatal("Contains wrong")
	}
	if tr.Landmark() != 0 {
		t.Fatalf("landmark=%d", tr.Landmark())
	}
}

func TestInsertValidation(t *testing.T) {
	tr := New(0, Options{})
	if err := tr.Insert(1, nil); err == nil {
		t.Fatal("accepted empty path")
	}
	if err := tr.Insert(1, P(5, 3, 7)); err == nil {
		t.Fatal("accepted path not ending at landmark")
	}
	if err := tr.Insert(1, P(5, 5, 0)); err == nil {
		t.Fatal("accepted repeated router")
	}
	if err := tr.Insert(1, P(5, topology.InvalidNode, 0)); err == nil {
		t.Fatal("accepted anonymous router")
	}
}

// TestPathCap: a path of codec.MaxPathLen routers is the longest a tree
// takes — its peer sits at depth 255, the most a node's one-byte depth
// holds — and one router more is refused. Two such peers on disjoint
// branches are 510 hops apart, which no one-byte sum holds.
func TestPathCap(t *testing.T) {
	long := func(n int, base topology.NodeID) []topology.NodeID {
		path := make([]topology.NodeID, n) // ends at landmark 0
		for i := range path[:n-1] {
			path[i] = base + topology.NodeID(i)
		}
		return path
	}
	tr := New(0, Options{})
	for p, base := range map[PeerID]topology.NodeID{1: 1000, 2: 2000} {
		if err := tr.Insert(p, long(codec.MaxPathLen, base)); err != nil {
			t.Fatalf("refused a %d-hop path: %v", codec.MaxPathLen, err)
		}
	}
	if err := tr.Insert(3, long(codec.MaxPathLen+1, 3000)); err == nil {
		t.Fatalf("accepted a %d-hop path", codec.MaxPathLen+1)
	}
	if d, err := tr.Depth(1); err != nil || d != codec.MaxPathLen-1 {
		t.Fatalf("depth %d, %v; want %d", d, err, codec.MaxPathLen-1)
	}
	if d, err := tr.DTree(1, 2); err != nil || d != 2*(codec.MaxPathLen-1) {
		t.Fatalf("dtree %d, %v; want %d", d, err, 2*(codec.MaxPathLen-1))
	}
	if got, err := tr.PathOf(1); err != nil || !slices.Equal(got, long(codec.MaxPathLen, 1000)) {
		t.Fatalf("path of %d hops read back as %d hops, %v", codec.MaxPathLen, len(got), err)
	}
	if err := tr.CheckInvariants(); err != nil || tr.Len() != 2 {
		t.Fatalf("%d peers, %v", tr.Len(), err)
	}
}

func TestDTreeSharedPrefix(t *testing.T) {
	// Paths: p1 = a,c,L ; p2 = b,c,L ; p3 = d,L
	// dtree(p1,p2) = 1+1 = 2 (dca = c at depth 1, both at depth 2)
	// dtree(p1,p3) = 2+1 = 3 (dca = L)
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(10, 12, 0))
	mustInsert(t, tr, 2, P(11, 12, 0))
	mustInsert(t, tr, 3, P(13, 0))
	cases := []struct {
		p, q PeerID
		want int
	}{
		{1, 2, 2}, {2, 1, 2}, {1, 3, 3}, {3, 2, 3},
	}
	for _, c := range cases {
		got, err := tr.DTree(c.p, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("dtree(%d,%d)=%d want %d", c.p, c.q, got, c.want)
		}
	}
	if d, _ := tr.DTree(1, 1); d != 0 {
		t.Fatalf("dtree(p,p)=%d", d)
	}
	if _, err := tr.DTree(1, 99); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("unknown peer error=%v", err)
	}
}

func TestSameAttachmentRouter(t *testing.T) {
	// Two peers behind the same router have dtree 0.
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(7, 3, 0))
	mustInsert(t, tr, 2, P(7, 3, 0))
	if d, _ := tr.DTree(1, 2); d != 0 {
		t.Fatalf("co-located dtree=%d", d)
	}
	got, err := tr.Closest(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Peer != 2 || got[0].DTree != 0 {
		t.Fatalf("closest=%v", got)
	}
}

func TestClosestExcludesSelf(t *testing.T) {
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(5, 0))
	mustInsert(t, tr, 2, P(6, 0))
	got, err := tr.Closest(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c.Peer == 1 {
			t.Fatal("query peer returned as its own neighbour")
		}
	}
	if len(got) != 1 || got[0].Peer != 2 {
		t.Fatalf("closest=%v", got)
	}
}

func TestClosestOrdering(t *testing.T) {
	// Build a comb: peers at increasing distance from peer 1.
	//   p1 = a,b,c,L       (depth 3)
	//   p2 = a2,b,c,L      dca=b: dtree=2
	//   p3 = x,c,L         dca=c: dtree=3+? p3 depth 2, dca depth 1 → (3-1)+(2-1)=3
	//   p4 = y,L           dca=L: (3-0)+(1-0)=4
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(10, 11, 12, 0))
	mustInsert(t, tr, 2, P(20, 11, 12, 0))
	mustInsert(t, tr, 3, P(30, 12, 0))
	mustInsert(t, tr, 4, P(40, 0))
	got, err := tr.Closest(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Candidate{{Peer: 2, DTree: 2}, {Peer: 3, DTree: 3}, {Peer: 4, DTree: 4}}
	if len(got) != 3 {
		t.Fatalf("closest=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("closest=%v want %v", got, want)
		}
	}
}

func TestClosestKLargerThanPopulation(t *testing.T) {
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(5, 0))
	mustInsert(t, tr, 2, P(6, 0))
	got, _ := tr.Closest(1, 10)
	if len(got) != 1 {
		t.Fatalf("closest=%v", got)
	}
	if got2, _ := tr.Closest(1, 0); got2 != nil {
		t.Fatalf("k=0 returned %v", got2)
	}
}

func TestClosestUnknownPeer(t *testing.T) {
	tr := New(0, Options{})
	if _, err := tr.Closest(42, 1); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
}

func TestClosestToPathWithoutInsertion(t *testing.T) {
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(10, 11, 0))
	mustInsert(t, tr, 2, P(20, 0))
	// Newcomer path shares router 11 with peer 1.
	got, err := tr.ClosestToPathExcluding(P(99, 11, 0), 2, 3) // newcomer 3
	if err != nil {
		t.Fatal(err)
	}
	// dtree(new,1) = (2-1)+(2-1)=2 ; dtree(new,2)=(2-0)+(1-0)=3
	want := []Candidate{{Peer: 1, DTree: 2}, {Peer: 2, DTree: 3}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got=%v want %v", got, want)
	}
	if tr.Len() != 2 {
		t.Fatal("query mutated the tree")
	}
}

func TestClosestToPathExclude(t *testing.T) {
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(10, 0))
	mustInsert(t, tr, 2, P(11, 0))
	got, err := tr.ClosestToPathExcluding(P(12, 0), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Peer != 2 {
		t.Fatalf("got=%v", got)
	}
}

func TestClosestToPathDivergent(t *testing.T) {
	// Newcomer path matches nothing beyond the landmark.
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(10, 11, 0))
	got, err := tr.ClosestToPathExcluding(P(50, 51, 52, 0), 1, 2) // newcomer 2
	if err != nil {
		t.Fatal(err)
	}
	// dtree = (3-0)+(2-0) = 5
	if len(got) != 1 || got[0].DTree != 5 {
		t.Fatalf("got=%v", got)
	}
}

func TestRemove(t *testing.T) {
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(10, 11, 0))
	mustInsert(t, tr, 2, P(20, 11, 0))
	if !tr.Remove(1) {
		t.Fatal("remove reported absent")
	}
	if tr.Remove(1) {
		t.Fatal("double remove succeeded")
	}
	if tr.Len() != 1 || tr.Contains(1) {
		t.Fatal("remove did not erase peer")
	}
	got, _ := tr.Closest(2, 5)
	if len(got) != 0 {
		t.Fatalf("removed peer still returned: %v", got)
	}
	// Pruning: the branch for router 10 must be gone.
	if live := tr.ArenaStats().Live; live != 2 { // 11, 20 under the root
		t.Fatalf("live nodes=%d want 2 after pruning", live)
	}
}

func TestReinsertReplacesPath(t *testing.T) {
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(10, 0))
	mustInsert(t, tr, 1, P(20, 21, 0))
	if tr.Len() != 1 {
		t.Fatalf("len=%d", tr.Len())
	}
	d, err := tr.Depth(1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("depth=%d want 2", d)
	}
	path, _ := tr.PathOf(1)
	if len(path) != 3 || path[0] != 20 || path[1] != 21 || path[2] != 0 {
		t.Fatalf("path=%v", path)
	}
}

func TestPathOfUnknown(t *testing.T) {
	tr := New(0, Options{})
	if _, err := tr.PathOf(9); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
	if _, err := tr.Depth(9); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
}

func TestStats(t *testing.T) {
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(10, 11, 0))
	mustInsert(t, tr, 2, P(12, 11, 0))
	if n := tr.Len(); n != 2 {
		t.Fatalf("peers=%d", n)
	}
	if live := tr.ArenaStats().Live; live != 3 { // 11, 10, 12 under the root
		t.Fatalf("live nodes=%d", live)
	}
	for _, p := range []PeerID{1, 2} {
		if d, err := tr.Depth(p); err != nil || d != 2 {
			t.Fatalf("depth of %d=%d err=%v", p, d, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRouterConflictDetection(t *testing.T) {
	// Lossy traces can report router 11 at two different positions.
	tr := New(0, Options{})
	mustInsert(t, tr, 1, P(11, 5, 0))
	mustInsert(t, tr, 2, P(11, 0)) // 11 directly under root now too
	// Both peers must still be queryable.
	if d, err := tr.DTree(1, 2); err != nil || d <= 0 {
		t.Fatalf("dtree=%d err=%v", d, err)
	}
}

// --- brute-force reference ---

// pathDTree computes dtree between two peer→landmark paths by suffix
// matching.
func pathDTree(pp, qq []topology.NodeID) int {
	i, j := len(pp)-1, len(qq)-1
	common := 0
	for i >= 0 && j >= 0 && pp[i] == qq[j] {
		common++
		i--
		j--
	}
	return (len(pp) - common) + (len(qq) - common)
}

// randomTree fills a tree with random branching paths, and returns the paths
// it inserted.
func randomTree(rng *rand.Rand, peers int) (*Tree, map[PeerID][]topology.NodeID) {
	tr := New(0, Options{})
	paths := make(map[PeerID][]topology.NodeID, peers)
	for p := 1; p <= peers; p++ {
		depth := 1 + rng.Intn(6)
		path := make([]topology.NodeID, 0, depth+1)
		// Random path through a small router universe; dedupe as we go.
		used := map[topology.NodeID]bool{0: true}
		for len(path) < depth {
			r := topology.NodeID(1 + rng.Intn(60))
			if used[r] {
				continue
			}
			used[r] = true
			path = append(path, r)
		}
		path = append(path, 0)
		if err := tr.Insert(PeerID(p), path); err != nil {
			panic(err)
		}
		paths[PeerID(p)] = path
	}
	return tr, paths
}

// Property: Closest agrees exactly with the brute-force reference.
func TestClosestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, paths := randomTree(rng, 2+rng.Intn(60))
		peers := tr.Peers()
		p := peers[rng.Intn(len(peers))]
		k := 1 + rng.Intn(8)
		got, err := tr.Closest(p, k)
		if err != nil {
			return false
		}
		want := bruteClosest(paths, paths[p], k, p)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: DTree is symmetric and matches the suffix-based reference.
func TestDTreeMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, paths := randomTree(rng, 2+rng.Intn(40))
		peers := tr.Peers()
		p := peers[rng.Intn(len(peers))]
		q := peers[rng.Intn(len(peers))]
		d1, err := tr.DTree(p, q)
		if err != nil {
			return false
		}
		d2, err := tr.DTree(q, p)
		if err != nil {
			return false
		}
		return d1 == d2 && d1 == pathDTree(paths[p], paths[q])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: removal restores peer count and never corrupts later queries.
func TestInsertRemoveChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, paths := randomTree(rng, 30)
		peers := tr.Peers()
		// Remove a random half.
		removed := map[PeerID]bool{}
		for _, p := range peers {
			if rng.Intn(2) == 0 {
				tr.Remove(p)
				removed[p] = true
				delete(paths, p)
			}
		}
		if tr.Len() != len(peers)-len(removed) {
			return false
		}
		// All remaining queries must exclude removed peers.
		for _, p := range tr.Peers() {
			got, err := tr.Closest(p, 10)
			if err != nil {
				return false
			}
			for _, c := range got {
				if removed[c.Peer] {
					return false
				}
			}
		}
		// Node reuse under churn: drain and refill the same population
		// repeatedly. A drained tree holds every carved node slot free, and
		// a refill carves no more than refillBound proves it can.
		for cycle := 0; cycle < 4; cycle++ {
			hw, bound := tr.ArenaStats().Allocated, refillBound(tr.core)
			for p := range paths {
				tr.Remove(p)
			}
			if st := tr.ArenaStats(); st.Live != 0 || st.Free != st.Allocated || st.Allocated != hw {
				t.Logf("drained tree leaked arena nodes: %+v", st)
				return false
			}
			for p, path := range paths {
				if err := tr.Insert(p, path); err != nil {
					return false
				}
			}
			if st := tr.ArenaStats(); st.Allocated > bound {
				t.Logf("slab high-water grew under churn past the bound: %+v, want allocated ≤ %d", st, bound)
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClosestToPathExcluding for an inserted peer's own path
// (excluding the peer) equals Closest for that peer.
func TestClosestToPathConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _ := randomTree(rng, 2+rng.Intn(40))
		peers := tr.Peers()
		p := peers[rng.Intn(len(peers))]
		path, err := tr.PathOf(p)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(6)
		a, err := tr.Closest(p, k)
		if err != nil {
			return false
		}
		b, err := tr.ClosestToPathExcluding(path, k, p)
		if err != nil {
			return false
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the deep invariant checker passes after arbitrary interleavings
// of inserts, re-inserts, and removals.
func TestInvariantsUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(0, Options{})
		live := map[PeerID]bool{}
		for op := 0; op < 150; op++ {
			p := PeerID(1 + rng.Intn(40))
			switch rng.Intn(3) {
			case 0, 1: // insert or replace
				depth := 1 + rng.Intn(5)
				path := make([]topology.NodeID, 0, depth+1)
				used := map[topology.NodeID]bool{0: true}
				for len(path) < depth {
					r := topology.NodeID(1 + rng.Intn(30))
					if !used[r] {
						used[r] = true
						path = append(path, r)
					}
				}
				path = append(path, 0)
				if err := tr.Insert(p, path); err != nil {
					return false
				}
				live[p] = true
			case 2:
				tr.Remove(p)
				delete(live, p)
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsDetectsCorruption corrupts one thing at a time in a
// fresh, healthy tree — peers 1 and 2 under router 11, text addresses set,
// peer 3's record free, a pruned router's slot left as slack in the
// landmark's child run, and the one-node runs both child runs outgrew
// parked on the free list — and requires the checker to name each.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(c *Core, r1, r2 *Record, mid *node)
	}{
		{"sibling routers repeat", "repeats among node 11's children", func(c *Core, _, _ *Record, mid *node) {
			kids := c.kidsOf(mid)
			kids[1].router = kids[0].router
		}},
		{"children beyond the run's capacity", "children in a run of", func(_ *Core, _, _ *Record, mid *node) {
			mid.kidsLen = mid.kidsCap() + 1
		}},
		{"child runs overlap", "overlaps another run", func(c *Core, _, _ *Record, mid *node) {
			mid.kidsOff = c.nodes.at(root).kidsOff
		}},
		{"child depth", "depth 5 under depth 1", func(c *Core, r1, _ *Record, _ *node) {
			c.nodes.at(r1.node).depth = 5
		}},
		{"parent back-link", "has wrong parent", func(c *Core, r1, _ *Record, _ *node) {
			c.nodes.at(r1.node).parent = root
		}},
		{"empty node left unpruned", "empty node 99 not pruned", func(c *Core, _, _ *Record, _ *node) {
			c.addChild(root, 99)
		}},
		{"slack slot holds a node", "slack but not vacant", func(c *Core, _, _ *Record, _ *node) {
			rn := c.nodes.at(root)
			c.nodes.at(rn.kidsOff + rn.kidsLen).router = 20
		}},
		{"parked run holds a node", "live or stray entry", func(c *Core, _, _ *Record, _ *node) {
			c.nodes.at(c.nodes.free[0]).router = 20
		}},
		{"leaked node slot", "node pool", func(c *Core, _, _ *Record, _ *node) {
			c.nodes.carved++
		}},
		{"live node count", "node pool", func(c *Core, _, _ *Record, _ *node) {
			c.live++
		}},
		{"peer chain", "chained at node", func(_ *Core, r1, _ *Record, _ *node) {
			r1.node = root
		}},
		{"inline peer ID", "inline peer", func(c *Core, r1, _ *Record, _ *node) {
			c.nodes.at(r1.node).peer = 99
		}},
		{"inline more-peers flag", "inline peer", func(c *Core, r1, _ *Record, _ *node) {
			c.nodes.at(r1.node).more = true
		}},
		{"overlapping address runs", "overlaps another", func(_ *Core, r1, r2 *Record, _ *node) {
			r2.addr = r1.addr
		}},
		{"router keys of a large run", "router key", func(c *Core, _, _ *Record, _ *node) {
			for r := topology.NodeID(100); r < 200; r++ {
				c.Join(PeerID(r), P(r, 0), 0, nil)
			}
			rn := c.nodes.at(root)
			c.keys(rn)[rn.kidsLen/2]++
		}},
		{"leaked address bytes", "address pool", func(c *Core, _, _ *Record, _ *node) {
			c.addrs.carved += addrStep
		}},
		{"free record keeps an inline address", "record pool", func(c *Core, _, _ *Record, _ *node) {
			free := c.recs.at(c.recs.free) // "10.0.0.1:0": only the form says so
			free.addr, free.addrLen, free.inline = 0x0a000001, 0, true
		}},
	} {
		tr := New(0, Options{})
		mustInsert(t, tr, 1, P(10, 11, 0))
		mustInsert(t, tr, 2, P(12, 11, 0))
		mustInsert(t, tr, 3, P(20, 0))
		tr.Remove(3)
		c := tr.core
		r1, r2 := c.recs.at(tr.byPeer[1]), c.recs.at(tr.byPeer[2])
		c.SetAddr(r1, "peer-1:9000") // text, in runs of one size class
		c.SetAddr(r2, "peer-2:9000")
		rn := c.nodes.at(root)
		if err := tr.CheckInvariants(); err != nil || c.nodes.free[0] == none || rn.kidsLen == rn.kidsCap() {
			t.Fatalf("%s: healthy tree failed: %v (a run parked: %v, slack in the root's run: %v)",
				tc.name, err, c.nodes.free[0] != none, rn.kidsLen < rn.kidsCap())
		}
		tc.corrupt(c, r1, r2, c.nodes.at(rn.kidsOff))
		if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestConcurrentInsertQuery(t *testing.T) {
	tr := New(0, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				p := PeerID(w*1000 + i)
				path := P(topology.NodeID(1+rng.Intn(50)), topology.NodeID(100+rng.Intn(10)), 0)
				if path[0] == path[1] {
					continue
				}
				if err := tr.Insert(p, path); err != nil {
					t.Error(err)
					return
				}
				if _, err := tr.Closest(p, 3); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					tr.Remove(p)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentChurnQueryNeverSeesRecycled runs queries against a stable
// peer population while churners constantly insert and remove peers on
// disjoint branches, recycling trie nodes through the arena the whole time.
// Every answer must be well-formed — distinct candidates, sorted, distances
// within the depth bound — which fails if a query ever walks a node that was
// recycled out from under it. Run with -race for the full guarantee.
func TestConcurrentChurnQueryNeverSeesRecycled(t *testing.T) {
	tr := New(0, Options{})
	// Stable peers at depth 2 under their own router block.
	const stable = 50
	for i := 0; i < stable; i++ {
		mustInsert(t, tr, PeerID(i+1), P(topology.NodeID(200+i), topology.NodeID(100+i%10), 0))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := PeerID(10_000 + w*1000 + i%500)
				r := topology.NodeID(1000 + w*100 + rng.Intn(90))
				if err := tr.Insert(p, P(r, topology.NodeID(500+w), 0)); err != nil {
					t.Error(err)
					return
				}
				tr.Remove(p) // prunes the branch, recycling both nodes
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 2000; i++ {
				p := PeerID(1 + rng.Intn(stable))
				got, err := tr.Closest(p, 8)
				if err != nil {
					t.Errorf("closest(%d): %v", p, err)
					return
				}
				seen := map[PeerID]bool{}
				for j, c := range got {
					if c.Peer == p || seen[c.Peer] {
						t.Errorf("closest(%d) returned duplicate or self: %+v", p, got)
						return
					}
					seen[c.Peer] = true
					// All peers sit at depth ≤ 2, so dtree ∈ [0, 4].
					if c.DTree < 0 || c.DTree > 4 {
						t.Errorf("closest(%d) candidate out of depth bound: %+v", p, c)
						return
					}
					if j > 0 && got[j-1].DTree > c.DTree {
						t.Errorf("closest(%d) unsorted: %+v", p, got)
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func mustInsert(t *testing.T, tr *Tree, p PeerID, path []topology.NodeID) {
	t.Helper()
	if err := tr.Insert(p, path); err != nil {
		t.Fatalf("Insert(%d,%v): %v", p, path, err)
	}
}
