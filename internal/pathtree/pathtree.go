// Package pathtree implements the paper's core data structure: a
// per-landmark prefix tree of router paths that lets a management server
// estimate the closest peers of a newcomer from traceroute paths alone.
//
// Every peer reports the router path from itself to the landmark. Reversed
// (landmark first), those paths form a trie rooted at the landmark: two
// peers' paths share a prefix exactly as far as the deepest common router
// their routes traverse. The inferred distance between peers p and q is
//
//	dtree(p,q) = depth(p) + depth(q) − 2·depth(dca(p,q))
//
// the length of the walk from p up to the deepest common ancestor router and
// back down to q. Because Internet routes from nearby hosts funnel through
// the same edge routers before reaching the core (the heavy-tail/centrality
// argument of §2), dtree tracks the true hop distance d(p,q) closely.
//
// Inserting a newcomer walks its L-hop path once: a binary search of each
// router's sorted child list, then a counter update per hop — O(L·log f) for
// fan-out f, no hashing. A closest-peer query ascends the newcomer's ancestor
// chain and searches each ancestor's other subtrees breadth-first. Until k
// candidates are held that search is unbounded; from then on it never
// enqueues a trie node farther from the query point than the current kth-best
// candidate, so the work follows the number of routers within that distance,
// not the population n — and shrinks as the tree fills up.
// TestClosestVisitsBounded pins the count: a mean of at most 100 nodes per
// query at 10 000 peers and 40 at 100 000 (fan-out 8, k=5).
//
// The tree is safe for concurrent use.
package pathtree

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"proxdisc/internal/topology"
)

// PeerID identifies a peer (host) in the system.
type PeerID int64

// ErrUnknownPeer is returned by queries naming a peer that was never
// inserted (or was removed).
var ErrUnknownPeer = errors.New("pathtree: unknown peer")

// Candidate is one entry of a closest-peers answer.
type Candidate struct {
	// Peer is the candidate's ID.
	Peer PeerID
	// DTree is the inferred path-tree distance in router hops.
	DTree int
}

// Options tunes a Tree. It currently carries nothing: the query is exact and
// sizes itself from k.
type Options struct{}

// Tree is the per-landmark path prefix tree.
type Tree struct {
	mu       sync.RWMutex
	landmark topology.NodeID
	root     *node
	byPeer   map[PeerID]*node

	// Node arena. All non-root nodes are carved from fixed-size slabs and
	// recycled through a free list when pruned, so steady-state insert/remove
	// churn retires no node memory to the garbage collector. Slabs are never
	// appended to in place (a fresh slab replaces an exhausted one), so node
	// pointers stay stable for the tree's lifetime. Only mutators touch these
	// fields, under t.mu's write lock.
	slab      []node
	slabUsed  int
	free      *node // free list, linked through node.parent
	allocated int   // nodes ever carved from slabs (arena high-water mark)
	freeLen   int   // nodes currently on the free list
}

// slabNodes is how many nodes each arena slab holds. Large enough to
// amortize slab allocation across many inserts, small enough that a
// near-empty tree doesn't pin much memory.
const slabNodes = 256

type node struct {
	router topology.NodeID
	depth  int32
	parent *node
	// childOrder holds the child nodes sorted ascending by router ID. It is
	// the only child index: fan-out is small, so a binary search here beats
	// a per-node hash map on every path hop, and queries walk it in a
	// deterministic order.
	childOrder []*node
	// peers attached exactly at this router (their path ends here), in
	// insertion order.
	peers []PeerID
	// subtreeCount is the number of peers attached in this node's subtree,
	// including itself. Maintained on insert/remove; this is the "ordered
	// list" bookkeeping that makes insertion O(path length).
	subtreeCount int
}

// childIndex returns the position of the child with router r in childOrder,
// or, when there is none, the position it would be inserted at. It runs once
// per path hop of every insert, remove and query; the open-coded search is a
// third faster on BenchmarkPathTreeChurn than slices.BinarySearchFunc, which
// calls its comparison through a func value.
func (n *node) childIndex(r topology.NodeID) (int, bool) {
	lo, hi := 0, len(n.childOrder)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.childOrder[mid].router < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.childOrder) && n.childOrder[lo].router == r
}

// child returns the child with router r, or nil.
func (n *node) child(r topology.NodeID) *node {
	if i, ok := n.childIndex(r); ok {
		return n.childOrder[i]
	}
	return nil
}

// allocNode returns a node for router r, preferring the free list (the
// recycled node keeps the capacity of its childOrder and peers slices) and
// otherwise carving from the current slab. Callers hold t.mu.
func (t *Tree) allocNode(r topology.NodeID, parent *node, depth int32) *node {
	if n := t.free; n != nil {
		t.free = n.parent
		t.freeLen--
		n.router = r
		n.parent = parent
		n.depth = depth
		return n
	}
	if t.slabUsed == len(t.slab) {
		t.slab = make([]node, slabNodes)
		t.slabUsed = 0
	}
	n := &t.slab[t.slabUsed]
	t.slabUsed++
	t.allocated++
	n.router = r
	n.parent = parent
	n.depth = depth
	return n
}

// freeNode pushes a pruned node onto the free list. The caller guarantees n
// is unlinked from the trie and empty (no peers, no children) — pruning
// only fires on such nodes. The parent pointer doubles as the free-list
// link; slices keep their storage for reuse. Callers hold t.mu.
func (t *Tree) freeNode(n *node) {
	n.childOrder = n.childOrder[:0]
	n.peers = n.peers[:0]
	n.subtreeCount = 0
	n.parent = t.free
	t.free = n
	t.freeLen++
}

// New returns an empty tree for the given landmark router.
func New(landmark topology.NodeID, _ Options) *Tree {
	return &Tree{
		landmark: landmark,
		root:     &node{router: landmark},
		byPeer:   make(map[PeerID]*node),
	}
}

// Landmark returns the landmark router this tree is rooted at.
func (t *Tree) Landmark() topology.NodeID { return t.landmark }

// Len reports the number of peers currently in the tree.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root.subtreeCount
}

// Contains reports whether peer p is in the tree.
func (t *Tree) Contains(p PeerID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.byPeer[p]
	return ok
}

// Depth returns the trie depth of peer p (its path length to the landmark).
func (t *Tree) Depth(p PeerID) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.byPeer[p]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	return int(n.depth), nil
}

// validatePath checks a reported peer→landmark router path.
func (t *Tree) validatePath(path []topology.NodeID) error {
	if len(path) == 0 {
		return errors.New("pathtree: empty path")
	}
	if path[len(path)-1] != t.landmark {
		return fmt.Errorf("pathtree: path ends at router %d, not landmark %d",
			path[len(path)-1], t.landmark)
	}
	// Paths are short (bounded by the wire limit), so a quadratic scan for
	// repeats beats building a set: it allocates nothing on the hot path.
	for i, r := range path {
		if r == topology.InvalidNode {
			return errors.New("pathtree: path contains anonymous router; strip before insert")
		}
		for _, q := range path[:i] {
			if q == r {
				return fmt.Errorf("pathtree: router %d repeats in path", r)
			}
		}
	}
	return nil
}

// Insert adds peer p with its reported router path (peer-side first, ending
// at the landmark). Re-inserting an existing peer replaces its path.
func (t *Tree) Insert(p PeerID, path []topology.NodeID) error {
	if err := t.validatePath(path); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byPeer[p]; ok {
		t.removeLocked(p)
	}
	// Walk from the landmark (end of slice) toward the peer, creating
	// nodes as needed.
	cur := t.root
	for i := len(path) - 2; i >= 0; i-- {
		at, ok := cur.childIndex(path[i])
		if !ok {
			cur.childOrder = slices.Insert(cur.childOrder, at, t.allocNode(path[i], cur, cur.depth+1))
		}
		cur = cur.childOrder[at]
	}
	cur.peers = append(cur.peers, p)
	t.byPeer[p] = cur
	for n := cur; n != nil; n = n.parent {
		n.subtreeCount++
	}
	return nil
}

// Remove deletes peer p, pruning now-empty trie branches. It reports whether
// the peer was present.
func (t *Tree) Remove(p PeerID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.removeLocked(p)
}

func (t *Tree) removeLocked(p PeerID) bool {
	n, ok := t.byPeer[p]
	if !ok {
		return false
	}
	delete(t.byPeer, p)
	for i, q := range n.peers {
		if q == p {
			n.peers = append(n.peers[:i], n.peers[i+1:]...)
			break
		}
	}
	for m := n; m != nil; m = m.parent {
		m.subtreeCount--
	}
	// Prune empty leaves upward, recycling each into the arena free list.
	// Mutations hold the write lock, so no in-flight query can still hold a
	// reference to a recycled node.
	for m := n; m != t.root && m.subtreeCount == 0; {
		parent := m.parent
		at, _ := parent.childIndex(m.router)
		parent.childOrder = slices.Delete(parent.childOrder, at, at+1)
		t.freeNode(m)
		m = parent
	}
	return true
}

// DTree returns the inferred tree distance between two inserted peers.
func (t *Tree) DTree(p, q PeerID) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	np, ok := t.byPeer[p]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	nq, ok := t.byPeer[q]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownPeer, q)
	}
	dca := deepestCommonAncestor(np, nq)
	return int(np.depth + nq.depth - 2*dca.depth), nil
}

func deepestCommonAncestor(a, b *node) *node {
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	for a != b {
		a = a.parent
		b = b.parent
	}
	return a
}

// excludeSet is the query-side exclusion filter. The overwhelmingly common
// case — excluding only the querying peer itself — is a single comparison,
// so queries never allocate a set; a caller-supplied map rides along for
// the general case.
type excludeSet struct {
	self    PeerID
	hasSelf bool
	m       map[PeerID]bool
}

func (e *excludeSet) contains(p PeerID) bool {
	return (e.hasSelf && p == e.self) || e.m[p]
}

// Closest returns the k peers with the smallest dtree distance to inserted
// peer p, excluding p itself. Results are sorted by (DTree, PeerID).
func (t *Tree) Closest(p PeerID, k int) ([]Candidate, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.byPeer[p]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	return closestFrom(n, int(n.depth), k, excludeSet{self: p, hasSelf: true}, sc), nil
}

// ClosestToPath answers a closest-peers query for a (possibly not yet
// inserted) newcomer whose reported path is given, excluding any peers in
// exclude. This is the server's "second round": the newcomer's candidate
// list is computed before or without inserting it.
func (t *Tree) ClosestToPath(path []topology.NodeID, k int, exclude map[PeerID]bool) ([]Candidate, error) {
	return t.closestToPath(path, k, excludeSet{m: exclude})
}

// ClosestToPathExcluding is ClosestToPath with a single excluded peer
// (almost always the joiner itself). It exists so the join hot path never
// materializes an exclusion map.
func (t *Tree) ClosestToPathExcluding(path []topology.NodeID, k int, self PeerID) ([]Candidate, error) {
	return t.closestToPath(path, k, excludeSet{self: self, hasSelf: true})
}

func (t *Tree) closestToPath(path []topology.NodeID, k int, exclude excludeSet) ([]Candidate, error) {
	if err := t.validatePath(path); err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	// The newcomer's would-be depth is len(path)-1, wherever the trie stops
	// matching its path.
	return closestFrom(t.deepestMatch(path), len(path)-1, k, exclude, sc), nil
}

// deepestMatch walks down from the root as far as the trie matches the
// reported (peer-side first) path and returns the node reached. Callers hold
// t.mu.
func (t *Tree) deepestMatch(path []topology.NodeID) *node {
	cur := t.root
	for i := len(path) - 2; i >= 0; i-- {
		c := cur.child(path[i])
		if c == nil {
			break
		}
		cur = c
	}
	return cur
}

// closestFrom computes the exact k-nearest peers by dtree for a query point
// located at trie node start with the given query depth (which may exceed
// start.depth when the query path diverged below start).
//
// The walk ascends the ancestor chain; at each ancestor a (depth da) it
// searches a's subtree, minus the child subtree already covered, breadth
// first. A peer found there at depth dq has dca depth exactly da, hence
// dtree = (qd − da) + (dq − da), so the search meets peers in non-decreasing
// dtree order. Once k candidates are held with kth-best distance w it
// neither enqueues nor scans a node deeper than w − qd + 2·da — inclusive, so
// an equal-distance peer with a smaller ID still wins its tie — and the
// ascent stops at the first ancestor whose own distance qd − da exceeds w.
// That makes the answer exact, not approximate. out doubles as the top-k
// buffer and the result: the query's one allocation.
func closestFrom(start *node, queryDepth, k int, exclude excludeSet, sc *queryScratch) []Candidate {
	if k <= 0 {
		return nil
	}
	out := make([]Candidate, 0, k)
	queue := sc.queue
	var skip *node
	for a := start; a != nil; a = a.parent {
		da := int(a.depth)
		if len(out) == k && queryDepth-da > out[k-1].DTree {
			break
		}
		base := queryDepth - 2*da // base + depth = dtree of a peer found under a
		queue = append(queue[:0], a)
		for i := 0; i < len(queue); i++ {
			n := queue[i]
			d := base + int(n.depth)
			if len(out) == k && d > out[k-1].DTree {
				break // BFS order: every later node is at least as deep
			}
			for _, p := range n.peers {
				if !exclude.contains(p) {
					out = pushCandidate(out, Candidate{Peer: p, DTree: d})
				}
			}
			if len(out) == k && d+1 > out[k-1].DTree {
				continue
			}
			for _, c := range n.childOrder {
				if c != skip {
					queue = append(queue, c)
				}
			}
		}
		sc.visits += len(queue)
		skip = a
	}
	sc.queue = queue
	return out
}

// pushCandidate inserts c into out, which is sorted by (DTree, Peer) and
// never grows beyond its capacity: when full, c either displaces the last
// entry or is dropped.
func pushCandidate(out []Candidate, c Candidate) []Candidate {
	less := func(x, y Candidate) bool {
		return x.DTree < y.DTree || (x.DTree == y.DTree && x.Peer < y.Peer)
	}
	if len(out) == cap(out) {
		if !less(c, out[len(out)-1]) {
			return out
		}
		out = out[:len(out)-1]
	}
	i := len(out)
	out = append(out, c)
	for ; i > 0 && less(c, out[i-1]); i-- {
		out[i] = out[i-1]
	}
	out[i] = c
	return out
}

// queryScratch carries a query's reusable working memory, the BFS queue,
// and counts the trie nodes the query enqueued (read by
// TestClosestVisitsBounded). Queries run under the tree's read lock, so many
// can be in flight at once — the scratch is pooled rather than hung off the
// Tree.
type queryScratch struct {
	queue  []*node
	visits int
}

var scratchPool = sync.Pool{New: func() any { return &queryScratch{} }}

// Peers returns all peer IDs in the tree in ascending order.
func (t *Tree) Peers() []PeerID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]PeerID, 0, len(t.byPeer))
	for p := range t.byPeer {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// PathOf returns peer p's stored path in peer→landmark order.
func (t *Tree) PathOf(p PeerID) ([]topology.NodeID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.byPeer[p]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	path := make([]topology.NodeID, 0, n.depth+1)
	for m := n; m != nil; m = m.parent {
		path = append(path, m.router)
	}
	return path, nil
}

// Stats summarizes tree shape for diagnostics and experiments.
type Stats struct {
	// Peers is the number of peers stored.
	Peers int
	// Nodes is the number of trie nodes, including the root.
	Nodes int
	// MaxDepth is the deepest trie node.
	MaxDepth int
	// RouterConflicts counts the trie positions beyond the first that some
	// router currently occupies (possible with lossy or truncated
	// traceroutes): Nodes minus distinct routers. The trie remains correct;
	// the number surfaces measurement-quality problems.
	RouterConflicts int
}

// ArenaStats reports the tree's node-arena occupancy.
type ArenaStats struct {
	// Allocated is the number of nodes ever carved from the slab arena — its
	// high-water mark. The root node lives outside the arena and is not
	// counted.
	Allocated int
	// Free is the number of recycled nodes currently on the free list,
	// awaiting reuse by a future Insert.
	Free int
	// Live is Allocated − Free: the non-root nodes currently in the trie.
	Live int
}

// ArenaStats returns current node-arena occupancy. Under steady-state churn
// (inserts balanced by removes) Allocated stays bounded: pruned nodes are
// recycled rather than retired to the garbage collector.
func (t *Tree) ArenaStats() ArenaStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return ArenaStats{Allocated: t.allocated, Free: t.freeLen, Live: t.allocated - t.freeLen}
}

// CheckInvariants deeply validates the tree's internal consistency:
// subtree counters, depth bookkeeping, parent/child symmetry, sorted child
// order, the peer index, and arena accounting. It is O(nodes) and intended for
// tests and debugging; it returns the first violation found.
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seenPeers := 0
	seenNodes := 0
	var walk func(n *node) (int, error)
	walk = func(n *node) (int, error) {
		seenNodes++
		for i, c := range n.childOrder {
			r := c.router
			if i > 0 && n.childOrder[i-1].router >= r {
				return 0, fmt.Errorf("pathtree: node %d childOrder not strictly ascending", n.router)
			}
			if c.parent != n {
				return 0, fmt.Errorf("pathtree: child %d of %d has wrong parent", r, n.router)
			}
			if c.depth != n.depth+1 {
				return 0, fmt.Errorf("pathtree: child %d depth %d under depth %d", r, c.depth, n.depth)
			}
		}
		count := len(n.peers)
		for _, p := range n.peers {
			at, ok := t.byPeer[p]
			if !ok || at != n {
				return 0, fmt.Errorf("pathtree: peer %d index inconsistent", p)
			}
			seenPeers++
		}
		for _, c := range n.childOrder {
			sub, err := walk(c)
			if err != nil {
				return 0, err
			}
			count += sub
		}
		if count != n.subtreeCount {
			return 0, fmt.Errorf("pathtree: node %d subtreeCount %d, actual %d",
				n.router, n.subtreeCount, count)
		}
		return count, nil
	}
	if _, err := walk(t.root); err != nil {
		return err
	}
	if seenPeers != len(t.byPeer) {
		return fmt.Errorf("pathtree: %d peers attached but %d indexed", seenPeers, len(t.byPeer))
	}
	// Arena accounting: every carved node is either reachable in the trie
	// (the root is not arena-backed) or parked on the free list.
	if live := seenNodes - 1; live+t.freeLen != t.allocated {
		return fmt.Errorf("pathtree: arena accounting: %d live + %d free != %d allocated",
			live, t.freeLen, t.allocated)
	}
	freeWalked := 0
	for f := t.free; f != nil; f = f.parent {
		freeWalked++
		if freeWalked > t.allocated {
			return errors.New("pathtree: arena free list is cyclic")
		}
	}
	if freeWalked != t.freeLen {
		return fmt.Errorf("pathtree: free list holds %d nodes, accounting says %d", freeWalked, t.freeLen)
	}
	return nil
}

// Stats computes current tree statistics.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{Peers: t.root.subtreeCount}
	routers := make([]topology.NodeID, 0, t.allocated-t.freeLen+1)
	var walk func(n *node)
	walk = func(n *node) {
		routers = append(routers, n.router)
		if int(n.depth) > s.MaxDepth {
			s.MaxDepth = int(n.depth)
		}
		for _, c := range n.childOrder {
			walk(c)
		}
	}
	walk(t.root)
	s.Nodes = len(routers)
	slices.Sort(routers)
	s.RouterConflicts = s.Nodes - len(slices.Compact(routers))
	return s
}
