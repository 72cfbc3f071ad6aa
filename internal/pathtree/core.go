package pathtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"unsafe"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// Slab geometry. Nodes and records are carved from chunks of slabSize
// slots, child pairs from chunks of kidChunk pairs, address bytes from
// chunks of addrChunk bytes; a chunk is never reallocated, so growing a tree
// copies nothing and its slack is at most one chunk per pool. Addresses take
// runs in addrStep-byte size classes — the Go allocator's own small-size
// step, so an address costs no more here than as a string of its own — up
// to codec.MaxAddrLen.
const (
	slabShift   = 8
	slabSize    = 1 << slabShift
	kidShift    = 10
	kidChunk    = 1 << kidShift
	addrShift   = 13
	addrChunk   = 1 << addrShift
	addrStep    = 8
	addrClasses = codec.MaxAddrLen / addrStep

	none int32 = -1 // the nil index
	root int32 = 0  // the landmark's node, carved first
)

// node is one router of the trie: 24 bytes, no pointers, every link an
// index into one of the tree's pools. A node with no peer attached and no
// child is pruned, so every node but the root has a peer in its subtree.
type node struct {
	// router is the router this node stands for; topology.InvalidNode,
	// which no validated path holds, marks a free node.
	router topology.NodeID
	// parent is the node one hop closer to the landmark (none at the root);
	// while the node is parked on the free list it is the list link.
	parent int32
	// firstPeer heads the chain of records attached exactly here (their
	// path ends at this router), linked through Record.next.
	firstPeer int32
	// kidsOff and kidsLen locate the node's children in the kid pool: the
	// first kidsLen pairs of a run of kidsCap(), sorted ascending by router.
	kidsOff, kidsLen int32
	// depth is the distance from the landmark in hops: ValidatePath caps a
	// path at codec.MaxPathLen routers, so it is at most 255.
	depth uint8
	// kidsLog is 0 when the node owns no child run, else 1 + the run's size
	// class: the run holds 1<<(kidsLog-1) pairs.
	kidsLog uint8
}

// kidsCap is the number of pairs in n's child run.
func (n *node) kidsCap() int32 { return 1 << n.kidsLog >> 1 }

// kid is one entry of a node's child run: the child's router beside its
// node index, so a search compares keys that sit together in one cache line
// instead of dereferencing a child per probe.
type kid struct {
	router topology.NodeID
	idx    int32
}

// Record is the one record a tree holds per resident peer: everything the
// management server keeps about the peer apart from its path, which is the
// parent chain of the node the record hangs off. The trie reads ID and its
// own two links; RefreshNanos, Super and the address are the caller's, zero
// on a fresh record. The address lives in the tree's address pool (SetAddr
// writes it, Addr reads it), so a record is 32 bytes and holds no pointer.
type Record struct {
	// ID is the peer.
	ID PeerID
	// RefreshNanos is the time of the last join or refresh, in Unix
	// nanoseconds.
	RefreshNanos int64
	// addr is the offset in the address pool of the run holding the
	// address, and addrLen its length; an empty address owns no run.
	addr int32
	// node is the trie node the peer is attached at (none while the record
	// is free); next links the records attached at one node, and the free
	// list.
	node, next int32
	addrLen    uint16
	// Super marks a super-peer.
	Super bool
}

// slab is a pool of fixed-size slots carved from chunks and addressed by
// index.
type slab[T any] struct {
	chunks []*[slabSize]T
	carved int32 // slots handed out so far, free ones included
	free   int32 // head of the free list (none when empty)
	freeN  int32
}

func (s *slab[T]) at(i int32) *T { return &s.chunks[i>>slabShift][i&(slabSize-1)] }

// carve returns a never-used slot, opening a chunk when the last is full.
func (s *slab[T]) carve() int32 {
	if int(s.carved)>>slabShift == len(s.chunks) {
		s.chunks = append(s.chunks, new([slabSize]T))
	}
	s.carved++
	return s.carved - 1
}

// kidPool hands out runs of child pairs in power-of-two sizes. Freed runs
// wait on a free list per size and are reused whole; nothing is split or
// merged, so a run's size class never changes.
type kidPool struct {
	// chunks[i] starts at pool offset i<<kidShift. A run longer than one
	// chunk owns consecutive entries, each a suffix of one allocation, so
	// slicing from its first entry reaches the whole run.
	chunks [][]kid
	// next and end bound the part of the newest chunk not yet handed out.
	next, end int32
	free      [31]int32 // per size class, linked through the first pair's idx
	carved    int32     // pairs handed out so far, free ones included
	freeN     int32     // pairs on the free lists
}

func (p *kidPool) run(off, n int32) []kid {
	return p.chunks[off>>kidShift][off&(kidChunk-1):][:n]
}

// alloc returns the offset of a run of 1<<class pairs.
func (p *kidPool) alloc(class int) int32 {
	size := int32(1) << class
	if off := p.free[class]; off != none {
		p.free[class] = p.run(off, 1)[0].idx
		p.freeN -= size
		return off
	}
	if p.end-p.next < size {
		// Park what is left of the current chunk on the free lists, largest
		// piece first, and open a chunk (or, for a run that outgrows one, a
		// region of whole chunks).
		for left := p.end - p.next; left > 0; left = p.end - p.next {
			piece := bits.Len32(uint32(left)) - 1
			p.carved += 1 << piece
			p.release(p.next, piece)
			p.next += 1 << piece
		}
		region := make([]kid, max(size, kidChunk))
		p.next = int32(len(p.chunks)) << kidShift
		p.end = p.next + int32(len(region))
		for o := 0; o < len(region); o += kidChunk {
			p.chunks = append(p.chunks, region[o:])
		}
	}
	off := p.next
	p.next += size
	p.carved += size
	return off
}

// release parks a run on its size class's free list.
func (p *kidPool) release(off int32, class int) {
	p.run(off, 1)[0].idx = p.free[class]
	p.free[class] = off
	p.freeN += 1 << class
}

// addrPool hands out byte runs for addresses, one size class per addrStep
// bytes. As in kidPool, freed runs wait on a free list per class and are
// reused whole, and a run never straddles two chunks.
type addrPool struct {
	chunks []*[addrChunk]byte
	carved int32              // bytes handed out so far, free ones included
	free   [addrClasses]int32 // per size class, linked through a run's first 4 bytes
	freeN  int32              // bytes on the free lists
}

// addrClass is the size class of an n-byte address, 0 < n ≤ codec.MaxAddrLen;
// its runs are (class+1)·addrStep bytes.
func addrClass(n int) int { return (n - 1) / addrStep }

func (p *addrPool) run(off int32, n int) []byte {
	return p.chunks[off>>addrShift][off&(addrChunk-1):][:n]
}

// alloc returns the offset of a run of the given class.
func (p *addrPool) alloc(class int) int32 {
	size := int32(class+1) * addrStep
	if off := p.free[class]; off != none {
		p.free[class] = int32(binary.LittleEndian.Uint32(p.run(off, 4)))
		p.freeN -= size
		return off
	}
	if end := int32(len(p.chunks)) << addrShift; end-p.carved < size {
		// Park the rest of the current chunk as one run and open a chunk.
		if left := end - p.carved; left > 0 {
			p.release(p.carved, int(left/addrStep)-1)
		}
		p.chunks = append(p.chunks, new([addrChunk]byte))
		p.carved = end
	}
	p.carved += size
	return p.carved - size
}

// release parks a run on its class's free list.
func (p *addrPool) release(off int32, class int) {
	binary.LittleEndian.PutUint32(p.run(off, 4), uint32(p.free[class]))
	p.free[class] = off
	p.freeN += int32(class+1) * addrStep
}

// Core is the per-landmark path prefix tree, keyed by slot: Join returns
// the slot of the peer's record, and every later call names the peer by it.
// Core takes no lock and keeps no index from peer IDs to slots — both are
// its caller's: calls that modify the tree need exclusive access, queries
// may run concurrently with each other. Tree is the locked, ID-keyed form.
type Core struct {
	landmark topology.NodeID
	nodes    slab[node]
	recs     slab[Record]
	kids     kidPool
	addrs    addrPool
}

// NewCore returns an empty tree for the given landmark router.
func NewCore(landmark topology.NodeID) *Core {
	c := &Core{landmark: landmark}
	c.nodes.free, c.recs.free = none, none
	for i := range c.kids.free {
		c.kids.free[i] = none
	}
	for i := range c.addrs.free {
		c.addrs.free[i] = none
	}
	*c.nodes.at(c.nodes.carve()) = node{router: landmark, parent: none, firstPeer: none}
	return c
}

// Landmark returns the landmark router this tree is rooted at.
func (c *Core) Landmark() topology.NodeID { return c.landmark }

// Len reports the number of peers currently in the tree.
func (c *Core) Len() int { return int(c.recs.carved - c.recs.freeN) }

// Record returns the record in slot, for the caller to read or to set the
// fields that are its own. The pointer is good until the slot is removed.
func (c *Core) Record(slot int32) *Record { return c.recs.at(slot) }

// SetAddr copies addr in as the address of rec, a live record of this tree,
// and frees the run the old address held (which a new address of the same
// size class takes straight back). addr is at most codec.MaxAddrLen bytes:
// the caller checks that where the address enters.
func (c *Core) SetAddr(rec *Record, addr string) {
	if rec.addrLen > 0 {
		c.addrs.release(rec.addr, addrClass(int(rec.addrLen)))
	}
	if rec.addrLen = uint16(len(addr)); len(addr) > 0 {
		rec.addr = c.addrs.alloc(addrClass(len(addr)))
		copy(c.addrs.run(rec.addr, len(addr)), addr)
	}
}

// Addr returns rec's address. The bytes alias the tree's pool: they are good
// under the lock rec was read under, until the next modifying call.
func (c *Core) Addr(rec *Record) []byte {
	if rec.addrLen == 0 {
		return nil
	}
	return c.addrs.run(rec.addr, int(rec.addrLen))
}

// Holds reports whether slot is the live record of peer p: the check for a
// caller whose slot number may have outlived the record it named.
func (c *Core) Holds(slot int32, p PeerID) bool {
	if slot < 0 || slot >= c.recs.carved {
		return false
	}
	rec := c.recs.at(slot)
	return rec.node != none && rec.ID == p
}

// Records iterates over every resident peer's slot and record, in slot
// order. The loop body may Remove the slot it was handed.
func (c *Core) Records() iter.Seq2[int32, *Record] {
	return func(yield func(int32, *Record) bool) {
		for slot := int32(0); slot < c.recs.carved; slot++ {
			if rec := c.recs.at(slot); rec.node != none && !yield(slot, rec) {
				return
			}
		}
	}
}

// ValidatePath checks a reported peer→landmark router path: 1 to
// codec.MaxPathLen routers, ending at the landmark, none anonymous or repeated.
// Core trusts its caller to have made this check, once, where a path enters.
func ValidatePath(path []topology.NodeID, landmark topology.NodeID) error {
	if len(path) == 0 || len(path) > codec.MaxPathLen {
		return fmt.Errorf("pathtree: path of %d hops, want 1 to %d", len(path), codec.MaxPathLen)
	}
	if path[len(path)-1] != landmark {
		return fmt.Errorf("pathtree: path ends at router %d, not landmark %d",
			path[len(path)-1], landmark)
	}
	// Paths are short (bounded by the cap above), so a quadratic scan for
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

// search returns the position of router r in a sorted child run, or, when it
// is absent, the position it would be inserted at. It runs once per path hop
// of every join and query; the open-coded search is a third faster on
// BenchmarkPathTreeChurn than slices.BinarySearchFunc, which calls its
// comparison through a func value.
func search(run []kid, r topology.NodeID) (int, bool) {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid].router < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(run) && run[lo].router == r
}

// kidsOf returns n's children, sorted by router.
func (c *Core) kidsOf(n *node) []kid {
	if n.kidsLen == 0 {
		return nil // a leaf owns no run
	}
	return c.kids.run(n.kidsOff, n.kidsLen)
}

// descend walks down from the landmark as far as the trie matches the
// reported (peer-side first) path. It returns the node reached, the index
// in path of the first hop the trie lacks (-1 when the whole path matched)
// and the position that hop would take among the reached node's children.
func (c *Core) descend(path []topology.NodeID, sc *Scratch) (cur int32, i, at int) {
	cur = root
	for i = len(path) - 2; i >= 0; i-- {
		run := c.kidsOf(c.nodes.at(cur))
		var ok bool
		if at, ok = search(run, path[i]); !ok {
			break
		}
		cur = run[at].idx
	}
	if sc != nil {
		sc.hops += len(path) - 2 - i
	}
	return cur, i, at
}

// addChild links a new node for router r under parent at position at of its
// child run, moving the run to one of twice the size when it is full.
func (c *Core) addChild(parent int32, at int, r topology.NodeID) int32 {
	idx := c.nodes.free
	if idx != none {
		c.nodes.free = c.nodes.at(idx).parent
		c.nodes.freeN--
	} else {
		idx = c.nodes.carve()
	}
	pn := c.nodes.at(parent)
	*c.nodes.at(idx) = node{router: r, parent: parent, depth: pn.depth + 1, firstPeer: none}
	if pn.kidsLen == pn.kidsCap() {
		// The new run's class is one above the old run's: kidsLog itself.
		off := c.kids.alloc(int(pn.kidsLog))
		if pn.kidsLog > 0 {
			copy(c.kids.run(off, pn.kidsLen), c.kidsOf(pn))
			c.kids.release(pn.kidsOff, int(pn.kidsLog)-1)
		}
		pn.kidsOff = off
		pn.kidsLog++
	}
	pn.kidsLen++
	run := c.kidsOf(pn)
	copy(run[at+1:], run[at:])
	run[at] = kid{router: r, idx: idx}
	return idx
}

// Join attaches peer p at the end of its reported path (peer-side first,
// ending at the landmark) and returns the slot of its record, fresh apart
// from ID. With k > 0 it first answers the newcomer's closest-peers query,
// on the same descent: the walk down the path stops where the trie stops
// matching, the query runs from there, and the walk resumes creating the
// routers that were missing. The hits alias sc and are good until sc is used
// again. The path must have passed ValidatePath, and p must not be resident:
// a peer that re-joins is removed first.
func (c *Core) Join(p PeerID, path []topology.NodeID, k int, sc *Scratch) (slot int32, hits []Hit) {
	cur, i, at := c.descend(path, sc)
	if k > 0 {
		hits = c.closestFrom(cur, len(path)-1, k, none, nil, sc)
	}
	for ; i >= 0; i-- {
		cur = c.addChild(cur, at, path[i])
		at = 0 // a node just made has no children to sort among
	}
	slot = c.recs.free
	if slot != none {
		c.recs.free = c.recs.at(slot).next
		c.recs.freeN--
	} else {
		slot = c.recs.carve()
	}
	n := c.nodes.at(cur)
	*c.recs.at(slot) = Record{ID: p, node: cur, next: n.firstPeer}
	n.firstPeer = slot
	return slot, hits
}

// Remove detaches the peer in slot, recycles its record and its address's
// run, and prunes the trie branches it leaves empty.
func (c *Core) Remove(slot int32) {
	rec := c.recs.at(slot)
	at := rec.node
	link := &c.nodes.at(at).firstPeer
	for *link != slot {
		link = &c.recs.at(*link).next
	}
	*link = rec.next
	c.SetAddr(rec, "")
	*rec = Record{node: none, next: c.recs.free}
	c.recs.free = slot
	c.recs.freeN++
	// Prune empty leaves upward, recycling each node and its child run.
	// Modifying calls have the tree to themselves, so no query can still
	// hold an index into what is recycled here.
	for m, n := at, c.nodes.at(at); m != root && n.firstPeer == none && n.kidsLen == 0; {
		parent := n.parent
		pn := c.nodes.at(parent)
		run := c.kidsOf(pn)
		i, _ := search(run, n.router)
		copy(run[i:], run[i+1:])
		pn.kidsLen--
		if n.kidsLog > 0 {
			c.kids.release(n.kidsOff, int(n.kidsLog)-1)
		}
		*n = node{router: topology.InvalidNode, parent: c.nodes.free}
		c.nodes.free = m
		c.nodes.freeN++
		m, n = parent, pn
	}
}

// Depth returns the trie depth of the peer in slot: its path length to the
// landmark.
func (c *Core) Depth(slot int32) int { return int(c.nodes.at(c.recs.at(slot).node).depth) }

// DTree returns the inferred tree distance between the peers in two slots:
// the walk from one up to their deepest common ancestor and down to the
// other.
func (c *Core) DTree(a, b int32) int {
	na, nb := c.nodes.at(c.recs.at(a).node), c.nodes.at(c.recs.at(b).node)
	sum := int(na.depth) + int(nb.depth)
	for na.depth > nb.depth {
		na = c.nodes.at(na.parent)
	}
	for nb.depth > na.depth {
		nb = c.nodes.at(nb.parent)
	}
	for na != nb {
		na, nb = c.nodes.at(na.parent), c.nodes.at(nb.parent)
	}
	return sum - 2*int(na.depth)
}

// AppendPath appends the reported path of the peer in slot to dst, peer-side
// first: the routers of its node's parent chain.
func (c *Core) AppendPath(dst []topology.NodeID, slot int32) []topology.NodeID {
	for m := c.recs.at(slot).node; m != none; {
		n := c.nodes.at(m)
		dst = append(dst, n.router)
		m = n.parent
	}
	return dst
}

// Walk visits every resident peer, depth-first, with its reported path
// (peer-side first). Peers attached at one router are handed the same slice;
// it aliases memory Walk allocates in large blocks and never writes again,
// so fn may keep it but must not modify it.
func (c *Core) Walk(fn func(rec *Record, path []topology.NodeID)) {
	var stack, block []topology.NodeID // routers from the landmark down; unused arena
	var visit func(m int32)
	visit = func(m int32) {
		n := c.nodes.at(m)
		stack = append(stack, n.router)
		if n.firstPeer != none {
			if len(block) < len(stack) {
				block = make([]topology.NodeID, max(len(stack), 1<<14))
			}
			path := block[:len(stack):len(stack)]
			block = block[len(stack):]
			for i, r := range stack {
				path[len(path)-1-i] = r
			}
			for s := n.firstPeer; s != none; {
				rec := c.recs.at(s)
				s = rec.next
				fn(rec, path)
			}
		}
		for _, kd := range c.kidsOf(n) {
			visit(kd.idx)
		}
		stack = stack[:len(stack)-1]
	}
	visit(root)
}

// Hit is one entry of a query's answer as the trie produces it: the
// candidate's slot beside its ID, so the caller reads whatever else the
// answer needs straight from the record.
type Hit struct {
	Peer  PeerID
	DTree int32
	Slot  int32
}

// Scratch is a query's reusable working memory: the breadth-first queue and
// the top-k buffer the returned hits alias. One Scratch serves one query at
// a time; GetScratch hands them out of a pool.
type Scratch struct {
	queue []int32
	top   []Hit
	// visits counts the trie nodes queries enqueued and hops the child-run
	// searches descents made; TestClosestVisitsBounded reads both.
	visits, hops int
}

// Closest returns the k peers with the smallest dtree distance to the peer
// in slot, that peer excluded, sorted by (DTree, Peer). The hits alias sc.
func (c *Core) Closest(slot int32, k int, sc *Scratch) []Hit {
	at := c.recs.at(slot).node
	return c.closestFrom(at, int(c.nodes.at(at).depth), k, slot, nil, sc)
}

// ClosestToPath answers the query for a newcomer whose (validated) path is
// given without inserting it, leaving out the peer in slot skip (none for
// nobody) and any peer in exclude.
func (c *Core) ClosestToPath(path []topology.NodeID, k int, skip int32, exclude map[PeerID]bool, sc *Scratch) []Hit {
	// The newcomer's would-be depth is len(path)-1, wherever the trie stops
	// matching its path.
	cur, _, _ := c.descend(path, sc)
	return c.closestFrom(cur, len(path)-1, k, skip, exclude, sc)
}

// closestFrom computes the exact k-nearest peers by dtree for a query point
// located at trie node start with the given query depth (which may exceed
// start's depth when the query path diverged below start).
//
// The walk ascends the ancestor chain; at each ancestor a (depth da) it
// searches a's subtree, minus the child subtree already covered, breadth
// first. A peer found there at depth dq has dca depth exactly da, hence
// dtree = (qd − da) + (dq − da), so the search meets peers in non-decreasing
// dtree order. Once k candidates are held with kth-best distance w it
// neither enqueues nor scans a node deeper than w − qd + 2·da — inclusive, so
// an equal-distance peer with a smaller ID still wins its tie — and the
// ascent stops at the first ancestor whose own distance qd − da exceeds w.
// That makes the answer exact, not approximate.
func (c *Core) closestFrom(start int32, queryDepth, k int, skip int32, exclude map[PeerID]bool, sc *Scratch) []Hit {
	if k <= 0 {
		return nil
	}
	if cap(sc.top) < k {
		sc.top = make([]Hit, 0, k)
	}
	out := sc.top[:0:k]
	queue := sc.queue
	covered := none
	for a := start; a != none; {
		an := c.nodes.at(a)
		da := int(an.depth)
		if len(out) == k && queryDepth-da > int(out[k-1].DTree) {
			break
		}
		base := queryDepth - 2*da // base + depth = dtree of a peer found under a
		queue = append(queue[:0], a)
		for i := 0; i < len(queue); i++ {
			n := c.nodes.at(queue[i])
			d := base + int(n.depth)
			if len(out) == k && d > int(out[k-1].DTree) {
				break // BFS order: every later node is at least as deep
			}
			for s := n.firstPeer; s != none; {
				rec := c.recs.at(s)
				if s != skip && (exclude == nil || !exclude[rec.ID]) {
					out = pushHit(out, Hit{Peer: rec.ID, DTree: int32(d), Slot: s})
				}
				s = rec.next
			}
			if len(out) == k && d+1 > int(out[k-1].DTree) {
				continue
			}
			for _, kd := range c.kidsOf(n) {
				if kd.idx != covered {
					queue = append(queue, kd.idx)
				}
			}
		}
		sc.visits += len(queue)
		covered = a
		a = an.parent
	}
	sc.queue = queue
	return out
}

// pushHit inserts h into out, which is sorted by (DTree, Peer) and never
// grows beyond its capacity: when full, h either displaces the last entry or
// is dropped.
func pushHit(out []Hit, h Hit) []Hit {
	less := func(x, y Hit) bool {
		return x.DTree < y.DTree || (x.DTree == y.DTree && x.Peer < y.Peer)
	}
	if len(out) == cap(out) {
		if !less(h, out[len(out)-1]) {
			return out
		}
		out = out[:len(out)-1]
	}
	i := len(out)
	out = append(out, h)
	for ; i > 0 && less(h, out[i-1]); i-- {
		out[i] = out[i-1]
	}
	out[i] = h
	return out
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

// Stats computes current tree statistics in one pass over the node slab.
func (c *Core) Stats() Stats {
	s := Stats{Peers: c.Len()}
	routers := make([]topology.NodeID, 0, c.nodes.carved-c.nodes.freeN)
	for i := int32(0); i < c.nodes.carved; i++ {
		if n := c.nodes.at(i); n.router != topology.InvalidNode {
			routers = append(routers, n.router)
			s.MaxDepth = max(s.MaxDepth, int(n.depth))
		}
	}
	s.Nodes = len(routers)
	slices.Sort(routers)
	s.RouterConflicts = s.Nodes - len(slices.Compact(routers))
	return s
}

// ArenaStats reports the occupancy of a tree's four pools. In each, what is
// carved stays carved: removed peers and pruned routers park their slots on
// a free list for the next join, so under steady churn the carved figures
// stop moving.
type ArenaStats struct {
	// Allocated is the number of nodes ever carved — the node pool's
	// high-water mark, not counting the root. Free of them are parked on the
	// free list; Live = Allocated − Free are in the trie.
	Allocated, Free, Live int
	// Records and FreeRecords are the same two figures for peer records.
	Records, FreeRecords int
	// Kids and FreeKids are the same for child pairs: pairs handed out in
	// runs, and pairs in runs parked on the per-size free lists.
	Kids, FreeKids int
	// AddrBytes and FreeAddrBytes are the same for address bytes.
	AddrBytes, FreeAddrBytes int
}

// NodeBytes, RecordBytes and KidBytes are the slot sizes of the node, record
// and child-pair pools: what one count of ArenaStats weighs in each.
const (
	NodeBytes   = int(unsafe.Sizeof(node{}))
	RecordBytes = int(unsafe.Sizeof(Record{}))
	KidBytes    = int(unsafe.Sizeof(kid{}))
)

// Plus returns the occupancy of a's pools and b's together.
func (a ArenaStats) Plus(b ArenaStats) ArenaStats {
	return ArenaStats{a.Allocated + b.Allocated, a.Free + b.Free, a.Live + b.Live, a.Records + b.Records,
		a.FreeRecords + b.FreeRecords, a.Kids + b.Kids, a.FreeKids + b.FreeKids,
		a.AddrBytes + b.AddrBytes, a.FreeAddrBytes + b.FreeAddrBytes}
}

// ArenaStats returns current pool occupancy.
func (c *Core) ArenaStats() ArenaStats {
	allocated, free := int(c.nodes.carved)-1, int(c.nodes.freeN)
	return ArenaStats{
		Allocated: allocated, Free: free, Live: allocated - free,
		Records: int(c.recs.carved), FreeRecords: int(c.recs.freeN),
		Kids: int(c.kids.carved), FreeKids: int(c.kids.freeN),
		AddrBytes: int(c.addrs.carved), FreeAddrBytes: int(c.addrs.freeN),
	}
}

// CheckInvariants deeply validates the tree's internal consistency: depth
// bookkeeping, parent/child symmetry, sorted child runs within their
// capacity, the peer chains, no empty node left unpruned, and, for each of
// the four pools, that every slot or byte carved is either reachable from
// the root or parked on a free list — for addresses, that the live and free
// runs tile the carved bytes. It is O(size) and intended for tests and
// debugging; it returns the first violation found.
func (c *Core) CheckInvariants() error {
	var liveNodes, liveRecs, liveKids int32
	// claim marks the addrStep-byte units of an address run, live or free,
	// as used, and reports false for a run that is misplaced or overlaps one
	// claimed before.
	used := make([]bool, c.addrs.carved/addrStep)
	claim := func(off, size int32) bool {
		if off < 0 || off%addrStep != 0 || off+size > c.addrs.carved || off&(addrChunk-1)+size > addrChunk {
			return false
		}
		for u := off / addrStep; u < (off+size)/addrStep; u++ {
			if used[u] {
				return false
			}
			used[u] = true
		}
		return true
	}
	var walk func(m int32) error
	walk = func(m int32) error {
		n := c.nodes.at(m)
		liveNodes++
		liveKids += n.kidsCap()
		if n.kidsLen > n.kidsCap() {
			return fmt.Errorf("pathtree: node %d holds %d children in a run of %d", n.router, n.kidsLen, n.kidsCap())
		}
		if m != root && n.firstPeer == none && n.kidsLen == 0 {
			return fmt.Errorf("pathtree: empty node %d not pruned", n.router)
		}
		var count int32
		for s := n.firstPeer; s != none; s = c.recs.at(s).next {
			if count++; count > c.recs.carved {
				return fmt.Errorf("pathtree: peer chain at node %d is cyclic", n.router)
			}
			rec := c.recs.at(s)
			if rec.node != m {
				return fmt.Errorf("pathtree: peer %d chained at node %d but records node index %d", rec.ID, n.router, rec.node)
			}
			if l := int(rec.addrLen); l > codec.MaxAddrLen || (l > 0 && !claim(rec.addr, int32(addrClass(l)+1)*addrStep)) {
				return fmt.Errorf("pathtree: peer %d's %d-byte address at %d is outside the pool or overlaps another", rec.ID, l, rec.addr)
			}
		}
		liveRecs += count
		run := c.kidsOf(n)
		for i, kd := range run {
			if i > 0 && run[i-1].router >= kd.router {
				return fmt.Errorf("pathtree: node %d child run not strictly ascending", n.router)
			}
			ch := c.nodes.at(kd.idx)
			if ch.router != kd.router {
				return fmt.Errorf("pathtree: node %d files child %d under router %d", n.router, ch.router, kd.router)
			}
			if ch.parent != m {
				return fmt.Errorf("pathtree: child %d of %d has wrong parent", ch.router, n.router)
			}
			if int(ch.depth) != int(n.depth)+1 {
				return fmt.Errorf("pathtree: child %d depth %d under depth %d", ch.router, ch.depth, n.depth)
			}
			if err := walk(kd.idx); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return err
	}
	freeNodes, err := chainLen(c.nodes.free, c.nodes.carved, func(i int32) (int32, bool) {
		n := c.nodes.at(i)
		return n.parent, n.router == topology.InvalidNode && n.kidsLog == 0
	})
	if err != nil || freeNodes != c.nodes.freeN || liveNodes+freeNodes != c.nodes.carved {
		return fmt.Errorf("pathtree: node pool: %d live + %d free (%d accounted, %v) != %d carved",
			liveNodes, freeNodes, c.nodes.freeN, err, c.nodes.carved)
	}
	freeRecs, err := chainLen(c.recs.free, c.recs.carved, func(i int32) (int32, bool) {
		r := c.recs.at(i)
		return r.next, r.node == none && r.addrLen == 0
	})
	if err != nil || freeRecs != c.recs.freeN || liveRecs+freeRecs != c.recs.carved {
		return fmt.Errorf("pathtree: record pool: %d live + %d free (%d accounted, %v) != %d carved",
			liveRecs, freeRecs, c.recs.freeN, err, c.recs.carved)
	}
	var freeKids int32
	for class, head := range c.kids.free {
		runs, err := chainLen(head, c.kids.carved, func(off int32) (int32, bool) {
			return c.kids.run(off, 1)[0].idx, true
		})
		if err != nil {
			return fmt.Errorf("pathtree: kid pool, size class %d: %v", class, err)
		}
		freeKids += runs << class
	}
	if freeKids != c.kids.freeN || liveKids+freeKids != c.kids.carved {
		return fmt.Errorf("pathtree: kid pool: %d live + %d free (%d accounted) != %d carved",
			liveKids, freeKids, c.kids.freeN, c.kids.carved)
	}
	var freeAddr int32
	for class, head := range c.addrs.free {
		size := int32(class+1) * addrStep
		runs, err := chainLen(head, c.addrs.carved/addrStep, func(off int32) (int32, bool) {
			if !claim(off, size) {
				return 0, false
			}
			return int32(binary.LittleEndian.Uint32(c.addrs.run(off, 4))), true
		})
		if err != nil {
			return fmt.Errorf("pathtree: address pool, size class %d: %v", class, err)
		}
		freeAddr += runs * size
	}
	if freeAddr != c.addrs.freeN || slices.Contains(used, false) {
		return fmt.Errorf("pathtree: address pool: %d free bytes (%d accounted) of %d carved, or a byte in no run",
			freeAddr, c.addrs.freeN, c.addrs.carved)
	}
	return nil
}

// chainLen walks a free list from head, checking each entry with next (which
// also says whether the entry looks free) and giving up after limit entries.
func chainLen(head, limit int32, next func(int32) (int32, bool)) (int32, error) {
	var n int32
	for i := head; i != none; n++ {
		if n > limit {
			return 0, errors.New("free list is cyclic")
		}
		var ok bool
		if i, ok = next(i); !ok {
			return 0, errors.New("free list holds a live or stray entry")
		}
	}
	return n, nil
}
