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
// Inserting a newcomer walks its L-hop path once, down from the landmark: a
// linear scan of each router's child run — O(L·f) for fan-out f, no hashing
// — and nothing above the node it attaches at is written. Removal writes
// upward only as far as it prunes. A closest-peer query
// ascends the newcomer's ancestor chain and searches each ancestor's other
// subtrees breadth-first. Until k candidates are held that search is
// unbounded; from then on it never enqueues a trie node farther from the
// query point than the current kth-best candidate, so the work follows the
// number of routers within that distance, not the population n — and
// shrinks as the tree fills up.
// TestClosestVisitsBounded pins the count: a mean of at most 100 nodes per
// query at 10 000 peers and 40 at 100 000 (fan-out 8, k=5), and one descent
// of the path per answered join.
//
// # Layout
//
// A tree is three pools, each carved from chunks that are never reallocated
// and recycled through free lists, linked by index:
//
//   - nodes: one 32-byte slot per router (router, parent, head of its peer
//     chain and that peer's ID, where its children are, and three bytes:
//     depth, the child run's size class, and whether more than one peer is
//     attached). A node's children are one power-of-two run of slots, in no
//     order: a join appends to it, a prune moves the run's last node into
//     the hole, and a full run moves whole to one twice its size; a node
//     that moves repoints its children's parent and its peers' records. So
//     a query enqueues a node's children without reading them, visits
//     siblings that share cache lines, and reads no record at a node with
//     one peer. A run of 64 slots or more spends its first eighth on its
//     children's routers, densely, so a descent scans 4 bytes per child of
//     a router with many. A node keeps no count of the peers below it: one
//     with no peer and no child is pruned at once, so only the root can be
//     empty;
//   - records: one 32-byte Record per resident peer — ID, refresh time,
//     super-peer flag, where its address lies — chained to the node its path
//     ends at. A peer's path is not stored: it is the parent chain of that
//     node;
//   - addresses: the peers' overlay addresses, as byte runs in 8-byte size
//     classes.
//
// No pool holds a pointer, so the collector never scans them and no peer is
// a heap object of its own. Steady-state churn retires no tree memory to
// the collector: a join-and-leave cycle allocates nothing (TestChurnAllocs)
// and churn holds the pools' high-water marks (package server's
// TestChurnRecyclesSlots).
//
// The unsorted runs trade the descent's binary search for a scan, which
// costs where one router has thousands of children. BenchmarkHubChurn
// measures a peer joining and leaving below a new child of a router with
// 4 096. Unanswered it may cost at most 3× what the sorted child runs of
// earlier builds cost; it costs about 1.3× (2.1 against 1.5 µs, 2-vCPU
// Xeon guest), the scan reading the run's dense router keys eight at a
// step. Answered (k=5, which searches all 4 096 siblings) it may be no
// slower, and is faster: 47 against 81 µs.
//
// # Two types
//
// Core is the tree keyed by slot. It takes no lock and keeps no index from
// peer ID to slot: the management server, which already serialises access to
// its state and already maps every peer ID to where the peer lives, embeds
// it directly. Tree wraps a Core with that index and a
// read-write lock: it is keyed by peer ID and safe for concurrent use.
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
	// Addr is the candidate's advertised overlay address, when whoever
	// produced the answer holds it (the management server does; a bare Tree
	// does not).
	Addr string
}

// Options tunes a Tree. It currently carries nothing: the query is exact and
// sizes itself from k.
type Options struct{}

// Tree is the per-landmark path prefix tree, keyed by peer ID. It is safe
// for concurrent use.
type Tree struct {
	mu     sync.RWMutex
	core   *Core
	byPeer map[PeerID]int32 // peer → slot in core
}

// New returns an empty tree for the given landmark router.
func New(landmark topology.NodeID, _ Options) *Tree {
	return &Tree{core: NewCore(landmark), byPeer: make(map[PeerID]int32)}
}

// Landmark returns the landmark router this tree is rooted at.
func (t *Tree) Landmark() topology.NodeID { return t.core.Landmark() }

// Len reports the number of peers currently in the tree.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.core.Len()
}

// Contains reports whether peer p is in the tree.
func (t *Tree) Contains(p PeerID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.byPeer[p]
	return ok
}

// slotOf resolves a peer to its slot. Callers hold t.mu.
func (t *Tree) slotOf(p PeerID) (int32, error) {
	slot, ok := t.byPeer[p]
	if !ok {
		return none, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	return slot, nil
}

// Depth returns the trie depth of peer p (its path length to the landmark).
func (t *Tree) Depth(p PeerID) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, err := t.slotOf(p)
	if err != nil {
		return 0, err
	}
	return t.core.Depth(slot), nil
}

// Insert adds peer p with its reported router path (peer-side first, ending
// at the landmark). Re-inserting an existing peer replaces its path.
func (t *Tree) Insert(p PeerID, path []topology.NodeID) error {
	if err := ValidatePath(path, t.core.Landmark()); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot, ok := t.byPeer[p]; ok {
		t.core.Remove(slot)
	}
	t.byPeer[p], _ = t.core.Join(p, path, 0, nil)
	return nil
}

// Remove deletes peer p, pruning now-empty trie branches. It reports whether
// the peer was present.
func (t *Tree) Remove(p PeerID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.byPeer[p]
	if ok {
		delete(t.byPeer, p)
		t.core.Remove(slot)
	}
	return ok
}

// DTree returns the inferred tree distance between two inserted peers.
func (t *Tree) DTree(p, q PeerID) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sp, err := t.slotOf(p)
	if err != nil {
		return 0, err
	}
	sq, err := t.slotOf(q)
	if err != nil {
		return 0, err
	}
	return t.core.DTree(sp, sq), nil
}

// scratchPool recycles query working memory. Queries run concurrently under
// a read lock (Tree's own, or the management server's state lock), so the
// scratch is pooled rather than hung off the tree.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the pool; Release returns it.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns sc to the pool. Hits that alias it are dead from here on.
func (sc *Scratch) Release() { scratchPool.Put(sc) }

// Answers is one caller-owned block of closest-peer answers: the candidates
// of every answer written into it in one slice, and their addresses in one
// byte block. A server writes it straight from its trees' records (Add),
// an encoder reads it straight into a response frame, so each address is
// written once between the two. A block from GetAnswers, released once
// read, has grown to its callers' answers, so writing and reading an answer
// of any number of entries allocates nothing.
type Answers struct {
	// Entries answers a batch, positionally: entry i answers the batch's
	// join i. An answer to one join or lookup is the Answer its writer
	// returns instead.
	Entries []Answer
	// Cands holds every answer's candidates, each answer one run of them.
	Cands []AnswerCand
	// Addrs holds the candidates' addresses back to back, in Cands order.
	Addrs []byte

	// cands and addrs back a new block's Cands and Addrs, so that a block
	// the pool had to make answers a join or a lookup in the one allocation
	// that made it: the collector empties the pool, and the race detector
	// drops a quarter of what is put back.
	cands [16]AnswerCand
	addrs [512]byte
}

// Answer is one answer in a block: its candidates, Cands[Lo:Hi], or the
// error that refused the query.
type Answer struct {
	Lo, Hi int32
	Err    error
}

// AnswerCand is one candidate in a block. Its address is the run of Addrs
// from the previous candidate's AddrEnd (0 for the first) to its own.
type AnswerCand struct {
	Peer    PeerID
	DTree   int32
	AddrEnd int32
}

// answersPool recycles answer blocks the way scratchPool recycles query
// scratch. Being a sync.Pool, it is emptied by the collector: a block grown
// by one wide batch is not kept for the life of the process.
var answersPool = sync.Pool{New: func() any {
	a := new(Answers)
	a.Cands, a.Addrs = a.cands[:0], a.addrs[:0]
	return a
}}

// GetAnswers takes an empty block from the pool; Release returns it.
func GetAnswers() *Answers {
	a := answersPool.Get().(*Answers)
	a.Reset(0)
	return a
}

// Release returns a to the pool. Anything that views its slices is dead
// from here on: what outlives the block is copied out of it first
// (Candidates).
func (a *Answers) Release() { answersPool.Put(a) }

// Reset empties the block and opens n zeroed entries.
func (a *Answers) Reset(n int) {
	a.Entries = slices.Grow(a.Entries[:0], n)[:n]
	clear(a.Entries)
	a.Cands, a.Addrs = a.Cands[:0], a.Addrs[:0]
}

// Add appends hit h of tree c as one candidate, its address written
// straight into the block from the record, which it returns.
func (a *Answers) Add(c *Core, h Hit) *Record {
	rec := c.recs.at(h.Slot)
	a.Addrs = c.AppendAddr(a.Addrs, rec)
	a.Cands = append(a.Cands, AnswerCand{Peer: h.Peer, DTree: h.DTree, AddrEnd: int32(len(a.Addrs))})
	return rec
}

// Addr returns candidate j's address, a view into the block.
func (a *Answers) Addr(j int32) []byte {
	start := int32(0)
	if j > 0 {
		start = a.Cands[j-1].AddrEnd
	}
	return a.Addrs[start:a.Cands[j].AddrEnd]
}

// Answered runs call, an answering road that appends one answer to a block,
// on a block from the pool, and copies the answer out: the form of the
// answer for callers that keep it.
func Answered(call func(*Answers) (Answer, error)) ([]Candidate, error) {
	a := GetAnswers()
	defer a.Release()
	run, err := call(a)
	if err != nil {
		return nil, err
	}
	return a.Candidates(run.Lo, run.Hi), nil
}

// Candidates copies candidates lo to hi out of the block in the backend's
// form, their addresses substrings of one string: two allocations however
// many there are, and nothing that aliases the block.
func (a *Answers) Candidates(lo, hi int32) []Candidate {
	out := make([]Candidate, hi-lo)
	if lo == hi {
		return out
	}
	start := int32(0)
	if lo > 0 {
		start = a.Cands[lo-1].AddrEnd
	}
	addrs := string(a.Addrs[start:a.Cands[hi-1].AddrEnd])
	from := int32(0)
	for j := lo; j < hi; j++ {
		c := &a.Cands[j]
		to := c.AddrEnd - start
		out[j-lo] = Candidate{Peer: c.Peer, DTree: int(c.DTree), Addr: addrs[from:to]}
		from = to
	}
	return out
}

// candidates copies a query's hits out of its scratch: the query's one
// allocation.
func candidates(hits []Hit) []Candidate {
	out := make([]Candidate, len(hits))
	for i, h := range hits {
		out[i] = Candidate{Peer: h.Peer, DTree: int(h.DTree)}
	}
	return out
}

// Closest returns the k peers with the smallest dtree distance to inserted
// peer p, excluding p itself. Results are sorted by (DTree, PeerID).
func (t *Tree) Closest(p PeerID, k int) ([]Candidate, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, err := t.slotOf(p)
	if err != nil || k <= 0 {
		return nil, err
	}
	sc := GetScratch()
	defer sc.Release()
	return candidates(t.core.Closest(slot, k, sc)), nil
}

// ClosestToPathExcluding answers a closest-peers query for a (possibly not
// yet inserted) newcomer whose reported path is given, leaving out peer self
// (almost always the joiner itself). This is the server's "second round":
// the newcomer's candidate list is computed before or without inserting it.
func (t *Tree) ClosestToPathExcluding(path []topology.NodeID, k int, self PeerID) ([]Candidate, error) {
	if err := ValidatePath(path, t.core.Landmark()); err != nil || k <= 0 {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	skip := none
	if slot, ok := t.byPeer[self]; ok {
		skip = slot
	}
	sc := GetScratch()
	defer sc.Release()
	return candidates(t.core.ClosestToPath(path, k, skip, sc)), nil
}

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
	slot, err := t.slotOf(p)
	if err != nil {
		return nil, err
	}
	return t.core.AppendPath(make([]topology.NodeID, 0, t.core.Depth(slot)+1), slot), nil
}

// ArenaStats returns current pool occupancy. Under steady-state churn
// (inserts balanced by removes) Allocated stays bounded: pruned nodes are
// recycled rather than retired to the garbage collector.
func (t *Tree) ArenaStats() ArenaStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.core.ArenaStats()
}

// CheckInvariants is Core.CheckInvariants plus the peer index: every indexed
// peer's slot holds that peer's record, and nothing else is resident.
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.core.CheckInvariants(); err != nil {
		return err
	}
	for slot, rec := range t.core.Records() {
		if at, ok := t.byPeer[rec.ID]; !ok || at != slot {
			return fmt.Errorf("pathtree: peer %d index inconsistent", rec.ID)
		}
	}
	if t.core.Len() != len(t.byPeer) {
		return fmt.Errorf("pathtree: %d peers attached but %d indexed", t.core.Len(), len(t.byPeer))
	}
	return nil
}
