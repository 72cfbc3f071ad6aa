package server

import (
	"sync"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// indexStripes is the number of independently locked segments of an Index.
// Joins of different peers then rarely meet on one lock, which keeps the
// index out of the way when several servers that share it ingest in
// parallel.
const indexStripes = 64

// ref locates a peer's record: the landmark whose tree holds it and the slot
// within that tree. It names no server, so it stays good when the tree is
// handed from one server to another.
type ref struct {
	lm   topology.NodeID
	slot int32
}

// Index maps each registered peer to where its record sits — the one
// per-peer map of a node. A lone server owns a private one; the servers of a
// cluster share one (NewSharing), which is also how the cluster routes a
// request that carries a peer and no path: to the owner of the landmark
// Place names. The entries hold no pointers, so the collector never scans
// them.
//
// A stripe lock is a leaf: it is taken with a server's state lock held, or
// with none, and nothing is taken under it. See the package comment for who
// may write which entry.
type Index struct {
	stripes [indexStripes]indexStripe
}

type indexStripe struct {
	mu sync.RWMutex
	m  map[pathtree.PeerID]ref
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	x := &Index{}
	for i := range x.stripes {
		x.stripes[i].m = make(map[pathtree.PeerID]ref)
	}
	return x
}

func (x *Index) stripe(p pathtree.PeerID) *indexStripe {
	// Peer IDs are often sequential; mix the bits so neighbours spread
	// across stripes.
	h := uint64(p) * 0x9e3779b97f4a7c15
	return &x.stripes[h>>58] // top 6 bits index the 64 stripes
}

func (x *Index) get(p pathtree.PeerID) (ref, bool) {
	s := x.stripe(p)
	s.mu.RLock()
	r, ok := s.m[p]
	s.mu.RUnlock()
	return r, ok
}

// swap points p at r and returns what the entry said before.
func (x *Index) swap(p pathtree.PeerID, r ref) (old ref, had bool) {
	s := x.stripe(p)
	s.mu.Lock()
	old, had = s.m[p]
	s.m[p] = r
	s.mu.Unlock()
	return old, had
}

// deleteIf removes p's entry only if it still says r, and reports whether it
// did: an entry another server's join has since overwritten is not this
// caller's to delete.
func (x *Index) deleteIf(p pathtree.PeerID, r ref) bool {
	s := x.stripe(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.m[p]; !ok || cur != r {
		return false
	}
	delete(s.m, p)
	return true
}

// Place reports where peer p's record sits: the landmark it is registered
// under, which is what routes a request for it, and the slot in that
// landmark's tree.
func (x *Index) Place(p pathtree.PeerID) (lm topology.NodeID, slot int32, ok bool) {
	r, ok := x.get(p)
	return r.lm, r.slot, ok
}

// Len counts the registered peers.
func (x *Index) Len() int {
	n := 0
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
