package server

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// checkState checks s, and with it the servers that share its index: every
// tree passes the trie invariant checker and its Len() counts its live
// records; every resident record is the one
// its peer's index entry names, so no peer is in two trees; and the index
// holds nothing else, so every entry names a live record of its peer in a
// tree one of them holds.
func (s *Server) checkState(sharing ...*Server) error {
	resident := 0
	for _, srv := range append(sharing, s) {
		srv.wmu.Lock()
		defer srv.wmu.Unlock()
		if srv.st.idx != s.st.idx {
			return fmt.Errorf("a server that does not share the index")
		}
		for lm, tree := range srv.st.trees {
			if err := tree.CheckInvariants(); err != nil {
				return fmt.Errorf("landmark %d: %w", lm, err)
			}
			records := 0
			for slot, rec := range tree.Records() {
				if r, ok := srv.st.idx.get(rec.ID); !ok || r != (ref{lm, slot}) {
					return fmt.Errorf("peer %d resident at %d/%d but indexed at %v (%v)", rec.ID, lm, slot, r, ok)
				}
				records++
			}
			if tree.Len() != records {
				return fmt.Errorf("landmark %d: Len() = %d, %d live records", lm, tree.Len(), records)
			}
			resident += records
		}
	}
	if indexed := s.st.idx.Len(); resident != indexed {
		return fmt.Errorf("%d records resident, %d peers indexed", resident, indexed)
	}
	return nil
}

// TestChurnRecyclesSlots churns a fixed population ten times over — every
// peer leaves and re-joins, in a fresh random order each round, as the first
// fill was — and requires each pool of each tree to stay within one chunk of
// what the first fill carved: records and the runs of trie nodes come back
// from the free lists instead of being carved anew. Each peer re-joins with an
// address of the length it left with, so the address pool's high-water mark
// does not move at all: every run comes back from its size class's list. (A
// node's children are one run, recycled by exact size, so what a fill carves
// depends on how many nodes pass through each size at once: peers arriving in
// path order carve less than peers arriving in random order, which is why the
// first fill is shuffled too.)
func TestChurnRecyclesSlots(t *testing.T) {
	const peers = 12_000
	s, err := New(Config{Landmarks: residentLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	joins := make([]op.Op, peers)
	for i := range joins {
		joins[i] = residentJoin(i)
	}
	for _, i := range rng.Perm(peers) {
		if _, err := s.JoinOp(joins[i]); err != nil {
			t.Fatal(err)
		}
	}
	carved := func() map[string]pathtree.ArenaStats {
		out := map[string]pathtree.ArenaStats{}
		for lm, tree := range s.st.trees {
			out[fmt.Sprintf("landmark %d", lm)] = tree.ArenaStats()
		}
		return out
	}
	first := carved()
	for round := 0; round < 10; round++ {
		for _, i := range rng.Perm(peers) {
			if !s.Leave(joins[i].Join.Peer) {
				t.Fatalf("round %d: peer %d not registered", round, joins[i].Join.Peer)
			}
		}
		for _, i := range rng.Perm(peers) {
			if _, err := s.JoinOp(joins[i]); err != nil {
				t.Fatal(err)
			}
		}
		for where, now := range carved() {
			was := first[where]
			if now.Records > was.Records+256 || now.Allocated > was.Allocated+256 ||
				now.AddrBytes != was.AddrBytes {
				t.Fatalf("round %d, %s: carved %+v, first fill carved %+v", round, where, now, was)
			}
		}
	}
	if err := s.checkState(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupNeverSeesRecycledSlot is the server-level twin of pathtree's
// TestConcurrentChurnQueryNeverSeesRecycled: writers churn peers in and out,
// recycling records, nodes and child runs the whole time, while readers look
// up a stable population beside them. Every answer must be well
// formed — distinct candidates, sorted, none the asker — and every candidate
// must carry the address its ID was registered with, which fails if a reader
// ever follows a slot that was recycled under it. Run with -race for the
// full guarantee: a writer touching the state outside the state lock is a
// data race with them.
func TestLookupNeverSeesRecycledSlot(t *testing.T) {
	const landmark topology.NodeID = 9
	const stable = 60
	addrOf := func(p pathtree.PeerID) string { return fmt.Sprintf("peer-%d:1", p) }
	s, err := New(Config{Landmarks: []topology.NodeID{landmark}, NeighborCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= stable; i++ {
		p := pathtree.PeerID(i)
		if _, err := s.JoinOp(op.Join(p, churnPath(landmark, i), addrOf(p), 0)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for r := 0; !stop.Load(); r++ {
				// Churners share the stable peers' upper routers, so pruning
				// and re-creating their branches rewrites child runs the
				// readers' searches pass through.
				p := pathtree.PeerID(10_000*(w+1) + r%300)
				if _, err := s.JoinOp(op.Join(p, churnPath(landmark, int(p)), addrOf(p), 0)); err != nil {
					t.Error(err)
					return
				}
				if r%4 != 0 {
					s.Leave(p)
				}
			}
		}(w)
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				p := pathtree.PeerID(1 + rng.Intn(stable))
				got, err := s.Lookup(p)
				if err != nil {
					t.Errorf("lookup(%d): %v", p, err)
					return
				}
				for j, c := range got {
					if c.Peer == p || c.Addr != addrOf(c.Peer) || c.DTree < 0 || c.DTree > 6 ||
						(j > 0 && (got[j-1].DTree > c.DTree || got[j-1].Peer == c.Peer)) {
						t.Errorf("lookup(%d) malformed at %d: %+v", p, j, got)
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if err := s.checkState(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchSkipsBadEntries: a replayed batch is tolerant — an entry
// whose path names no landmark held here, or none at all, is skipped, the
// rest apply. A path the door check refuses never gets here: a cluster's
// route refuses its whole record (TestApplyRefusesBatchWithABadEntry,
// TestRefusedLoadLeavesNoApplier).
func TestApplyBatchSkipsBadEntries(t *testing.T) {
	s := newTestServer(t)
	long := make([]topology.NodeID, op.MaxPathLen+1) // one hop past the cap, ending at landmark 0
	for i := range long[:op.MaxPathLen] {
		long[i] = topology.NodeID(1000 + i)
	}
	err := s.Apply(op.BatchJoin([]op.JoinEntry{
		{Peer: 1, Path: []topology.NodeID{4, 0}},
		{Peer: 3},                                 // empty path
		{Peer: 4, Path: []topology.NodeID{4, 77}}, // landmark not held
		{Peer: 6, Path: long},
		{Peer: 5, Path: []topology.NodeID{5, 0}},
	}, 9))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Peers(); !slices.Equal(got, []pathtree.PeerID{1, 5}) {
		t.Fatalf("peers %v, want [1 5]", got)
	}
	if err := s.checkState(); err != nil {
		t.Fatal(err)
	}
}
