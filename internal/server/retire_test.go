package server

import (
	"errors"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// sharingPair builds two servers on one index, the first holding landmark 0
// and the second landmark 100.
func sharingPair(t *testing.T) (a, b *Server) {
	t.Helper()
	idx := NewIndex()
	a, err := NewSharing(Config{Landmarks: []topology.NodeID{0}}, idx)
	if err != nil {
		t.Fatal(err)
	}
	if b, err = NewSharing(Config{Landmarks: []topology.NodeID{100}}, idx); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestRetireRule walks the arms of the rule by which an orphan goes: remove
// iff the slot is live, its ID is the peer, and the index no longer says
// this place. A retirement that arrives late — after the slot was freed,
// recycled for another peer, or recycled for the same peer re-registered
// where it was — must leave the live record alone.
func TestRetireRule(t *testing.T) {
	a, b := sharingPair(t)
	here, there := []topology.NodeID{7, 0}, []topology.NodeID{8, 100}
	join := func(s *Server, p pathtree.PeerID, path []topology.NodeID) {
		t.Helper()
		if _, err := s.JoinOp(op.Join(p, path, "", 0)); err != nil {
			t.Fatal(err)
		}
	}
	one := func(s *Server) Orphan {
		t.Helper()
		os := s.TakeOrphans()
		if len(os) != 1 || os[0].Peer != 1 || s.TakeOrphans() != nil {
			t.Fatalf("orphans %+v, want one of peer 1, handed out once", os)
		}
		return os[0]
	}
	join(a, 1, here)
	if a.TakeOrphans() != nil {
		t.Fatal("a first join orphaned something")
	}
	join(b, 1, there) // re-homes peer 1 and orphans its record on a
	late := one(b)
	if late.Landmark != 0 || a.NumPeers() != 1 || b.NumPeers() != 1 {
		t.Fatalf("orphan %+v with %d and %d records", late, a.NumPeers(), b.NumPeers())
	}
	if _, err := a.Lookup(1); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("the old holder still answers for a re-homed peer: %v", err)
	}
	if ok, err := b.Retire(late); ok || !errors.Is(err, ErrUnknownLandmark) {
		t.Fatalf("retire on a server that does not hold the orphan's landmark: %v, %v", ok, err)
	}
	retired := func(s *Server, o Orphan) bool {
		t.Helper()
		ok, err := s.Retire(o)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !retired(a, late) || a.NumPeers() != 0 {
		t.Fatal("a live orphan was not retired")
	}
	if retired(a, late) {
		t.Fatal("retired a free slot")
	}
	join(a, 2, here) // recycles the slot for another peer
	if retired(a, late) || a.NumPeers() != 1 {
		t.Fatal("retired another peer's record")
	}
	if !a.Leave(2) {
		t.Fatal("peer 2 not registered")
	}
	join(a, 1, here) // and now for peer 1 itself, re-registered where it was
	back := one(a)
	if retired(a, late) || a.NumPeers() != 1 {
		t.Fatal("retired the live record of a peer re-registered in place")
	}
	if !retired(b, back) || b.NumPeers() != 0 {
		t.Fatal("the record the second re-homing left behind was not retired")
	}
	if err := a.checkState(b); err != nil {
		t.Fatal(err)
	}
	if info, err := a.PeerInfo(1); err != nil || info.Landmark != 0 {
		t.Fatalf("peer 1 after it all: %+v, %v", info, err)
	}
}
