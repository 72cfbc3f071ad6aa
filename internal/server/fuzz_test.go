package server

import (
	"bytes"
	"reflect"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// fuzzSeedSnapshot serializes a small populated server for the fuzz
// corpus: the given ops over two landmarks, then a move record as older
// builds logged one, which the server applies and the snapshot does not
// carry.
func fuzzSeedSnapshot(tb testing.TB, ops ...op.Op) []byte {
	tb.Helper()
	s, err := New(Config{Landmarks: []topology.NodeID{0, 50}})
	if err != nil {
		tb.Fatal(err)
	}
	for _, o := range append(ops, op.Op{Kind: op.KindMoveLandmark, Move: op.MoveEntry{Landmark: 0, Src: 0, Dst: 1, Epoch: 3}}) {
		if err := s.Apply(o); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzResetFromSnapshot feeds arbitrary bytes to the snapshot reader —
// op.ReadStream's framing plus op.DecodeInto, the surface a checkpoint load
// and a follower catch-up trust — and, whenever the input reads as a valid
// snapshot, checks the restore/re-snapshot round trip: restoring the
// server's own snapshot into a fresh server must reproduce the identical
// peer set, paths included, and write the identical bytes again.
func FuzzResetFromSnapshot(f *testing.F) {
	f.Add(fuzzSeedSnapshot(f,
		op.Join(1, []topology.NodeID{10, 11, 0}, "", 1),
		op.Join(2, []topology.NodeID{12, 11, 0}, "", 2),
		op.Join(3, []topology.NodeID{20, 50}, "", 3),
		op.SetSuperPeer(2, true)))
	f.Add([]byte{})
	// Two runs of equal LastRefresh (two peers each) and a super-peer.
	f.Add(fuzzSeedSnapshot(f,
		op.Join(1, []topology.NodeID{10, 11, 0}, "10.0.0.1:41", 7),
		op.Join(2, []topology.NodeID{20, 50}, "", 7),
		op.Join(3, []topology.NodeID{12, 11, 0}, "", 9),
		op.Join(4, []topology.NodeID{21, 50}, "10.0.0.4:41", 9),
		op.SetSuperPeer(4, true)))
	f.Fuzz(func(t *testing.T, data []byte) {
		dst, err := New(Config{Landmarks: []topology.NodeID{9999}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.JoinOp(op.Join(77, []topology.NodeID{5, 9999}, "", 0)); err != nil {
			t.Fatal(err)
		}
		if err := dst.ResetFromSnapshot(bytes.NewReader(data)); err != nil {
			// Rejected input: must never panic, and must change nothing.
			if dst.NumPeers() != 1 {
				t.Fatalf("a refused snapshot left %d peers, want the 1 there was", dst.NumPeers())
			}
			return
		}
		if err := dst.checkState(); err != nil {
			t.Fatal(err)
		}
		// Round trip: a re-snapshot of the restored server must restore into
		// a fresh server, reproduce the same records and write the same bytes.
		var buf, again bytes.Buffer
		if err := WriteSnapshot(&buf, dst); err != nil {
			t.Fatalf("re-snapshot of restored state: %v", err)
		}
		clone, err := restore(bytes.NewReader(buf.Bytes()), Config{})
		if err != nil {
			t.Fatalf("round-trip restore: %v", err)
		}
		if !reflect.DeepEqual(peersWithPaths(t, dst), peersWithPaths(t, clone)) {
			t.Fatal("round-trip changed the peer records")
		}
		if !reflect.DeepEqual(dst.Landmarks(), clone.Landmarks()) {
			t.Fatalf("round-trip changed the landmarks: %v vs %v", dst.Landmarks(), clone.Landmarks())
		}
		if err := WriteSnapshot(&again, clone); err != nil || !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("round-trip changed the snapshot's bytes (err %v)", err)
		}
	})
}

// peersWithPaths keys every registered peer to its stored record shape.
func peersWithPaths(t *testing.T, s *Server) map[pathtree.PeerID]PeerInfo {
	t.Helper()
	out := make(map[pathtree.PeerID]PeerInfo, s.NumPeers())
	for _, p := range s.Peers() {
		info, err := s.PeerInfo(p)
		if err != nil {
			t.Fatalf("peer %d vanished: %v", p, err)
		}
		out[p] = info
	}
	return out
}
