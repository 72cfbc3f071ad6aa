package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// oldFormatSnapshots are the openings of the snapshot formats that preceded
// tree sections: an op stream (its magic, then a framed move record), a
// cluster checkpoint (magic, then a gob header) and a bare gob-encoded
// server snapshot. No reader is kept for any.
var oldFormatSnapshots = map[string][]byte{
	"op stream":        []byte("pxdopstr\x00\x00\x00\x19\x12\x34\x56\x78\x07\x00\x00\x00\x00\x00\x00\x00\x00"),
	"checkpoint magic": []byte("\x00pxdctb1\x00\x00\x00\x10old gob header.."),
	"bare gob":         []byte("\x4f\xff\x81\x03\x01\x01\x08snapshot\x01\xff\x82\x00\x01\x05"),
}

// restore builds a server from a snapshot: the snapshot supplies the
// landmarks and peers, cfg what is configuration (neighbour count, TTL,
// clock).
func restore(r io.ReadSeeker, cfg Config) (*Server, error) {
	cfg.Landmarks = nil
	s, err := newServer(cfg, NewIndex())
	if err == nil {
		err = s.ResetFromSnapshot(r)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := newTestServer(t, 0, 100)
	mustJoin(t, s, 1, 10, 11)
	mustJoin(t, s, 2, 12, 11)
	if _, err := s.JoinOp(op.Join(3, []topology.NodeID{20, 100}, "", 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(op.SetSuperPeer(2, true)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(bytes.NewReader(buf.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumPeers() != 3 {
		t.Fatalf("restored peers=%d", restored.NumPeers())
	}
	// Landmarks carried over; the neighbour count is configuration.
	lms := restored.Landmarks()
	if len(lms) != 2 || lms[0] != 0 || lms[1] != 100 {
		t.Fatalf("landmarks=%v", lms)
	}
	if restored.NeighborCount() != DefaultNeighborCount {
		t.Fatalf("neighbor count=%d", restored.NeighborCount())
	}
	// Queries behave identically post-restore.
	a, err := s.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lookup diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lookup diverged: %v vs %v", a, b)
		}
	}
	// Super-peer flag preserved.
	info, err := restored.PeerInfo(2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SuperPeer {
		t.Fatal("super-peer flag lost")
	}
}

// TestSnapshotPreservesRefreshTimes: refresh times ride the snapshot in
// the peers' records, so expiry after a restore behaves as if the server
// had never stopped. The snapshot is a function of the state, not of the
// history: a twin driven to the same state by other ops in another order
// writes the same bytes, and a crowd of more than op.MaxBatch peers sharing
// one LastRefresh round-trips.
func TestSnapshotPreservesRefreshTimes(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	cfg := Config{Landmarks: []topology.NodeID{0}, Clock: clock}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const crowd = op.MaxBatch + 44
	flash := make([]op.JoinEntry, crowd)
	for i := range flash {
		flash[i] = op.JoinEntry{Peer: pathtree.PeerID(100 + i), Path: []topology.NodeID{topology.NodeID(20 + i%7), 11, 0}}
	}
	t0 := now
	mustJoin(t, s, 1, 10)
	mustJoin(t, s, 3, 12)
	now = now.Add(20 * time.Second)
	t1 := now
	mustJoin(t, s, 2, 11)
	for _, res := range s.JoinBatchOp(op.BatchJoin(flash, 0)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// Peer 3's refresh moves it from the t0 run into the t1 run; peer 2's
	// flag is set and cleared again, peer 3's stays.
	if err := s.Refresh(3); err != nil {
		t.Fatal(err)
	}
	for _, o := range []op.Op{op.SetSuperPeer(2, true), op.SetSuperPeer(3, true), op.SetSuperPeer(2, false)} {
		if err := s.Apply(o); err != nil {
			t.Fatal(err)
		}
	}

	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(flash), func(i, j int) { flash[i], flash[j] = flash[j], flash[i] })
	for _, it := range flash {
		if err := twin.Apply(op.Join(it.Peer, it.Path, "", t1.UnixNano())); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []op.Op{
		op.Join(3, []topology.NodeID{12, 0}, "", t1.UnixNano()),
		op.SetSuperPeer(3, true),
		op.Join(2, []topology.NodeID{11, 0}, "", t1.UnixNano()),
		op.Join(1, []topology.NodeID{10, 0}, "", t0.UnixNano()),
	} {
		if err := twin.Apply(o); err != nil {
			t.Fatal(err)
		}
	}

	var buf, twinBuf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&twinBuf, twin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), twinBuf.Bytes()) {
		t.Fatal("equal states reached by different histories wrote different snapshots")
	}
	restored, err := restore(bytes.NewReader(buf.Bytes()), Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteSnapshot(&again, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("restore then snapshot is not the identity")
	}
	// 15 more seconds: peer 1 is 35s stale, everyone else is 15s.
	now = now.Add(15 * time.Second)
	expired := expire(restored, 30*time.Second)
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired=%v", expired)
	}
}

// TestSnapshotBytesUnchanged pins a snapshot's bytes — its order and its
// content, not only the single ops TestOpBytesUnchanged pins — for one fixed
// state: 300 peers over four landmarks, addresses of every length around the
// edges a storage layout might round at (0, 1, 7, 8, 9, 16, 17, 255 and 256
// bytes), one super-peer, one leave and one re-join that changes its
// address's length. Restore then Snapshot must give the same bytes back.
func TestSnapshotBytesUnchanged(t *testing.T) {
	const golden = "f44ab19a397eba49d560e79c559a8aa3ad740b9149e37267af5ae02726529ca5"
	s, err := New(Config{Landmarks: []topology.NodeID{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{0, 1, 7, 8, 9, 16, 17, 255, 256}
	addr := func(p, n int) string { return strings.Repeat(fmt.Sprintf("p%d.", p), n)[:n] }
	path := func(p int) []topology.NodeID {
		lm := topology.NodeID(p % 4)
		upper := 10_000*(lm+1) + 100 + topology.NodeID(p%5)
		if p%2 == 0 {
			return []topology.NodeID{upper, lm}
		}
		return []topology.NodeID{10_000*(lm+1) + topology.NodeID(p%23), upper, lm}
	}
	ops := make([]op.Op, 0, 304)
	for p := 1; p <= 300; p++ {
		ops = append(ops, op.Join(pathtree.PeerID(p), path(p), addr(p, lengths[p%len(lengths)]), int64(1_000+p%7)))
	}
	ops = append(ops,
		op.SetSuperPeer(42, true),
		op.Leave(77),
		op.Join(5, path(6), addr(5, 200), 2_000), // 16 bytes before, and under another landmark
	)
	for _, o := range ops {
		if err := s.Apply(o); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != golden {
		t.Errorf("snapshot of %d bytes hashes to %x, want %s", buf.Len(), sum, golden)
	}
	restored, err := restore(bytes.NewReader(buf.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteSnapshot(&again, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("restore then snapshot is not the identity")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := restore(strings.NewReader("not an op stream"), Config{}); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := restore(bytes.NewReader(nil), Config{}); err == nil {
		t.Fatal("accepted empty stream")
	}
}

func TestSnapshotEmptyServer(t *testing.T) {
	s := newTestServer(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	restored, err := restore(bytes.NewReader(buf.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumPeers() != 0 {
		t.Fatalf("peers=%d", restored.NumPeers())
	}
}

// TestResetFromSnapshot: the follower restore must REPLACE state (peers
// absent from the snapshot disappear), keep the configured landmarks, and
// reject garbage and future versions without touching existing state.
func TestResetFromSnapshot(t *testing.T) {
	src, err := New(Config{Landmarks: []topology.NodeID{0, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.JoinOp(op.Join(1, []topology.NodeID{10, 0}, "", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.JoinOp(op.Join(2, []topology.NodeID{60, 50}, "", 0)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, src); err != nil {
		t.Fatal(err)
	}

	dst, err := New(Config{Landmarks: []topology.NodeID{0, 50}})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing state that the snapshot does NOT contain: it must be gone
	// after the reset (replace semantics, not a merge).
	if _, err := dst.JoinOp(op.Join(99, []topology.NodeID{11, 0}, "", 0)); err != nil {
		t.Fatal(err)
	}
	if err := dst.ResetFromSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.NumPeers() != 2 {
		t.Fatalf("reset left %d peers, want 2", dst.NumPeers())
	}
	if _, err := dst.Lookup(99); err == nil {
		t.Fatal("stale peer survived the reset")
	}
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, src); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("reset copy is not byte-identical to the source")
	}

	// Garbage, every truncation of a good snapshot, and the formats that
	// preceded op streams are rejected by every reader — the old formats by
	// name — and the loaded state survives untouched.
	bad := map[string][]byte{"garbage": []byte("not a snapshot")}
	for name, data := range oldFormatSnapshots {
		bad[name] = data
	}
	for n := 0; n < snap.Len(); n += 7 {
		bad[fmt.Sprintf("truncated to %d bytes", n)] = snap.Bytes()[:n]
	}
	// Streams good to their end frame whose content has no place in a
	// snapshot: a path the join door refuses, and a peer named twice in one
	// tree's section.
	bad["path repeats a router"] = snapshotOfTrees(t, func(s *Server) {
		if err := s.Apply(op.Join(1, []topology.NodeID{10, 11, 10, 0}, "", 1)); err != nil {
			t.Fatal(err)
		}
	})
	bad["peer twice in a section"] = snapshotOfTrees(t, func(s *Server) {
		tree := s.st.trees[0]
		tree.Join(1, []topology.NodeID{10, 0}, 0, nil)
		tree.Join(1, []topology.NodeID{11, 0}, 0, nil)
	})
	// The same, in a later section whose first record of the peer loses to
	// an earlier section's on refresh time and whose second would win.
	bad["peer twice in a later section"] = snapshotOfTrees(t, func(s *Server) {
		if err := s.Apply(op.Join(1, []topology.NodeID{10, 0}, "", 5)); err != nil {
			t.Fatal(err)
		}
		tree := s.st.trees[1]
		for i, at := range []int64{3, 7} {
			slot, _ := tree.Join(1, []topology.NodeID{topology.NodeID(20 + i), 1}, 0, nil)
			tree.Record(slot).RefreshNanos = at
		}
	})
	// An end frame whose peer total is one short of the sections', its CRC
	// made to match: what would let a pass vouch for a peer named twice.
	bad["totals other than the sections'"] = forgePeerTotal(snap.Bytes(), func(n uint64) uint64 { return n - 1 })
	for name, data := range bad {
		_, oldFormat := oldFormatSnapshots[name]
		_, restoreErr := restore(bytes.NewReader(data), Config{})
		for reader, err := range map[string]error{
			"ResetFromSnapshot": dst.ResetFromSnapshot(bytes.NewReader(data)),
			"Restore":           restoreErr,
		} {
			if err == nil {
				t.Fatalf("%s accepted a %s snapshot", reader, name)
			}
			if oldFormat && !strings.Contains(err.Error(), "format") {
				t.Fatalf("%s refused an old-format (%s) snapshot without naming the format: %v", reader, name, err)
			}
		}
	}
	b.Reset()
	if err := WriteSnapshot(&b, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("refused snapshots changed the state")
	}

	// A peer total far past what the file holds, its CRC made to match (a
	// catch-up image comes from outside), sizes the index by the file: the
	// refused load allocates about what the good one does, not an index
	// for the claimed total.
	many := snapshotOfTrees(t, func(s *Server) {
		for i := range 3000 {
			if err := s.Apply(op.Join(pathtree.PeerID(i+1), []topology.NodeID{topology.NodeID(10 + i%100), 0}, "", 1)); err != nil {
				t.Fatal(err)
			}
		}
	})
	huge := forgePeerTotal(many, func(uint64) uint64 { return 1 << 40 })
	allocated := func(data []byte) (uint64, error) {
		side := newTestServer(t, 0, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := side.ResetFromSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	good, err := allocated(many)
	if err != nil {
		t.Fatal(err)
	}
	forgedAlloc, err := allocated(huge)
	if err == nil {
		t.Fatal("ResetFromSnapshot accepted a peer total of 2^40")
	}
	if forgedAlloc > good+uint64(len(many)) {
		t.Fatalf("a forged peer total made the load allocate %d bytes; the good load of the %d-byte file allocates %d",
			forgedAlloc, len(many), good)
	}
}

// forgePeerTotal returns a copy of a snapshot whose end frame's peer total
// is what total makes of it, with the frame's CRC made to match.
func forgePeerTotal(snap []byte, total func(uint64) uint64) []byte {
	forged := bytes.Clone(snap)
	end := len(forged) - 32
	binary.BigEndian.PutUint64(forged[end+24:], total(binary.BigEndian.Uint64(forged[end+24:])))
	crc := crc32.MakeTable(crc32.Castagnoli)
	binary.BigEndian.PutUint32(forged[end+4:], crc32.Update(crc32.Checksum(forged[end:end+4], crc), crc, forged[end+8:]))
	return forged
}

// snapshotOfTrees writes the snapshot of a server over landmarks 0 and 1
// that fill has built: a bare server trusts its entries, and a test may also
// reach past it to its trees, so the snapshot may hold what no door would
// let in.
func snapshotOfTrees(t *testing.T, fill func(s *Server)) []byte {
	t.Helper()
	s := newTestServer(t, 0, 1)
	fill(s)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
