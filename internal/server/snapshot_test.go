package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// oldFormatSnapshots are the openings of the two snapshot formats that
// preceded op streams: a cluster checkpoint (magic, then a gob header) and
// a bare gob-encoded server snapshot. No reader is kept for either.
var oldFormatSnapshots = map[string][]byte{
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

// TestSnapshotPreservesRefreshTimes: refresh times ride the snapshot as the
// Time of the batch records, so expiry after a restore behaves as if the
// server had never stopped. The snapshot is a function of the state, not
// of the history: a twin driven to the same state by other ops in another
// order writes the same bytes, and a run of more than op.MaxBatch peers
// sharing one LastRefresh is cut into several records and still round-trips.
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
	var runs []int // entries per record of the t1 run
	if err := op.ReadStream(bytes.NewReader(buf.Bytes()), func(o *op.Op) error {
		if o.Kind == op.KindBatchJoin && o.Time == t1.UnixNano() {
			runs = append(runs, len(o.Batch))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0] != op.MaxBatch || runs[1] != crowd+2-op.MaxBatch {
		t.Fatalf("t1 run of %d peers cut into records of %v entries", crowd+2, runs)
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
	const golden = "a507cdc7e95e7dd0ca79290e69ea18cee222e122fba7653ee1984068d8953b00"
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
	// snapshot: a record kind no snapshot holds, a path the join door
	// refuses, and a peer under a landmark held neither by a Move record nor
	// by the configuration.
	move := op.Op{Kind: op.KindMoveLandmark, Move: op.MoveEntry{Landmark: 0, Src: 0, Dst: 0, Epoch: 0}}
	bad["leave record"] = opStream(t, move, joinBatch(1, []topology.NodeID{10, 0}), op.Leave(1))
	bad["path repeats a router"] = opStream(t, move, joinBatch(1, []topology.NodeID{10, 11, 10, 0}))
	bad["unheld landmark"] = opStream(t, move, joinBatch(1, []topology.NodeID{10, 0}), joinBatch(2, []topology.NodeID{10, 77}))
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

	// A flag naming a peer the snapshot does not hold is ignored, as
	// recovery ignores a record naming a gone peer: the restore takes the
	// rest.
	stray := opStream(t, move, joinBatch(1, []topology.NodeID{10, 0}), op.SetSuperPeer(5, true))
	if err := dst.ResetFromSnapshot(bytes.NewReader(stray)); err != nil {
		t.Fatalf("a flag naming an absent peer refused the snapshot: %v", err)
	}
	if info, err := dst.PeerInfo(1); err != nil || info.SuperPeer || dst.NumPeers() != 1 {
		t.Fatalf("after a stray flag: %d peers, peer 1 %+v, %v", dst.NumPeers(), info, err)
	}
}

// opStream frames ops as an op stream, good to its end frame.
func opStream(t *testing.T, ops ...op.Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := op.NewStreamWriter(&buf)
	for _, o := range ops {
		sw.Write(o)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// joinBatch is a one-entry batch join of peer p at time 1.
func joinBatch(p pathtree.PeerID, path []topology.NodeID) op.Op {
	return op.BatchJoin([]op.JoinEntry{{Peer: p, Path: path}}, 1)
}
