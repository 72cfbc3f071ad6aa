package cluster

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// TestSnapshotBytesTriggersCheckpoint: with the op-count fallback pushed
// out of reach, accumulated WAL bytes alone must trigger a background
// checkpoint — the adaptive compaction contract.
func TestSnapshotBytesTriggersCheckpoint(t *testing.T) {
	c, err := New(Config{
		Landmarks:     []topology.NodeID{0},
		DataDir:       t.TempDir(),
		NoSync:        true,
		SnapshotBytes: 2 << 10,
		SnapshotEvery: 1 << 30, // the op-count fallback must not be the trigger
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Each join op is a few dozen bytes; a couple hundred crosses 2 KiB
	// while staying far below the op-count fallback.
	deadline := time.Now().Add(10 * time.Second)
	var joined int64
	for c.DurabilityStats().SnapshotSeq == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after %d joins and %d WAL bytes-ish", joined, joined*40)
		}
		joined++
		if _, err := c.Join(pathtree.PeerID(joined), []topology.NodeID{topology.NodeID(joined + 10), 0}); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.DurabilityStats()
	if ds.Head != uint64(joined) {
		t.Fatalf("head %d, want %d", ds.Head, joined)
	}
	if ds.TailRecords != ds.Head-ds.SnapshotSeq {
		t.Fatalf("tail %d, want %d", ds.TailRecords, ds.Head-ds.SnapshotSeq)
	}
	if joined >= 1<<20 {
		t.Fatalf("checkpoint took %d ops: the byte trigger never fired", joined)
	}
	if ds.Log.Appends != uint64(joined) {
		t.Fatalf("log appends %d, want %d", ds.Log.Appends, joined)
	}
}

// TestDurabilityStatsAfterRecovery: replay time and snapshot seq survive
// into the reopened node's stats — the operational surface a restarted
// operator reads first.
func TestDurabilityStatsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Landmarks: []topology.NodeID{0}, DataDir: dir, NoSync: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(1); p <= 50; p++ {
		if _, err := c.Join(pathtree.PeerID(p), []topology.NodeID{topology.NodeID(p + 10), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for p := int64(51); p <= 80; p++ {
		if _, err := c.Join(pathtree.PeerID(p), []topology.NodeID{topology.NodeID(p + 10), 0}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash (no Close): recovery replays the 30-op tail.
	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ds := re.DurabilityStats()
	if ds.SnapshotSeq != 50 {
		t.Fatalf("recovered snapshot seq %d, want 50", ds.SnapshotSeq)
	}
	if ds.Head != 80 || ds.TailRecords != 30 {
		t.Fatalf("recovered head %d tail %d, want 80/30", ds.Head, ds.TailRecords)
	}
	if re.NumPeers() != 80 {
		t.Fatalf("recovered %d peers, want 80", re.NumPeers())
	}
}

// TestDurableAPIOnNonDurableCluster: the replication-stream surface must
// refuse loudly on a cluster with no log, not pretend to serve.
func TestDurableAPIOnNonDurableCluster(t *testing.T) {
	c, err := New(Config{Landmarks: []topology.NodeID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.SetCommitTap(func(uint64, []byte) {}); ok {
		t.Fatal("commit tap installed on a non-durable cluster")
	}
	if err := c.ReadCommitted(0, func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("ReadCommitted served on a non-durable cluster")
	}
	if _, err := c.CommittedFloor(); err == nil {
		t.Fatal("CommittedFloor served on a non-durable cluster")
	}
	if c.CommittedHead() != 0 {
		t.Fatal("non-durable cluster reports a committed head")
	}
	if _, _, err := c.CatchupSnapshot(); err == nil {
		t.Fatal("CatchupSnapshot served on a non-durable cluster")
	}
	if ds := c.DurabilityStats(); ds != (wal.DurabilityStats{}) {
		t.Fatalf("non-durable stats %+v, want zero", ds)
	}
	if c.Durable() {
		t.Fatal("cluster without DataDir claims durability")
	}
	if err := c.Checkpoint(); err == nil {
		t.Fatal("Checkpoint served on a non-durable cluster")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("non-durable Close: %v", err)
	}
}

// TestCatchupSnapshotCreatesFirstCheckpoint: before any checkpoint has
// landed, CatchupSnapshot must write one rather than fail — a follower
// can appear before the first snapshot cadence fires.
func TestCatchupSnapshotCreatesFirstCheckpoint(t *testing.T) {
	c, err := New(Config{Landmarks: []topology.NodeID{0}, DataDir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for p := int64(1); p <= 10; p++ {
		if _, err := c.Join(pathtree.PeerID(p), []topology.NodeID{topology.NodeID(p + 10), 0}); err != nil {
			t.Fatal(err)
		}
	}
	r, seq, err := c.CatchupSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if seq != 10 {
		t.Fatalf("first catch-up snapshot covers %d, want 10", seq)
	}
	data, err := io.ReadAll(r) // the bytes a follower assembles
	if err != nil {
		t.Fatal(err)
	}
	re := newTestCluster(t, 1)
	if err := re.ResetFromSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if re.NumPeers() != 10 {
		t.Fatalf("snapshot restores %d peers, want 10", re.NumPeers())
	}
	// The second call reuses the on-disk snapshot.
	r2, seq2, err := c.CatchupSnapshot()
	if err != nil || seq2 != 10 {
		t.Fatalf("second catch-up: seq %d err %v", seq2, err)
	}
	r2.Close()
}

// TestCommitTapObservesOrderedStream: the tap must see every committed
// record, in sequence order, decodable by the canonical codec.
func TestCommitTapObservesOrderedStream(t *testing.T) {
	c, err := New(Config{Landmarks: []topology.NodeID{0}, DataDir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	var seqs []uint64
	head, ok := c.SetCommitTap(func(seq uint64, rec []byte) {
		if _, err := op.Decode(rec); err != nil {
			t.Errorf("tap record %d undecodable: %v", seq, err)
		}
		mu.Lock()
		seqs = append(seqs, seq)
		mu.Unlock()
	})
	if !ok || head != 0 {
		t.Fatalf("tap install: head %d ok %v", head, ok)
	}
	for p := int64(1); p <= 20; p++ {
		if _, err := c.Join(pathtree.PeerID(p), []topology.NodeID{topology.NodeID(p + 10), 0}); err != nil {
			t.Fatal(err)
		}
	}
	c.SetCommitTap(nil)
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 20 {
		t.Fatalf("tap saw %d records, want 20", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("tap order %v", seqs)
		}
	}
}
