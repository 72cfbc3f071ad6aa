package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// recTap records every WAL record the commit tap observes, copying the
// bytes (the tap contract forbids retaining the record slice). It is
// mutex-guarded because taps run under the WAL's append lock on whichever
// goroutine committed.
type recTap struct {
	mu   sync.Mutex
	seqs []uint64
	recs [][]byte
}

func (t *recTap) tap(seq uint64, rec []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seqs = append(t.seqs, seq)
	t.recs = append(t.recs, append([]byte(nil), rec...))
}

func (t *recTap) snapshot() (seqs []uint64, recs [][]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]uint64(nil), t.seqs...), append([][]byte(nil), t.recs...)
}

// TestBatchJoinOneRecordOneFrame is the batch-durability contract: a
// BatchJoin — even one spanning several shards — commits as exactly ONE
// write-ahead-log record, that record fits a single MsgOpRecords frame on
// the follower stream, the bytes survive a kill-9 byte-identically, and
// replaying them reproduces the exact pre-crash answers. Concurrent
// batches stay one-record each (group commit shares fsyncs, not frames).
func TestBatchJoinOneRecordOneFrame(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	tap := &recTap{}
	if _, ok := c.SetCommitTap(tap.tap); !ok {
		t.Fatal("durable cluster refused a commit tap")
	}

	// Several concurrent batches, each spanning every landmark (hence
	// every shard): the one-record property must hold per batch even when
	// group commit interleaves them on disk.
	const batches = 4
	const perBatch = 24
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			entries := make([]op.JoinEntry, perBatch)
			for i := range entries {
				p := pathtree.PeerID(1000*(b+1) + i)
				lm := testLandmarks[i%len(testLandmarks)]
				entries[i] = op.JoinEntry{
					Peer: p,
					Addr: fmt.Sprintf("10.9.%d.%d:41", b, i),
					Path: synthPath(lm, 100*(b+1)+i),
				}
			}
			for _, res := range c.JoinBatchOp(op.BatchJoin(entries, 0)) {
				if res.Err != nil {
					t.Errorf("batch %d join: %v", b, res.Err)
				}
			}
		}(b)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	seqs, recs := tap.snapshot()
	if len(recs) != batches {
		t.Fatalf("%d batches committed %d WAL records, want exactly one each", batches, len(recs))
	}
	seen := make(map[pathtree.PeerID]bool)
	for i, rec := range recs {
		o, err := op.Decode(rec)
		if err != nil {
			t.Fatalf("record %d: %v", seqs[i], err)
		}
		if o.Kind != op.KindBatchJoin {
			t.Fatalf("record %d: kind %d, want KindBatchJoin", seqs[i], o.Kind)
		}
		if len(o.Batch) != perBatch {
			t.Fatalf("record %d: %d entries, want %d (batch split across records?)", seqs[i], len(o.Batch), perBatch)
		}
		for _, e := range o.Batch {
			if seen[e.Peer] {
				t.Fatalf("peer %d appears in more than one record", e.Peer)
			}
			seen[e.Peer] = true
		}

		// The follower stream ships this record in ONE MsgOpRecords frame:
		// encoding the single record must fit the frame budget, and the
		// framed bytes must round-trip identically.
		frame, err := proto.EncodeOpRecords(&proto.OpRecords{Records: []proto.OpRecord{{Seq: seqs[i], Data: rec}}})
		if err != nil {
			t.Fatalf("record %d does not fit one op-stream frame: %v", seqs[i], err)
		}
		m, err := proto.DecodeOpRecords(frame)
		if err != nil {
			t.Fatalf("frame for record %d: %v", seqs[i], err)
		}
		if len(m.Records) != 1 || m.Records[0].Seq != seqs[i] || !bytes.Equal(m.Records[0].Data, rec) {
			t.Fatalf("record %d did not survive framing byte-identically", seqs[i])
		}
	}
	if len(seen) != batches*perBatch {
		t.Fatalf("records cover %d peers, want %d", len(seen), batches*perBatch)
	}

	want := captureAnswers(t, c)
	// Kill -9: abandon the cluster without Close — no final snapshot, no
	// flush beyond what commit already fsynced.
	c = nil

	re, err := New(durableConfig(dir, 4))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()

	// The log the reopened node serves followers from holds the exact
	// bytes the tap saw at commit time.
	onDisk := make(map[uint64][]byte)
	if err := re.ReadCommitted(0, func(seq uint64, rec []byte) error {
		onDisk[seq] = append([]byte(nil), rec...)
		return nil
	}); err != nil {
		t.Fatalf("ReadCommitted: %v", err)
	}
	for i, rec := range recs {
		got, ok := onDisk[seqs[i]]
		if !ok {
			t.Fatalf("record %d missing from the reopened log", seqs[i])
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("record %d replayed with different bytes after kill-9", seqs[i])
		}
	}

	assertSameAnswers(t, want, captureAnswers(t, re), "after kill-9 replay of batch records")
}

// TestRepeatedPeerBatchCommitsOneRecord: an answered batch that names a
// peer more than once commits as one record, the grouped entries first and
// the repeated peer's accepted entries after them in batch order, and a
// crashed node recovers it — through the serial road and through the
// shard-parallel pass, which cannot vouch for a batch naming a new peer
// twice and falls back — to the live node's state, each repeated peer held
// by its last entry.
func TestRepeatedPeerBatchCommitsOneRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 4)
	cfg.NoSync = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := []op.JoinEntry{
		{Peer: 1, Addr: "10.0.0.1:1", Path: synthPath(0, 1)},
		{Peer: 2, Addr: "10.0.0.2:1", Path: synthPath(100, 2)},
		{Peer: 1, Addr: "10.0.0.1:2", Path: synthPath(200, 1)},
		{Peer: 3, Addr: "10.0.0.3:1", Path: synthPath(300, 3)},
		{Peer: 2, Path: []topology.NodeID{7, 999}}, // refused: no such landmark
		{Peer: 1, Addr: "10.0.0.1:3", Path: synthPath(100, 1)},
	}
	for i, res := range c.JoinBatchOp(op.BatchJoin(entries, 0)) {
		if (i == 4) != (res.Err != nil) {
			t.Fatalf("entry %d: %v", i, res.Err)
		}
	}
	var recs [][]byte
	if err := c.ReadCommitted(0, func(_ uint64, rec []byte) error {
		recs = append(recs, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("the batch committed %d records, want 1", len(recs))
	}
	o, err := op.Decode(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, e := range o.Batch {
		for i := range entries {
			if entries[i].Peer == e.Peer && entries[i].Addr == e.Addr {
				order = append(order, i)
			}
		}
	}
	// Peer 3's entry groups by shard; those of peers 1 and 2, each named
	// more than once (peer 2's second entry refused), follow in batch order.
	if want := []int{3, 0, 1, 2, 5}; !slices.Equal(order, want) {
		t.Fatalf("the record holds entries %v, want %v", order, want)
	}
	if info, err := c.PeerInfo(1); err != nil || info.Addr != "10.0.0.1:3" {
		t.Fatalf("peer 1: %+v, %v: want its last entry", info, err)
	}
	// Crash: the live node is abandoned with its log mid-life.
	serial := reopen(t, dir, 4, true)
	parallel := reopen(t, dir, 4, false)
	assertSameState(t, c, serial, "serial road")
	assertSameState(t, serial, parallel, "parallel pass")
	if st := parallel.DurabilityStats(); st.TailRecords != 1 || st.SerialRecords != 1 {
		t.Fatalf("%d serial records over a tail of %d, want the fallback's 1 over 1", st.SerialRecords, st.TailRecords)
	}
}
