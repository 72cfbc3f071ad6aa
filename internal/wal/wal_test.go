package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func record(i int) []byte { return []byte(fmt.Sprintf("record-%06d", i)) }

// These tests drive the log opened with a stream count of 1, as the cluster
// opens it; sharded_test.go passes other counts and stream arguments, which
// the log ignores: every record goes to its one stream.

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		seq, err := l.Append(0, record(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != n {
		t.Fatalf("LastSeq after reopen: %d, want %d", got, n)
	}
	recs := replayAllSharded(t, l2, 0)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(recs[uint64(i+1)], record(i)) {
			t.Fatalf("record %d corrupted: %q", i, recs[uint64(i+1)])
		}
	}
	// Appends resume after the replayed tail.
	seq, err := l2.Append(0, []byte("after-reopen"))
	if err != nil || seq != n+1 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
}

func TestReopenWithoutCloseLosesNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		if _, err := l.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, no final flush beyond what Append already did.
	l2, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(replayAllSharded(t, l2, 0)); got != 37 {
		t.Fatalf("lost acknowledged records: replayed %d of 37", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail: append garbage shaped like a half-written record.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0, 11, 0xde, 0xad})
	f.Close()

	l2, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 10 {
		t.Fatalf("LastSeq after torn tail: %d, want 10", got)
	}
	if got := len(replayAllSharded(t, l2, 0)); got != 10 {
		t.Fatalf("replayed %d records, want 10", got)
	}
	// The torn bytes are gone: appending continues a clean log.
	if _, err := l2.Append(0, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := len(replayAllSharded(t, l2, 0)); got != 11 {
		t.Fatalf("replayed %d records after post-tear append, want 11", got)
	}
}

func TestCorruptTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	info, _ := os.Stat(segs[0])
	f, _ := os.OpenFile(segs[0], os.O_RDWR, 0)
	f.WriteAt([]byte{0xff}, info.Size()-1) // flip the last payload byte
	f.Close()

	l2, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 4 {
		t.Fatalf("LastSeq after corrupt final record: %d, want 4 (record dropped by CRC)", got)
	}
}

func TestSegmentsRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := l.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSeqFiles(dir, shardSegPrefix(0), segSuffix)
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	// Everything must replay across the segment boundaries.
	if got := len(replayAllSharded(t, l, 0)); got != n {
		t.Fatalf("replayed %d records, want %d", got, n)
	}
	// Truncate below the midpoint: whole segments below go away, every
	// record >= mid survives.
	const mid = n / 2
	if err := l.TruncateBefore(mid); err != nil {
		t.Fatal(err)
	}
	after, _ := listSeqFiles(dir, shardSegPrefix(0), segSuffix)
	if len(after) >= len(segs) {
		t.Fatalf("TruncateBefore removed no segments: %d -> %d", len(segs), len(after))
	}
	recs := replayAllSharded(t, l, 0)
	for i := mid; i <= n; i++ {
		if _, ok := recs[uint64(i)]; !ok {
			t.Fatalf("record seq %d lost by truncation", i)
		}
	}
	l.Close()
}

func TestReplayAfterSkipsCovered(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 40; i++ {
		if _, err := l.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	recs := replayAllSharded(t, l, 25)
	if len(recs) != 15 {
		t.Fatalf("Replay(after=25) returned %d records, want 15", len(recs))
	}
	for seq := range recs {
		if seq <= 25 {
			t.Fatalf("Replay(after=25) returned covered seq %d", seq)
		}
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(0, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(replayAllSharded(t, l2, 0)); got != writers*each {
		t.Fatalf("replayed %d records, want %d", got, writers*each)
	}
}

func TestEnsureSeq(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.EnsureSeq(100)
	seq, err := l.Append(0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 101 {
		t.Fatalf("Append after EnsureSeq(100): seq %d, want 101", seq)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, seq, ok, err := OpenLatestSnapshot(dir); err != nil || ok {
		t.Fatalf("empty dir: seq=%d ok=%v err=%v", seq, ok, err)
	}
	for _, seq := range []uint64{5, 17} {
		body := fmt.Sprintf("state-at-%d", seq)
		if err := WriteSnapshot(dir, seq, func(w io.Writer) error {
			_, err := w.Write([]byte(body))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	r, seq, ok, err := OpenLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("OpenLatestSnapshot: ok=%v err=%v", ok, err)
	}
	defer r.Close()
	if seq != 17 {
		t.Fatalf("latest snapshot seq %d, want 17", seq)
	}
	b, _ := io.ReadAll(r)
	if string(b) != "state-at-17" {
		t.Fatalf("snapshot body %q", b)
	}
	if err := RemoveSnapshotsBefore(dir, 17); err != nil {
		t.Fatal(err)
	}
	seqs, err := Snapshots(dir)
	if err != nil || len(seqs) != 1 || seqs[0] != 17 {
		t.Fatalf("after retention: %v err=%v", seqs, err)
	}
}

func TestWriteSnapshotCleansUpOnError(t *testing.T) {
	dir := t.TempDir()
	wantErr := fmt.Errorf("body failed")
	if err := WriteSnapshot(dir, 3, func(io.Writer) error { return wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Fatalf("leftover file %s after failed snapshot", e.Name())
	}
}

func TestNoSyncModeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{NoSync: true, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenSharded(dir, 1, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(replayAllSharded(t, l2, 0)); got != 30 {
		t.Fatalf("replayed %d records, want 30", got)
	}
}

func TestAppendRejectsOversizeAndClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
	if seq, err := l.Append(0); err != nil || seq != 0 {
		t.Fatalf("empty append: seq=%d err=%v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, []byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestOpenEmptyFinalSegment(t *testing.T) {
	// Rotation can leave a brand-new empty segment as the newest file; a
	// crash right there must reopen cleanly with the correct sequence.
	dir := t.TempDir()
	l, err := OpenSharded(dir, 1, Options{SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq=%d, want 5", got)
	}
	if seq, err := l2.Append(0, []byte("next")); err != nil || seq != 6 {
		t.Fatalf("append: seq=%d err=%v", seq, err)
	}
}
