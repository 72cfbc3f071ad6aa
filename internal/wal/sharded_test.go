package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// replayAllSharded collects every (seq, record) pair after the given
// sequence from a sharded log's merge replay, verifying global order.
func replayAllSharded(t *testing.T, s *Sharded, after uint64) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	prev := after
	if err := s.Replay(after, func(seq uint64, rec []byte) error {
		if seq <= prev {
			t.Fatalf("replay out of order: %d after %d", seq, prev)
		}
		prev = seq
		out[seq] = append([]byte(nil), rec...)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestShardedAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		seq, err := s.Append(i%4, record(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSharded(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastSeq(); got != n {
		t.Fatalf("LastSeq after reopen: %d, want %d", got, n)
	}
	recs := replayAllSharded(t, s2, 0)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(recs[uint64(i+1)], record(i)) {
			t.Fatalf("record %d corrupted: %q", i, recs[uint64(i+1)])
		}
	}
	// Appends resume after the replayed tail, on any stream.
	seq, err := s2.Append(3, []byte("after-reopen"))
	if err != nil || seq != n+1 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
}

// TestShardedKillRecoveryMatchesCleanRun is the kill-9 contract: reopening
// a sharded log that was never closed (the files exactly as a killed
// process left them) must replay the same records, in the same order, as
// a cleanly closed log given the same appends.
func TestShardedKillRecoveryMatchesCleanRun(t *testing.T) {
	appendAll := func(s *Sharded) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := s.Append(w, []byte(fmt.Sprintf("s%d-%03d", w, i))); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	cleanDir, killDir := t.TempDir(), t.TempDir()
	clean, err := OpenSharded(cleanDir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(clean)
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	killed, err := OpenSharded(killDir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(killed)
	// kill -9: no Close, no flush beyond what acknowledged appends did.

	cleanRe, err := OpenSharded(cleanDir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanRe.Close()
	killedRe, err := OpenSharded(killDir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer killedRe.Close()

	cleanRecs := replayAllSharded(t, cleanRe, 0)
	killedRecs := replayAllSharded(t, killedRe, 0)
	if len(cleanRecs) != 200 || len(killedRecs) != 200 {
		t.Fatalf("replayed %d clean / %d killed records, want 200 each", len(cleanRecs), len(killedRecs))
	}
	// Sequences differ between the runs (interleaving is timing-dependent)
	// but the multiset of payloads must be identical; replayAllSharded
	// checks that each run replays in sequence order.
	count := map[string]int{}
	for _, rec := range cleanRecs {
		count[string(rec)]++
	}
	for _, rec := range killedRecs {
		count[string(rec)]--
	}
	for payload, n := range count {
		if n != 0 {
			t.Fatalf("payload %q count differs by %d between clean and killed replay", payload, n)
		}
	}
}

// TestRecoveryStopsAtFirstGlobalHole: a record the final segment cannot
// vouch for — here a byte flipped in record 10 of 20 — ends the history.
// Replaying 11..20 without 10 would recover a state that never existed, so
// the open cuts the segment at record 10 and recovery holds 1..9. The next
// append reissues 10, and the old 11..20 must never come back beside it.
func TestRecoveryStopsAtFirstGlobalHole(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqFiles(dir, shardSegPrefix(0), segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, shardSegName(0, segs[len(segs)-1]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < 9; i++ {
		off += frameHeader + len(record(i))
	}
	b[off+frameHeader] ^= 0xff // the first payload byte of record 10
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := replayAllSharded(t, s2, 0)
	if len(recs) != 9 {
		t.Fatalf("replayed %d records after a damaged record 10, want 9 (1..9)", len(recs))
	}
	for seq := uint64(1); seq <= 9; seq++ {
		if !bytes.Equal(recs[seq], record(int(seq-1))) {
			t.Fatalf("seq %d: got %q, want %q", seq, recs[seq], record(int(seq-1)))
		}
	}
	if got := s2.LastSeq(); got != 9 {
		t.Fatalf("LastSeq after replay: %d, want 9", got)
	}
	if seq, err := s2.Append(0, []byte("after-the-hole")); err != nil || seq != 10 {
		t.Fatalf("append after replay: seq %d err %v, want 10", seq, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := OpenSharded(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	recs = replayAllSharded(t, s3, 0)
	if len(recs) != 10 || string(recs[10]) != "after-the-hole" {
		t.Fatalf("second reopen replayed %d records, seq 10 %q; want 10 records ending in the new seq 10", len(recs), recs[10])
	}
	for seq := uint64(11); seq <= 20; seq++ {
		if old, ok := recs[seq]; ok {
			t.Fatalf("the cut seq %d came back: %q", seq, old)
		}
	}
	if got := s3.LastSeq(); got != 10 {
		t.Fatalf("LastSeq after the second reopen: %d, want 10", got)
	}
}

func TestShardedReadAfterBoundedAndOrdered(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Append(w, record(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent bounded reads: each must see a gap-free ascending prefix
	// with nothing beyond the bound captured at call time.
	for round := 0; round < 20; round++ {
		var prev uint64
		before := s.LastSeq()
		if err := s.ReadAfter(0, func(seq uint64, rec []byte) error {
			if seq <= prev {
				t.Errorf("ReadAfter out of order: %d after %d", seq, prev)
			}
			prev = seq
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if prev < before {
			t.Fatalf("ReadAfter stopped at %d, had acknowledged %d before the call", prev, before)
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardedCommitTapContiguous(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var last atomic.Uint64
	s.SetOnAppend(func(seq uint64, rec []byte) {
		if prev := last.Swap(seq); seq != prev+1 {
			t.Errorf("tap saw seq %d after %d: not contiguous", seq, prev)
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := s.Append(w%4, record(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := last.Load(); got != 1600 {
		t.Fatalf("tap saw %d records, want 1600", got)
	}
}

func TestShardedRotateTruncateFirstSeq(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation on nearly every append.
	s, err := OpenSharded(dir, 2, Options{SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := s.Append(i%2, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := s.FirstSeq()
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("FirstSeq before truncation: %d, want 1", first)
	}
	// Truncate behind a mid-log snapshot; everything after must survive.
	const cover = 30
	if err := s.TruncateBefore(cover + 1); err != nil {
		t.Fatal(err)
	}
	first, err = s.FirstSeq()
	if err != nil {
		t.Fatal(err)
	}
	if first == 1 {
		t.Fatal("FirstSeq did not advance after truncation")
	}
	recs := replayAllSharded(t, s, cover)
	for i := cover + 1; i <= n; i++ {
		if _, ok := recs[uint64(i)]; !ok {
			t.Fatalf("record %d missing after truncation behind %d", i, cover)
		}
	}
	// ReadAfter from the floor-1 serves everything the floor promises.
	var got int
	if err := s.ReadAfter(first-1, func(seq uint64, rec []byte) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != n-int(first)+1 {
		t.Fatalf("ReadAfter(floor-1) yielded %d records, want %d", got, n-int(first)+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// dirBytes maps every file in dir to its contents.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestShardedRefusesLegacySegments: a directory holding a segment of a
// format no reader exists for any more — a wal-<seq>.seg of the
// single-stream log, or a wal-1-<seq>.seg of the log that kept one stream
// per shard — fails the open, the error names the file, and every file in it
// is byte-for-byte what it was: the foreign segment, and a torn tail that a
// successful open would have truncated.
func TestShardedRefusesLegacySegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Append(i%2, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	torn, err := os.OpenFile(filepath.Join(dir, shardSegName(0, 1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn.Write([]byte{0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0, 7, 0xde, 0xad})
	torn.Close()
	// The foreign segment, from raw bytes: two intact frames.
	var seg []byte
	for seq, rec := range [][]byte{record(100), record(101)} {
		var hdr [frameHeader]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(rec)))
		binary.BigEndian.PutUint64(hdr[4:12], uint64(seq+1))
		binary.BigEndian.PutUint32(hdr[12:16], crc32.Update(crc32.Checksum(hdr[4:12], crcTable), crcTable, rec))
		seg = append(append(seg, hdr[:]...), rec...)
	}
	for _, foreign := range []string{"wal-00000000000000000001.seg", shardSegName(1, 1)} {
		if err := os.WriteFile(filepath.Join(dir, foreign), seg, 0o666); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		if _, err := OpenSharded(dir, 2, Options{}); err == nil {
			t.Fatalf("a directory holding %s opened", foreign)
		} else if !strings.Contains(err.Error(), foreign) {
			t.Fatalf("refusal %q does not name %s", err, foreign)
		}
		if after := dirBytes(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("the refusal of %s changed the directory:\n before %q\n after  %q", foreign, before, after)
		}
		if err := os.Remove(filepath.Join(dir, foreign)); err != nil {
			t.Fatal(err)
		}
	}
	// With the foreign segments gone the directory opens and loses nothing.
	s, err = OpenSharded(dir, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(replayAllSharded(t, s, 0)); got != 6 {
		t.Fatalf("replayed %d records, want 6", got)
	}
}

func TestShardedConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4, Options{MaxSyncDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		each    = 25
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				if _, err := s.Append(w%4, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Guarantee the overlap the assertion is about: hold the first sync
	// cycle open until every writer has buffered its first record and is
	// waiting on it. On a loaded single-core runner the writers otherwise
	// serialize perfectly — each append is a lone leader that (correctly)
	// skips the window — and fsyncs == appends without any bug being
	// present. With all eight waiting, the cycle after the held one writes
	// their records with one fsync.
	hold := make(chan struct{})
	s.cycleHook = func() { <-hold }
	close(start)
	for s.pending.Load() < writers {
		time.Sleep(100 * time.Microsecond)
	}
	close(hold)
	wg.Wait()
	m, appends := s.Metrics(), s.appends.Value()
	if appends != writers*each {
		t.Fatalf("appends %d, want %d", appends, writers*each)
	}
	if m.SyncedRecords != writers*each {
		t.Fatalf("synced records %d, want %d", m.SyncedRecords, writers*each)
	}
	// Group commit across writers: strictly fewer fsyncs than one per
	// record is the whole point. (Equality would mean zero sharing.)
	if m.Fsyncs >= appends {
		t.Fatalf("fsyncs %d >= appends %d: no commit sharing across writers", m.Fsyncs, appends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedIdleStreamsSkipFsync: a log opened with a stream count of 8
// still holds one stream, so serial appends pay at most one fsync each,
// never one per stream counted.
func TestShardedIdleStreamsSkipFsync(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := s.Append(0, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	// Serial appends: at most one fsync per append (exactly one cycle
	// each).
	if m.Fsyncs > n {
		t.Fatalf("fsyncs %d > %d appends: more than one fsync per sync cycle", m.Fsyncs, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedEnsureSeqAndEmptyStreams(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.EnsureSeq(500)
	if got := s.LastSeq(); got != 500 {
		t.Fatalf("LastSeq after EnsureSeq: %d", got)
	}
	if seq, err := s.Append(2, []byte("x")); err != nil || seq != 501 {
		t.Fatalf("append after EnsureSeq: seq %d err %v", seq, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the one stream holds the one record, appended with a stream
	// argument of 2, which the log ignores.
	s2, err := OpenSharded(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastSeq(); got != 501 {
		t.Fatalf("LastSeq after reopen: %d, want 501", got)
	}
	recs := replayAllSharded(t, s2, 0)
	if len(recs) != 1 || !bytes.Equal(recs[501], []byte("x")) {
		t.Fatalf("replay after EnsureSeq reopen: %v", recs)
	}
}

// TestShardedRandomizedCrashReplay hammers interleaved appends with tiny
// segments across reopen cycles (never closing), checking that every
// acknowledged record survives with its exact payload.
func TestShardedRandomizedCrashReplay(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	want := map[uint64][]byte{}
	var next int
	for cycle := 0; cycle < 5; cycle++ {
		s, err := OpenSharded(dir, 3, Options{SegmentBytes: 96, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			rec := record(next)
			next++
			seq, err := s.Append(rng.Intn(3), rec)
			if err != nil {
				t.Fatal(err)
			}
			want[seq] = rec
		}
		// No Close: the next cycle recovers from the files as-is.
	}
	s, err := OpenSharded(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := replayAllSharded(t, s, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for seq, rec := range want {
		if !bytes.Equal(got[seq], rec) {
			t.Fatalf("seq %d: got %q want %q", seq, got[seq], rec)
		}
	}
}
