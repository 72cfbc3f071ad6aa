package wal

import (
	"sync"
	"testing"
	"time"
)

// TestMaxSyncDelayBatchesFsyncs drives concurrent appenders through a log
// whose group-commit window is held open: the fsync count must come out
// well below the append count (appenders landed in shared batches), and
// the batch-size counters must account for every record.
func TestMaxSyncDelayBatchesFsyncs(t *testing.T) {
	log, err := OpenSharded(t.TempDir(), 1, Options{MaxSyncDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	const (
		writers = 8
		each    = 25
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	rec := []byte("group-commit-record")
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				if _, err := log.Append(0, rec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Guarantee the overlap the assertion is about: hold the commit lock
	// until every writer has buffered its first record and queued behind
	// it. On a loaded single-core runner the writers otherwise serialize
	// perfectly — each append is a lone leader that (correctly) skips the
	// window — and fsyncs == appends without any bug being present. With
	// all eight queued, the first leader's cycle must cover at least the
	// eight buffered records with one fsync.
	log.syncMu.Lock()
	close(start)
	for log.syncWaiters.Load() < writers {
		time.Sleep(100 * time.Microsecond)
	}
	log.syncMu.Unlock()
	wg.Wait()
	m := log.Metrics()
	if m.Appends != writers*each {
		t.Fatalf("appends %d, want %d", m.Appends, writers*each)
	}
	if m.SyncedRecords != writers*each {
		t.Fatalf("synced records %d, want %d", m.SyncedRecords, writers*each)
	}
	if m.Fsyncs == 0 {
		t.Fatal("no fsyncs counted")
	}
	if m.Fsyncs >= m.Appends {
		t.Fatalf("group commit never batched: %d fsyncs for %d appends", m.Fsyncs, m.Appends)
	}
}

// TestMetricsNoSync: without fsync the counters must report zero syncs
// while appends still count.
func TestMetricsNoSync(t *testing.T) {
	log, err := OpenSharded(t.TempDir(), 1, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for i := 0; i < 5; i++ {
		if _, err := log.Append(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	m := log.Metrics()
	if m.Appends != 5 || m.Fsyncs != 0 {
		t.Fatalf("metrics %+v, want 5 appends and 0 fsyncs", m)
	}
}

// TestFirstSeqTracksTruncation: the retention floor starts at 1, survives
// rotation, and advances when TruncateBefore retires whole segments.
func TestFirstSeqTracksTruncation(t *testing.T) {
	log, err := OpenSharded(t.TempDir(), 1, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if first, err := log.FirstSeq(); err != nil || first != 1 {
		t.Fatalf("fresh log first seq %d err %v, want 1", first, err)
	}
	rec := []byte("0123456789abcdef0123456789abcdef") // forces rotation every ~2 records
	for i := 0; i < 20; i++ {
		if _, err := log.Append(0, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.TruncateBefore(11); err != nil {
		t.Fatal(err)
	}
	first, err := log.FirstSeq()
	if err != nil {
		t.Fatal(err)
	}
	if first <= 1 || first > 11 {
		t.Fatalf("post-truncation first seq %d, want in (1,11]", first)
	}
	// ReadAfter from the floor streams the retained tail in order.
	var got []uint64
	if err := log.ReadAfter(first-1, func(seq uint64, rec []byte) error {
		got = append(got, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0] != first || got[len(got)-1] != 20 {
		t.Fatalf("ReadAfter(%d) returned %v", first-1, got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("hole in tail read: %v", got)
		}
	}
}

// TestReadAfterConcurrentWithAppends: the catch-up read must be safe
// while appenders keep committing — every record it reports is intact and
// in order, and it terminates.
func TestReadAfterConcurrentWithAppends(t *testing.T) {
	log, err := OpenSharded(t.TempDir(), 1, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	rec := []byte("concurrent-read-record")
	for i := 0; i < 50; i++ {
		if _, err := log.Append(0, rec); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := log.Append(0, rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 20; round++ {
		var last uint64
		if err := log.ReadAfter(0, func(seq uint64, got []byte) error {
			if seq != last+1 {
				t.Fatalf("hole: %d after %d", seq, last)
			}
			if string(got) != string(rec) {
				t.Fatalf("corrupt record at %d", seq)
			}
			last = seq
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if last < 50 {
			t.Fatalf("round %d read only %d records", round, last)
		}
	}
	close(stop)
	wg.Wait()
}
