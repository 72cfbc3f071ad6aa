package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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
	// Guarantee the overlap the assertion is about: hold the first sync
	// cycle open until every writer has buffered its first record and is
	// waiting on it. On a loaded single-core runner the writers otherwise
	// serialize perfectly — each append is a lone leader that (correctly)
	// skips the window — and fsyncs == appends without any bug being
	// present. With all eight waiting, the held cycle's one fsync carries
	// the eight buffered records, and the next cycle claims them.
	hold := make(chan struct{})
	log.cycleHook = func() { <-hold }
	close(start)
	for log.pending.Load() < writers {
		time.Sleep(100 * time.Microsecond)
	}
	close(hold)
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

// TestLoneAppenderSkipsTheWindow: the group-commit window is held open only
// while another appender waits, so a lone appender's records come back at
// the pace of their fsyncs however long MaxSyncDelay is. A window that slept
// with nobody to batch would hold each of these appends for a minute.
func TestLoneAppenderSkipsTheWindow(t *testing.T) {
	log, err := OpenSharded(t.TempDir(), 1, Options{MaxSyncDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	const appends = 5
	done := make(chan error, 1)
	go func() {
		for i := 0; i < appends; i++ {
			if _, err := log.Append(0, record(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lone appender waited out the group-commit window")
	}
	if m := log.Metrics(); m.Fsyncs != appends {
		t.Fatalf("%d fsyncs for %d lone appends, want one each", m.Fsyncs, appends)
	}
}

// TestCommitTapSeesOnlyDurableRecords: the commit tap feeds followers and
// subscriptions, so every record it is handed must already be at or below
// the durable mark. A record tapped before its fsync could reach a follower,
// then vanish in a crash of the primary, whose next append would reissue its
// sequence for a different op.
func TestCommitTapSeesOnlyDurableRecords(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const (
		writers = 8
		each    = 50
	)
	var tapped, early atomic.Uint64
	var firstEarly atomic.Value
	s.SetOnAppend(func(seq uint64, rec []byte) {
		tapped.Add(1)
		if mark := s.synced.Load(); seq > mark {
			if early.Add(1) == 1 {
				firstEarly.Store(fmt.Sprintf("seq %d tapped with the durable mark at %d", seq, mark))
			}
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append(w%4, record(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := early.Load(); n > 0 {
		t.Fatalf("%d of %d records reached the tap before they were durable; first: %s", n, tapped.Load(), firstEarly.Load())
	}
	if got := tapped.Load(); got != writers*each {
		t.Fatalf("tap saw %d records, want %d", got, writers*each)
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

// holdFirstCycle makes the log's first sync cycle wait, once its mark is
// captured, until the returned release is called; held is closed when that
// cycle is waiting. cycles counts every cycle run.
func holdFirstCycle(s *Sharded) (held <-chan struct{}, release func(), cycles *atomic.Int32) {
	h, r := make(chan struct{}), make(chan struct{})
	cycles = new(atomic.Int32)
	s.cycleHook = func() {
		if cycles.Add(1) == 1 {
			close(h)
			<-r
		}
	}
	return h, func() { close(r) }, cycles
}

// appendBehindHeldCycle starts one appender, whose cycle the hook holds
// open, then n more once it is held (their stream arguments, i%4, are
// ignored: the log has one stream), and waits until all n+1 are waiting for
// their records. It returns each appender's result.
func appendBehindHeldCycle(t *testing.T, s *Sharded, held <-chan struct{}, n int) <-chan error {
	t.Helper()
	errs := make(chan error, n+1)
	go func() {
		_, err := s.Append(0, record(0))
		errs <- err
	}()
	<-held
	for i := 1; i <= n; i++ {
		go func(i int) {
			_, err := s.Append(i%4, record(i))
			errs <- err
		}(i)
	}
	for s.pending.Load() < int32(n+1) {
		time.Sleep(100 * time.Microsecond)
	}
	return errs
}

// collectErrs reads n results, failing the test if any appender hangs.
func collectErrs(t *testing.T, errs <-chan error, n int) []error {
	t.Helper()
	out := make([]error, 0, n)
	for len(out) < n {
		select {
		case err := <-errs:
			out = append(out, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d appenders returned", len(out), n)
		}
	}
	return out
}

// TestOneCycleReleasesEveryWaiter: appenders that arrive while a sync cycle
// runs wait for it, are released together when it ends,
// and the one cycle after it covers all of them — not a cycle each, and not
// a hand-off from waiter to waiter.
func TestOneCycleReleasesEveryWaiter(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var tapped []uint64
	s.SetOnAppend(func(seq uint64, _ []byte) {
		mu.Lock()
		tapped = append(tapped, seq)
		mu.Unlock()
	})
	held, release, cycles := holdFirstCycle(s)
	const n = 12
	errs := appendBehindHeldCycle(t, s, held, n)
	release()
	for _, err := range collectErrs(t, errs, n+1) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if c := cycles.Load(); c != 2 {
		t.Fatalf("%d sync cycles, want 2: the held one, then one for its %d waiters", c, n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range tapped {
		if seq != uint64(i+1) {
			t.Fatalf("tap order %v", tapped)
		}
	}
	if len(tapped) != n+1 {
		t.Fatalf("tap saw %d records, want %d", len(tapped), n+1)
	}
	if m := s.Metrics(); m.SyncedRecords != n+1 {
		t.Fatalf("synced records %d, want %d", m.SyncedRecords, n+1)
	}
}

// TestAppendBuffersWhileLeaderWrites: an appender only buffers. While a
// sync cycle's leader is held after it took the buffer, 8 appenders each
// take a sequence and queue their record without touching the file: the
// assigned sequence advances by 8, while the durable mark and the segment
// on disk stay where they were. Released, every appender returns and the
// tap sees 1..9 in order.
func TestAppendBuffersWhileLeaderWrites(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var tapped []uint64
	s.SetOnAppend(func(seq uint64, _ []byte) {
		mu.Lock()
		tapped = append(tapped, seq)
		mu.Unlock()
	})
	held, release, _ := holdFirstCycle(s)
	const n = 8
	errs := make(chan error, n+1)
	go func() {
		_, err := s.Append(0, record(0))
		errs <- err
	}()
	<-held
	seq := s.seq.Load()
	for i := 1; i <= n; i++ {
		go func(i int) {
			_, err := s.Append(0, record(i))
			errs <- err
		}(i)
	}
	for s.pending.Load() < n+1 {
		time.Sleep(100 * time.Microsecond)
	}
	// Look while the cycle is held, judge once it is released: a failure
	// must not leave the leader, and Close behind it, waiting for ever.
	assigned, durable := s.seq.Load(), s.LastSeq()
	info, statErr := os.Stat(filepath.Join(s.dir, shardSegName(0, 1)))
	release()
	for _, err := range collectErrs(t, errs, n+1) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if assigned != seq+n {
		t.Fatalf("assigned sequence %d while the leader was held, want %d", assigned, seq+n)
	}
	if durable != 0 {
		t.Fatalf("LastSeq %d while the first cycle was held, want 0", durable)
	}
	if statErr != nil {
		t.Fatal(statErr)
	}
	if info.Size() != 0 {
		t.Fatalf("the segment held %d bytes while the only leader was held: an appender wrote", info.Size())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(tapped) != n+1 {
		t.Fatalf("tap saw %v, want 1..%d", tapped, n+1)
	}
	for i, seq := range tapped {
		if seq != uint64(i+1) {
			t.Fatalf("tap order %v", tapped)
		}
	}
}

// TestFailedSyncCycleFailsEveryWaiter: when a cycle cannot make its
// records durable, every appender waiting on it gets the error — none
// hangs, none is told its record is safe, none reaches the tap — and the
// log refuses appends from then on.
func TestFailedSyncCycleFailsEveryWaiter(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tapped atomic.Int32
	s.SetOnAppend(func(uint64, []byte) { tapped.Add(1) })
	held, release, _ := holdFirstCycle(s)
	const n = 12
	errs := appendBehindHeldCycle(t, s, held, n)
	// Close the segment under the log: the held cycle cannot write the
	// records it took.
	s.seg.Close()
	release()
	for i, err := range collectErrs(t, errs, n+1) {
		if err == nil {
			t.Fatalf("appender %d returned success from a failed cycle", i)
		}
	}
	if _, err := s.Append(1, []byte("later")); err == nil {
		t.Fatal("append after a failed cycle succeeded")
	}
	if got := tapped.Load(); got != 0 {
		t.Fatalf("tap saw %d records of a failed cycle", got)
	}
}

// TestTapSeesRecordsARotationSynced: a rotation fsyncs its stream and
// clears its dirty mark, so the next cycle finds nothing of it to flush —
// but its records are still waiting for the tap, which must get them in
// order like any others.
func TestTapSeesRecordsARotationSynced(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 4, Options{SegmentBytes: 1}) // every append rotates
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	got := map[uint64]string{}
	var last uint64
	s.SetOnAppend(func(seq uint64, rec []byte) {
		mu.Lock()
		defer mu.Unlock()
		if seq != last+1 {
			t.Errorf("tap saw seq %d after %d", seq, last)
		}
		last = seq
		got[seq] = string(rec)
	})
	const (
		writers = 4
		each    = 10
	)
	want := make([]map[uint64]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		want[w] = map[uint64]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := fmt.Sprintf("w%d-%d", w, i)
				seq, err := s.Append(w, []byte(rec))
				if err != nil {
					t.Error(err)
					return
				}
				want[w][seq] = rec
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if last != writers*each {
		t.Fatalf("tap saw records up to %d, want %d", last, writers*each)
	}
	for _, m := range want {
		for seq, rec := range m {
			if got[seq] != rec {
				t.Fatalf("tap seq %d carried %q, want %q", seq, got[seq], rec)
			}
		}
	}
}
