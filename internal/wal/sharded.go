package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/telemetry"
)

// Sharded is the write-ahead log: one stream of segment files
// (wal-0-<seq>.seg, named by the lowest sequence the segment can hold)
// carrying every record under one strictly increasing sequence — the commit
// order the op stream, followers, and recovery all observe. The name and the
// stream arguments of OpenSharded and Append are kept from a format that
// split the log into one stream per cluster shard; both arguments are
// ignored.
//
// Only a sync cycle's leader touches the file. An appender, under the log's
// one mutex, takes its sequences and frames its records into the active
// buffer; it never writes, fsyncs or rotates.
//
// The group commit is built around the durable mark: the highest sequence
// at or below which every record is on stable storage. An appender whose
// records are above the mark either leads the next sync cycle or waits for
// the running one to end; only one cycle runs at a time. A cycle's leader,
// under the mutex, takes the last assigned sequence as the mark it will
// claim and swaps the active buffer with a spare. With the mutex released it
// writes the buffer once and fsyncs once, starts the next segment (named
// mark+1) if this one has reached Options.SegmentBytes, advances the mark,
// hands the tap each record the buffer framed, in order, and then releases
// every waiter of the cycle at once. The waiters it covered return; of the
// rest, one leads the next cycle. So the tap sees only durable records, in
// contiguous order, and a record reaches the tap before its Append returns.
//
// Append is safe for concurrent use; EnsureSeq and Replay must complete
// before the first Append.
type Sharded struct {
	dir  string
	opts Options

	mu    sync.Mutex    // guards sequence assignment and buf
	seq   atomic.Uint64 // last assigned sequence; stored under mu
	buf   []byte        // framed records not yet written: the active buffer
	spare []byte        // the buffer the leader writes and taps; only the leader touches it

	// The active segment. Only a sync cycle's leader, or an open, EnsureSeq
	// or Close that no cycle runs beside, touches it.
	seg      *os.File
	segStart uint64
	segSize  int64

	synced atomic.Uint64 // the durable mark
	tapped atomic.Uint64 // last sequence handed to the commit tap; Append returns once it is covered

	failed atomic.Pointer[errBox] // sticky I/O failure: the log refuses further appends
	closed atomic.Bool

	syncMu   sync.Mutex   // guards syncing
	syncing  bool         // a sync cycle is running
	cycleEnd sync.Cond    // broadcast, under syncMu, when a sync cycle ends
	pending  atomic.Int32 // appenders waiting for their records to be released, gating the commit window

	tapMu    sync.Mutex // held while the commit tap is called or replaced
	onAppend func(seq uint64, rec []byte)

	// cycleHook, when set, runs in every sync cycle right after its leader
	// swapped the buffers, holding no lock. Tests use it to hold a cycle
	// open.
	cycleHook func()

	appends       *telemetry.Counter
	fsyncs        *telemetry.Counter
	syncedRecords *telemetry.Counter
	appendLatency *telemetry.Histogram
	fsyncLatency  *telemetry.Histogram
}

// shardSegName formats a segment file name. This log writes stream 0 only;
// a segment of any other stream belongs to the multi-stream format, which
// OpenSharded refuses.
func shardSegName(stream int, start uint64) string {
	return fmt.Sprintf("wal-%d-%020d%s", stream, start, segSuffix)
}

func shardSegPrefix(stream int) string {
	return fmt.Sprintf("wal-%d-", stream)
}

// OpenSharded opens (or creates) the log in dir; streams is ignored. The
// final segment is scanned: a torn or corrupt record and everything after
// it are truncated away, and appending resumes after the last intact
// record. A directory holding any wal-*.seg file other than a wal-0-<seq>.seg
// segment — one of another stream of the multi-stream format, or a
// wal-<seq>.seg of the older single-stream log — is refused before anything
// in it is touched, because opening beside it would silently drop the
// records it holds.
func OpenSharded(dir string, streams int, opts Options) (*Sharded, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if err := refuseForeignSegments(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Sharded{dir: dir, opts: opts}
	s.cycleEnd.L = &s.syncMu
	s.initMetrics()
	segs, err := listSeqFiles(dir, shardSegPrefix(0), segSuffix)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := s.openSegment(1); err != nil {
			return nil, err
		}
		return s, nil
	}
	last := segs[len(segs)-1]
	path := filepath.Join(dir, shardSegName(0, last))
	end, head, err := scanSegment(path, last, nil)
	if err == errTorn {
		err = nil
	}
	if err == nil {
		err = truncateAt(path, end)
	}
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s.seg, s.segStart, s.segSize = f, last, end
	s.seq.Store(head) // last-1 for an empty segment: it is named for its next record
	s.synced.Store(head)
	s.tapped.Store(head)
	return s, nil
}

// refuseForeignSegments fails on the first wal-*.seg file in dir that is
// not a segment of this log.
func refuseForeignSegments(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, shardSegPrefix(0)), segSuffix), 10, 64)
		if err != nil || name != shardSegName(0, start) {
			return fmt.Errorf("wal: %s holds %s, a segment of a log format this version cannot read", dir, name)
		}
	}
	return nil
}

// truncateAt cuts a segment file to its intact prefix and makes the cut
// durable, so records cut away cannot come back after a machine crash.
func truncateAt(path string, end int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if info.Size() == end {
		return nil
	}
	if err := f.Truncate(end); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

func (s *Sharded) initMetrics() {
	r := s.opts.Telemetry
	s.appends = r.Counter("proxdisc_wal_appends_total")
	s.fsyncs = r.Counter("proxdisc_wal_fsyncs_total")
	s.syncedRecords = r.Counter("proxdisc_wal_synced_records_total")
	s.appendLatency = r.Histogram("proxdisc_wal_append_duration_seconds")
	s.fsyncLatency = r.Histogram("proxdisc_wal_fsync_duration_seconds")
}

// Metrics returns the log's group-commit counters.
func (s *Sharded) Metrics() Metrics {
	return Metrics{
		Fsyncs:        s.fsyncs.Value(),
		SyncedRecords: s.syncedRecords.Value(),
	}
}

// SetOnAppend installs (or, with nil, removes) the commit tap and returns
// its head: the last sequence handed to the tap before this one. Every
// record above the head reaches the new tap; records at or below it are
// its blind spot, which ReadAfter serves. Each sync cycle's leader calls
// the tap after the fsync that made the records durable and before their
// appenders return, in contiguous sequence order. rec is the record's bytes
// in the buffer the cycle wrote, valid until the tap returns: the tap must
// not block and must not retain rec. Once SetOnAppend returns, the
// previous tap is never called again.
func (s *Sharded) SetOnAppend(fn func(seq uint64, rec []byte)) (head uint64) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	s.onAppend = fn
	return s.tapped.Load()
}

// LastSeq reports the durable mark: the highest sequence at or below which
// every record is on stable storage (with Options.NoSync, with the OS).
// Every Append that has returned is at or below it.
func (s *Sharded) LastSeq() uint64 { return s.synced.Load() }

// EnsureSeq advances the sequence to at least seq, so records appended
// after a snapshot restore can never reuse a sequence the snapshot already
// covers (possible only when the log files were removed out from under
// their snapshot). An active segment that is still empty is renamed for
// seq+1, which puts the jump on disk.
func (s *Sharded) EnsureSeq(seq uint64) error {
	if s.seq.Load() >= seq {
		return nil
	}
	s.seq.Store(seq)
	s.synced.Store(seq)
	s.tapped.Store(seq)
	if s.segSize > 0 {
		return nil
	}
	if err := os.Rename(filepath.Join(s.dir, shardSegName(0, s.segStart)),
		filepath.Join(s.dir, shardSegName(0, seq+1))); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	s.segStart = seq + 1
	return syncDir(s.dir)
}

// errBox lets the sticky failure live in an atomic pointer, keeping the
// per-append health check off any shared mutex.
type errBox struct{ err error }

func (s *Sharded) err() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if b := s.failed.Load(); b != nil {
		return b.err
	}
	return nil
}

func (s *Sharded) fail(err error) {
	s.failed.CompareAndSwap(nil, &errBox{err: err})
}

// Append frames the records into the log under consecutive sequences and
// returns the last one, once every record is durable and has been handed
// to the commit tap; stream is ignored. Concurrent appends share fsyncs
// through the group commit. With Options.NoSync it returns after the
// records reach the OS.
func (s *Sharded) Append(stream int, recs ...[]byte) (uint64, error) {
	if len(recs) == 0 {
		return s.LastSeq(), nil
	}
	for _, rec := range recs {
		if len(rec) > MaxRecordSize {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", len(rec))
		}
	}
	start := time.Now()
	s.mu.Lock()
	if err := s.err(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	seq := s.seq.Load()
	for _, rec := range recs {
		seq++
		// The header is built in the write buffer and checksummed there: a
		// header array of its own would escape to the checksum's assembly,
		// one allocation per append.
		at := len(s.buf)
		s.buf = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(s.buf, uint32(len(rec))), seq)
		crc := crc32.Update(crc32.Checksum(s.buf[at+4:], crcTable), crcTable, rec)
		s.buf = append(binary.BigEndian.AppendUint32(s.buf, crc), rec...)
	}
	s.seq.Store(seq)
	s.mu.Unlock()
	s.appends.Add(uint64(len(recs)))
	if err := s.syncTo(seq); err != nil {
		return 0, err
	}
	s.appendLatency.Observe(time.Since(start))
	return seq, nil
}

// openSegment creates the segment named for start and makes it the active
// one, closing the one before it.
func (s *Sharded) openSegment(start uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, shardSegName(0, start)), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	if s.seg != nil {
		s.seg.Close()
	}
	s.seg, s.segStart, s.segSize = f, start, 0
	return nil
}

// syncTo blocks until every record up to target is durable and has been
// handed to the commit tap. An appender not yet covered leads a sync cycle
// if none is running, or else waits for the running one to end. A cycle
// releases all its waiters together; those it covered return, and the
// first of the others to take syncMu leads the next cycle. A failed cycle
// leaves the log's sticky failure set, so each of its waiters gets that
// error from the cycle it would lead next.
func (s *Sharded) syncTo(target uint64) error {
	if s.tapped.Load() >= target {
		return nil
	}
	s.pending.Add(1)
	defer s.pending.Add(-1)
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for s.tapped.Load() < target {
		if s.syncing {
			s.cycleEnd.Wait()
			continue
		}
		s.syncing = true
		s.syncMu.Unlock()
		err := s.runCycle()
		s.syncMu.Lock()
		s.syncing = false
		s.cycleEnd.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// runCycle is one sync cycle, run by its leader: take the buffered records
// under the mutex, write and fsync them with it released, advance the
// durable mark, and hand the records, read back from the written buffer,
// to the commit tap.
func (s *Sharded) runCycle() error {
	if err := s.err(); err != nil {
		return err
	}
	// Group-commit window: the leader holds the cycle open for MaxSyncDelay
	// only while other appenders are actually waiting, so their records —
	// and any arriving during the window — land in this write. A lone
	// appender skips the window: sleeping with nobody waiting would add
	// MaxSyncDelay to every write, and serial appends would beat parallel
	// ones.
	if d := s.opts.MaxSyncDelay; d > 0 && !s.opts.NoSync && s.pending.Load() > 1 {
		time.Sleep(d)
	}
	// The mark is read under the mutex every sequence is assigned under,
	// so the buffer taken with it holds exactly the records up to the mark.
	s.mu.Lock()
	mark := s.seq.Load()
	s.buf, s.spare = s.spare[:0], s.buf
	s.mu.Unlock()
	if s.cycleHook != nil {
		s.cycleHook()
	}
	if err := s.write(s.spare, mark); err != nil {
		s.fail(err)
		return err
	}
	if prev := s.synced.Load(); mark > prev {
		s.synced.Store(mark)
		s.syncedRecords.Add(mark - prev)
	}
	s.tapMu.Lock()
	if fn := s.onAppend; fn != nil {
		for b := s.spare; len(b) > 0; {
			end := frameHeader + int(binary.BigEndian.Uint32(b[:4]))
			fn(binary.BigEndian.Uint64(b[4:12]), b[frameHeader:end:end])
			b = b[end:]
		}
	}
	s.tapped.Store(mark)
	s.tapMu.Unlock()
	return nil
}

// write puts a cycle's buffer into the active segment with one write and
// one fsync, then starts the segment after it, named mark+1, once the
// active one has reached Options.SegmentBytes.
func (s *Sharded) write(b []byte, mark uint64) error {
	if len(b) == 0 {
		return nil
	}
	if _, err := s.seg.Write(b); err != nil {
		return err
	}
	s.segSize += int64(len(b))
	if !s.opts.NoSync {
		began := time.Now()
		if err := s.seg.Sync(); err != nil {
			return err
		}
		s.fsyncs.Inc()
		s.fsyncLatency.Observe(time.Since(began))
	}
	if s.segSize >= s.opts.SegmentBytes {
		return s.openSegment(mark + 1)
	}
	return nil
}

// Sync forces everything appended so far to stable storage.
func (s *Sharded) Sync() error { return s.syncTo(s.seq.Load()) }

// errStop ends a read early without an error.
var errStop = errors.New("wal: stop")

// read calls fn for every intact record with sequence in (after, bound],
// in order, one segment after the other. A torn or corrupt record ends the
// read when it is in the last segment, where a crash or a write in
// progress leaves one; elsewhere it is an error. rec is reused between
// calls; fn must not retain it.
func (s *Sharded) read(after, bound uint64, fn func(seq uint64, rec []byte) error) error {
	segs, err := listSeqFiles(s.dir, shardSegPrefix(0), segSuffix)
	if err != nil {
		return err
	}
	i := 0
	for i+1 < len(segs) && segs[i+1] <= after+1 {
		i++ // every record of segs[i] is at or below after
	}
	for ; i < len(segs); i++ {
		name := shardSegName(0, segs[i])
		_, _, err := scanSegment(filepath.Join(s.dir, name), segs[i], func(seq uint64, rec []byte) error {
			if seq > bound {
				return errStop
			}
			if seq <= after {
				return nil
			}
			return fn(seq, rec)
		})
		switch {
		case err == errStop || err == errTorn && i+1 == len(segs):
			return nil
		case err == errTorn:
			return fmt.Errorf("wal: segment %s: %w", name, err)
		case err != nil:
			return err
		}
	}
	return nil
}

// Replay calls fn for every intact record with sequence strictly greater
// than after, in order, and must complete before the first Append. Open
// has already cut a torn tail; corruption anywhere before it is an error.
// fn's rec is reused between calls and must not be retained.
func (s *Sharded) Replay(after uint64, fn func(seq uint64, rec []byte) error) error {
	return s.read(after, noLimit, fn)
}

// ReadAfter streams every record with sequence strictly greater than
// after, up to the durable mark as it stands when the call starts, in
// order. Safe against concurrent appends: a sync cycle writes every record
// at or below the mark it claims before claiming it, so all records up to
// the bound are readable and nothing beyond it is emitted — only durable
// records, and the contiguity downstream consumers (the follower ship loop)
// rely on. A segment deleted underneath the scan by a concurrent
// TruncateBefore surfaces as an error; the caller restarts from the newer
// snapshot.
func (s *Sharded) ReadAfter(after uint64, fn func(seq uint64, rec []byte) error) error {
	bound := s.synced.Load()
	if bound <= after {
		return nil
	}
	return s.read(after, bound, fn)
}

// FirstSeq reports the sequence floor of ReadAfter: the start of the first
// segment, from which the log holds every record.
func (s *Sharded) FirstSeq() (uint64, error) {
	segs, err := listSeqFiles(s.dir, shardSegPrefix(0), segSuffix)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return s.LastSeq() + 1, nil
	}
	return segs[0], nil
}

// TruncateBefore deletes the segments every record of which has sequence
// strictly below seq — the log-compaction step after a snapshot covering
// seq-1 has landed. The last segment listed is never deleted: it is the
// active one, or the one a rotation since the listing retired.
func (s *Sharded) TruncateBefore(seq uint64) error {
	segs, err := listSeqFiles(s.dir, shardSegPrefix(0), segSuffix)
	if err != nil {
		return err
	}
	removed := false
	for i := 0; i+1 < len(segs) && segs[i+1] <= seq; i++ {
		if err := os.Remove(filepath.Join(s.dir, shardSegName(0, segs[i]))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		removed = true
	}
	if removed {
		return syncDir(s.dir)
	}
	return nil
}

// Close flushes, fsyncs, and closes the log.
func (s *Sharded) Close() error {
	err := s.Sync()
	if s.closed.Swap(true) {
		return nil
	}
	s.syncMu.Lock()
	for s.syncing {
		s.cycleEnd.Wait()
	}
	if cerr := s.seg.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.syncMu.Unlock()
	return err
}
