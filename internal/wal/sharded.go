package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/telemetry"
)

// Sharded is a write-ahead log split into one segment stream per cluster
// shard. Records still carry one global, strictly increasing sequence —
// the commit order the op stream, followers, and recovery all observe —
// but the bytes land in per-stream segment files (wal-<stream>-<seq>.seg,
// named by the stream id and the lowest sequence the segment can hold),
// each appended under its own mutex. An appender takes its sequences with
// one atomic add under its stream's mutex, so appenders touching different
// shards never queue on one another; they meet only at the group commit.
//
// The group commit is built around the durable mark: the highest sequence
// at or below which every record is on stable storage. An appender whose
// records are above the mark either leads the next sync cycle or waits for
// the running one to end; only one cycle runs at a time. A cycle's leader
// captures the last assigned sequence as the mark it will claim, locks each
// stream in turn to flush its buffer and take the records it queued for
// the commit tap, fsyncs every stream it flushed, advances the mark, hands
// the taken records to the tap in sequence order, and then releases every
// waiter of the cycle at once. The waiters it covered return; of the rest,
// one leads the next cycle. So the tap sees only durable records, in
// contiguous order, and a record reaches the tap before its Append returns.
//
// Because sequences interleave across streams, any one stream's segment
// carries gaps — the frame format and scanner tolerate ascending gaps.
// Recovery and catch-up reads merge the streams back into one ordered
// record stream by global sequence, and recovery ends the history at the
// first sequence no stream holds (see Replay).
//
// Append is safe for concurrent use; EnsureSeq and Replay must complete
// before the first Append.
type Sharded struct {
	dir  string
	opts Options

	streams []*shardStream

	seq    atomic.Uint64 // last assigned global sequence
	synced atomic.Uint64 // the durable mark
	tapped atomic.Uint64 // last sequence handed to the commit tap; Append returns once it is covered

	failed atomic.Pointer[errBox] // sticky I/O failure: the log refuses further appends
	closed atomic.Bool

	syncMu   sync.Mutex   // guards syncing
	syncing  bool         // a sync cycle is running
	cycleEnd sync.Cond    // broadcast, under syncMu, when a sync cycle ends
	pending  atomic.Int32 // appenders waiting for their records to be released, gating the commit window
	taken    []tapRec     // the running cycle's records for the tap; its leader's scratch

	tapMu    sync.Mutex // held while the commit tap is called or replaced
	onAppend func(seq uint64, rec []byte)

	// cycleHook, when set, runs in every sync cycle right after the cycle
	// captures its mark. Tests use it to hold a cycle open.
	cycleHook func()

	appends       *telemetry.Counter
	fsyncs        *telemetry.Counter
	syncedRecords *telemetry.Counter
	appendLatency *telemetry.Histogram
	fsyncLatency  *telemetry.Histogram
}

// tapRec is a record queued for the commit tap. rec is the appender's own
// slice, valid until its Append returns — which is after the tap call.
type tapRec struct {
	seq uint64
	rec []byte
}

// shardStream is one stream's append state. Its mutex covers only this
// stream's buffered frame writes, tap queue and rotation, so appends to
// different streams proceed in parallel.
type shardStream struct {
	id int

	mu        sync.Mutex
	seg       *os.File
	prevSeg   *os.File // most recently rotated-out segment; kept open for in-flight fsyncs
	bw        *fileWriter
	segStart  uint64
	segSize   int64
	last      uint64   // last sequence appended to this stream
	rotSynced uint64   // highest sequence covered by a rotation's fsync
	tapq      []tapRec // appended records not yet handed to the commit tap, ascending

	// needSync is set by appends and cleared by the sync cycle's leader
	// just before it fsyncs, so idle streams cost a sync cycle nothing.
	needSync atomic.Bool
}

// shardSegName formats a sharded segment file name.
func shardSegName(stream int, start uint64) string {
	return fmt.Sprintf("wal-%d-%020d%s", stream, start, segSuffix)
}

func shardSegPrefix(stream int) string {
	return fmt.Sprintf("wal-%d-", stream)
}

// OpenSharded opens (or creates) a sharded log with at least the given
// number of streams in dir. Streams found on disk beyond the requested
// count are kept (a log never forgets a stream it has written). Each
// stream's final segment is scanned: a torn or corrupt tail record is
// truncated away and appending resumes after the last intact record. A
// directory holding a wal-<seq>.seg segment of the old single-stream log,
// which nothing reads any more, is refused before anything in it is
// touched — opening beside it would silently drop the records it holds.
func OpenSharded(dir string, streams int, opts Options) (*Sharded, error) {
	if streams < 1 {
		streams = 1
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if legacy, err := listSeqFiles(dir, segPrefix, segSuffix); err != nil {
		return nil, err
	} else if len(legacy) > 0 {
		return nil, fmt.Errorf("wal: %s holds %s%020d%s, a segment of the single-stream log format this version cannot read",
			dir, segPrefix, legacy[0], segSuffix)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Sharded{dir: dir, opts: opts}
	s.cycleEnd.L = &s.syncMu
	s.initMetrics()
	// Keep every stream already on disk, even past the requested count: a
	// shrunk configuration must still replay (and truncate) old streams.
	n := streams
	existing, err := shardStreamIDs(dir)
	if err != nil {
		return nil, err
	}
	for _, id := range existing {
		if id+1 > n {
			n = id + 1
		}
	}
	s.streams = make([]*shardStream, n)
	for id := range s.streams {
		s.streams[id] = &shardStream{id: id}
	}
	if err := s.openStreams(0); err != nil {
		return nil, err
	}
	return s, nil
}

// openStreams opens every stream's final segment for appending — cutting a
// torn or corrupt tail record away — and sets the sequence and both marks
// to the highest surviving record, or to floor if that is higher. A stream
// without segments gets an empty one named for the next sequence (its
// first record can carry any sequence at or beyond that).
func (s *Sharded) openStreams(floor uint64) error {
	head := floor
	for _, st := range s.streams {
		segs, err := listSeqFiles(s.dir, shardSegPrefix(st.id), segSuffix)
		if err != nil {
			s.closeFiles()
			return err
		}
		if len(segs) == 0 {
			continue
		}
		last := segs[len(segs)-1]
		path := filepath.Join(s.dir, shardSegName(st.id, last))
		end, lastSeq, err := scanSegment(path, last, noLimit)
		if err == nil {
			err = truncateAt(path, end)
		}
		if err != nil {
			s.closeFiles()
			return err
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o666)
		if err != nil {
			s.closeFiles()
			return fmt.Errorf("wal: %w", err)
		}
		st.seg = f
		st.bw = &fileWriter{f: f}
		st.segStart = last
		st.segSize = end
		st.last = lastSeq      // last-1 for an empty segment: it is named for its next record
		st.rotSynced = lastSeq // everything recovered is on disk
		head = max(head, lastSeq)
	}
	for _, st := range s.streams {
		if st.seg != nil {
			continue
		}
		if err := s.openStreamSegment(st, head+1); err != nil {
			s.closeFiles()
			return err
		}
		st.last = head
		st.rotSynced = head
	}
	s.seq.Store(head)
	s.synced.Store(head)
	s.tapped.Store(head)
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

// shardStreamIDs lists the stream ids that own segments in dir.
func shardStreamIDs(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	seen := map[int]bool{}
	var out []int
	for _, e := range ents {
		name := e.Name()
		var id int
		var seq uint64
		if _, err := fmt.Sscanf(name, "wal-%d-%d.seg", &id, &seq); err != nil {
			continue
		}
		if id >= 0 && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out, nil
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
		Appends:       s.appends.Value(),
		Fsyncs:        s.fsyncs.Value(),
		SyncedRecords: s.syncedRecords.Value(),
	}
}

// Streams reports the number of append streams.
func (s *Sharded) Streams() int { return len(s.streams) }

// SetOnAppend installs (or, with nil, removes) the commit tap and returns
// its head: the last sequence handed to the tap before this one. Every
// record above the head reaches the new tap; records at or below it are
// its blind spot, which ReadAfter serves. Each sync cycle's leader calls
// the tap after the fsync that made the records durable and before their
// appenders return, in contiguous global order whichever stream a record
// landed in. The tap must not block and must not retain rec, which its
// appender owns. Once SetOnAppend returns, the previous tap is never
// called again.
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

// EnsureSeq advances the global sequence to at least seq, so records
// appended after a snapshot restore can never reuse a sequence the snapshot
// already covers (possible only when the log files were removed out from
// under their snapshot). Each stream whose active segment is still empty is
// renamed for seq+1, which puts the jump on disk: a later Replay reads the
// skipped sequences as never written, not as a hole.
func (s *Sharded) EnsureSeq(seq uint64) error {
	if s.seq.Load() >= seq {
		return nil
	}
	s.seq.Store(seq)
	s.synced.Store(seq)
	s.tapped.Store(seq)
	renamed := false
	for _, st := range s.streams {
		if st.segSize > 0 || st.segStart > seq {
			continue
		}
		if err := os.Rename(filepath.Join(s.dir, shardSegName(st.id, st.segStart)),
			filepath.Join(s.dir, shardSegName(st.id, seq+1))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		st.segStart = seq + 1
		st.last, st.rotSynced = seq, seq
		renamed = true
	}
	if renamed {
		return syncDir(s.dir)
	}
	return nil
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

// Append writes the records to the given stream under consecutive global
// sequences and returns the last one, once every record is durable and
// has been handed to the commit tap. Appends to different streams share
// fsyncs through the cross-stream group commit; appends to one stream
// serialize on that stream's mutex. With Options.NoSync it returns after
// the records reach the OS.
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
	if stream < 0 {
		stream = 0
	}
	st := s.streams[stream%len(s.streams)]
	st.mu.Lock()
	if err := s.err(); err != nil {
		st.mu.Unlock()
		return 0, err
	}
	end := s.seq.Add(uint64(len(recs)))
	queued := len(st.tapq)
	var hdr [frameHeader]byte
	for i, rec := range recs {
		seq := end - uint64(len(recs)-1-i)
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(rec)))
		binary.BigEndian.PutUint64(hdr[4:12], seq)
		crc := crc32.Update(crc32.Checksum(hdr[4:12], crcTable), crcTable, rec)
		binary.BigEndian.PutUint32(hdr[12:16], crc)
		st.bw.Write(hdr[:])
		st.bw.Write(rec)
		st.segSize += frameHeader + int64(len(rec))
		st.tapq = append(st.tapq, tapRec{seq: seq, rec: rec})
	}
	st.last = end
	s.appends.Add(uint64(len(recs)))
	st.needSync.Store(true)
	if st.segSize >= s.opts.SegmentBytes {
		if err := s.rotateStream(st); err != nil {
			// The caller gets its records back with the error, so they
			// must not reach the tap; the sticky failure keeps every
			// later cycle from claiming their sequences.
			clear(st.tapq[queued:])
			st.tapq = st.tapq[:queued]
			s.fail(err)
			st.mu.Unlock()
			return 0, err
		}
	}
	st.mu.Unlock()
	if err := s.syncTo(end); err != nil {
		return 0, err
	}
	s.appendLatency.Observe(time.Since(start))
	return end, nil
}

// rotateStream flushes and fsyncs st's active segment, then starts a new
// one named for the next global sequence. Called with st.mu held. It must
// NOT advance the global durable mark: other streams may still hold
// unflushed records with earlier sequences, and the records it fsynced
// stay queued for the next cycle's tap.
// It records the rotation in rotSynced instead, so a concurrent sync cycle
// whose captured file handle this rotation retired can recognize its
// records as already durable.
func (s *Sharded) rotateStream(st *shardStream) error {
	if err := st.bw.Flush(); err != nil {
		return err
	}
	if !s.opts.NoSync {
		if err := st.seg.Sync(); err != nil {
			return err
		}
		s.fsyncs.Inc()
		st.rotSynced = st.last
		st.needSync.Store(false)
	}
	return s.openStreamSegment(st, st.last+1)
}

func (s *Sharded) openStreamSegment(st *shardStream, start uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, shardSegName(st.id, start)), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	if st.prevSeg != nil {
		st.prevSeg.Close()
	}
	st.prevSeg = st.seg // kept open: a concurrent sync cycle may still fsync it
	st.seg = f
	st.bw = &fileWriter{f: f}
	st.segStart = start
	st.segSize = 0
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

// runCycle is one sync cycle, run by its leader: flush and fsync every
// dirty stream, advance the durable mark, and hand the records it covers
// to the commit tap in sequence order.
func (s *Sharded) runCycle() error {
	if err := s.err(); err != nil {
		return err
	}
	// Group-commit window: the leader holds the cycle open for MaxSyncDelay
	// only while other appenders are actually waiting, so their records —
	// and any arriving during the window — land in this flush. A lone
	// appender skips the window: sleeping with nobody waiting would add
	// MaxSyncDelay to every write, and serial appends would beat parallel
	// ones.
	if d := s.opts.MaxSyncDelay; d > 0 && !s.opts.NoSync && s.pending.Load() > 1 {
		time.Sleep(d)
	}
	// The mark this cycle will claim is captured BEFORE any stream is
	// locked: a record at or below it took its sequence — and was buffered
	// and queued for the tap — under its stream's mutex before the capture,
	// so locking that stream below finds it. Records that take sequences
	// during the loop may ride along in the flush but are claimed by the
	// next cycle.
	mark := s.seq.Load()
	if s.cycleHook != nil {
		s.cycleHook()
	}
	type dirtyStream struct {
		st *shardStream
		f  *os.File
		fl uint64
	}
	taken := s.taken[:0]
	var dirty []dirtyStream
	for _, st := range s.streams {
		st.mu.Lock()
		// Take the tap's records from every stream, not only dirty ones: a
		// rotation fsyncs its stream and clears needSync, but leaves the
		// records it covered queued here.
		n := 0
		for n < len(st.tapq) && st.tapq[n].seq <= mark {
			n++
		}
		taken = append(taken, st.tapq[:n]...)
		rest := copy(st.tapq, st.tapq[n:])
		clear(st.tapq[rest:])
		st.tapq = st.tapq[:rest]
		if !st.needSync.Load() && len(st.bw.buf) == 0 {
			st.mu.Unlock()
			continue
		}
		if err := st.bw.Flush(); err != nil {
			st.mu.Unlock()
			s.fail(err)
			return err
		}
		// Clear the dirty marker before the fsync: an append racing with
		// the sync re-marks the stream and is covered by the next cycle.
		st.needSync.Store(false)
		if !s.opts.NoSync {
			dirty = append(dirty, dirtyStream{st: st, f: st.seg, fl: st.last})
		}
		st.mu.Unlock()
	}
	if len(dirty) > 0 {
		began := time.Now()
		for _, d := range dirty {
			if err := d.f.Sync(); err != nil {
				// The stream may have rotated the captured handle away; the
				// rotation fsyncs the old segment first, so if its mark covers
				// what we flushed the records are durable and the error moot.
				d.st.mu.Lock()
				covered := d.st.rotSynced >= d.fl
				d.st.mu.Unlock()
				if covered {
					continue
				}
				s.fail(err)
				return err
			}
			s.fsyncs.Inc()
		}
		s.fsyncLatency.Observe(time.Since(began))
	}
	// A rotation that failed during the loop dropped records at or below
	// the mark from its tap queue: claim nothing.
	if err := s.err(); err != nil {
		return err
	}
	if prev := s.synced.Load(); mark > prev {
		s.synced.Store(mark)
		s.syncedRecords.Add(mark - prev)
	}
	slices.SortFunc(taken, func(a, b tapRec) int { return cmp.Compare(a.seq, b.seq) })
	s.tapMu.Lock()
	if fn := s.onAppend; fn != nil {
		for _, r := range taken {
			fn(r.seq, r.rec)
		}
	}
	s.tapped.Store(mark)
	s.tapMu.Unlock()
	clear(taken)
	s.taken = taken[:0]
	return nil
}

// Sync forces everything appended so far to stable storage.
func (s *Sharded) Sync() error { return s.syncTo(s.seq.Load()) }

// streamSource describes one ordered sequence of segments to merge.
type streamSource struct {
	segs []uint64
	name func(start uint64) string
}

// sources lists each stream's segments for a merge read.
func (s *Sharded) sources() ([]streamSource, error) {
	var out []streamSource
	for _, st := range s.streams {
		segs, err := listSeqFiles(s.dir, shardSegPrefix(st.id), segSuffix)
		if err != nil {
			return nil, err
		}
		if len(segs) == 0 {
			continue
		}
		id := st.id
		out = append(out, streamSource{segs: segs, name: func(start uint64) string { return shardSegName(id, start) }})
	}
	return out, nil
}

// segCursor iterates one stream's records in sequence order, pulling one
// record at a time so the merge never materializes a whole stream.
type segCursor struct {
	dir         string
	src         streamSource
	idx         int // next segment to open
	f           *os.File
	cur         uint64 // start of the open segment
	want        uint64
	tolerateAll bool
	after       uint64

	seq  uint64
	rec  []byte // valid until the next advance; reused
	done bool
}

func (c *segCursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// next advances to the next intact record with sequence > c.after,
// setting done when the stream is exhausted. A torn or short record ends
// the current segment's readable prefix when tolerated (the final
// segment, or any segment on tolerant reads); elsewhere it is an error.
func (c *segCursor) next() error {
	for {
		if c.f == nil {
			// Skip segments every record of which is <= after.
			for c.idx+1 < len(c.src.segs) && c.src.segs[c.idx+1] <= c.after+1 {
				c.idx++
			}
			if c.idx >= len(c.src.segs) {
				c.done = true
				return nil
			}
			start := c.src.segs[c.idx]
			f, err := os.Open(filepath.Join(c.dir, c.src.name(start)))
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			c.f = f
			c.cur = start
			c.want = start
			c.idx++
		}
		tolerate := c.tolerateAll || c.idx >= len(c.src.segs)
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(c.f, hdr[:]); err != nil {
			if err == io.EOF || (tolerate && errors.Is(err, io.ErrUnexpectedEOF)) {
				c.close()
				continue
			}
			name := c.src.name(c.cur)
			c.close()
			return fmt.Errorf("wal: segment %s: %w", name, err)
		}
		size := binary.BigEndian.Uint32(hdr[:4])
		seq := binary.BigEndian.Uint64(hdr[4:12])
		crc := binary.BigEndian.Uint32(hdr[12:16])
		if size > MaxRecordSize || seq < c.want {
			if tolerate {
				c.close()
				continue
			}
			name := c.src.name(c.cur)
			c.close()
			return fmt.Errorf("wal: segment %s: corrupt record", name)
		}
		if cap(c.rec) < int(size) {
			c.rec = make([]byte, size)
		}
		rec := c.rec[:size]
		if _, err := io.ReadFull(c.f, rec); err != nil {
			if tolerate && (err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF)) {
				c.close()
				continue
			}
			name := c.src.name(c.cur)
			c.close()
			return fmt.Errorf("wal: segment %s: %w", name, err)
		}
		if crc32.Update(crc32.Checksum(hdr[4:12], crcTable), crcTable, rec) != crc {
			if tolerate {
				c.close()
				continue
			}
			name := c.src.name(c.cur)
			c.close()
			return fmt.Errorf("wal: segment %s: corrupt record", name)
		}
		c.want = seq + 1
		if seq <= c.after {
			continue
		}
		c.seq = seq
		c.rec = rec
		return nil
	}
}

// merge streams every record with sequence in (after, bound] to fn in
// global sequence order by k-way merging the per-stream cursors. A bound
// of zero means unbounded. rec is reused between calls; fn must not
// retain it.
//
// A catch-up read (replay false) tolerates a torn record anywhere: it ends
// its segment. A replay does so only in a stream's final segment, where a
// crash leaves one; elsewhere it is an error. A replay also stops at the
// first hole, a sequence above after that no stream holds, and returns it
// (zero when the history has none). Holes are looked for only from the
// retention floor up: the highest first-segment start among the streams
// holding a record past after. Below it TruncateBefore may have retired
// one stream's records and not another's. A stream that holds nothing past
// after — one created empty at open, named for the head it saw then —
// says nothing about the others.
func (s *Sharded) merge(after, bound uint64, replay bool, fn func(seq uint64, rec []byte) error) (hole uint64, err error) {
	srcs, err := s.sources()
	if err != nil {
		return 0, err
	}
	cursors := make([]*segCursor, 0, len(srcs))
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	next := after + 1 // with replay, the next sequence the history must hold
	for _, src := range srcs {
		c := &segCursor{dir: s.dir, src: src, tolerateAll: !replay, after: after}
		if err := c.next(); err != nil {
			return 0, err
		}
		cursors = append(cursors, c)
		if !c.done {
			next = max(next, src.segs[0])
		}
	}
	for {
		var min *segCursor
		for _, c := range cursors {
			if c.done {
				continue
			}
			if bound > 0 && c.seq > bound {
				// Per-stream sequences ascend, so this cursor has nothing
				// further to contribute.
				c.done = true
				c.close()
				continue
			}
			if min == nil || c.seq < min.seq {
				min = c
			}
		}
		if min == nil {
			return 0, nil
		}
		if replay && min.seq >= next {
			if min.seq > next {
				return next, nil
			}
			next++
		}
		if err := fn(min.seq, min.rec); err != nil {
			return 0, err
		}
		if err := min.next(); err != nil {
			return 0, err
		}
	}
}

// Replay calls fn for every intact record with sequence strictly greater
// than after, in global order, merge-reading all streams, and must
// complete before the first Append. A torn tail in any stream's final
// segment ends that stream cleanly; corruption anywhere else is an error.
// fn's rec is reused between calls and must not be retained.
//
// The history ends at the first hole: a sequence above after that no
// stream holds while a later one survives, which is what a crash between
// two streams' fsyncs leaves. No record past a hole was acknowledged — an
// append returns only once everything at or below it is durable — so
// Replay cuts every stream's records from the hole on off the disk and
// resets the sequence to just below it; the next append reissues the
// hole's sequence. A caller must pass as after the sequence its state
// already covers (a snapshot's), since the log cannot tell a missing
// record from one that state holds.
func (s *Sharded) Replay(after uint64, fn func(seq uint64, rec []byte) error) error {
	hole, err := s.merge(after, 0, true, fn)
	if err != nil || hole == 0 {
		return err
	}
	return s.cutFrom(hole)
}

// cutFrom removes every record with sequence h or above from the disk —
// the segments named at or past h whole, and the tail of each stream's
// segment before them — then reopens the streams with the sequence at
// h-1. Only Replay calls it, before any Append.
func (s *Sharded) cutFrom(h uint64) error {
	s.closeFiles()
	for _, st := range s.streams {
		segs, err := listSeqFiles(s.dir, shardSegPrefix(st.id), segSuffix)
		if err != nil {
			return err
		}
		for len(segs) > 0 && segs[len(segs)-1] >= h {
			if err := os.Remove(filepath.Join(s.dir, shardSegName(st.id, segs[len(segs)-1]))); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			segs = segs[:len(segs)-1]
		}
		if len(segs) == 0 {
			continue
		}
		last := segs[len(segs)-1]
		path := filepath.Join(s.dir, shardSegName(st.id, last))
		end, _, err := scanSegment(path, last, h)
		if err != nil {
			return err
		}
		if err := truncateAt(path, end); err != nil {
			return err
		}
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	return s.openStreams(h - 1)
}

// ReadAfter streams every record with sequence strictly greater than
// after, up to the durable mark as it stands when the call starts, in
// global order. Safe against concurrent appends: a sync cycle flushes
// every record at or below the mark it claims to the OS before claiming
// it, so all records up to the bound are readable and nothing beyond it is
// emitted — only durable records, and the contiguity downstream consumers
// (the follower ship loop) rely on. A segment deleted underneath the scan
// by a concurrent TruncateBefore surfaces as an error; the caller restarts
// from the newer snapshot.
func (s *Sharded) ReadAfter(after uint64, fn func(seq uint64, rec []byte) error) error {
	bound := s.synced.Load()
	if bound <= after {
		return nil
	}
	_, err := s.merge(after, bound, false, fn)
	return err
}

// FirstSeq reports the sequence floor of ReadAfter: the earliest sequence
// from which every stream can serve all of its records. It is the maximum
// of the streams' first-segment starts — conservative, because another
// stream may still hold a few earlier records, but guaranteed gap-free
// above it.
func (s *Sharded) FirstSeq() (uint64, error) {
	srcs, err := s.sources()
	if err != nil {
		return 0, err
	}
	if len(srcs) == 0 {
		return s.LastSeq() + 1, nil
	}
	var first uint64
	for _, src := range srcs {
		if src.segs[0] > first {
			first = src.segs[0]
		}
	}
	return first, nil
}

// TruncateBefore deletes, in every stream, segments every record of which
// has sequence strictly below seq — the log-compaction step after a
// snapshot covering seq-1 has landed. Active segments are never deleted.
func (s *Sharded) TruncateBefore(seq uint64) error {
	removed := false
	for _, st := range s.streams {
		st.mu.Lock()
		active := st.segStart
		st.mu.Unlock()
		segs, err := listSeqFiles(s.dir, shardSegPrefix(st.id), segSuffix)
		if err != nil {
			return err
		}
		for i, start := range segs {
			if start == active || i+1 >= len(segs) {
				break
			}
			if segs[i+1] > seq {
				break // this segment still holds records >= seq
			}
			if err := os.Remove(filepath.Join(s.dir, shardSegName(st.id, start))); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			removed = true
		}
	}
	if removed {
		return syncDir(s.dir)
	}
	return nil
}

func (s *Sharded) closeFiles() {
	for _, st := range s.streams {
		if st == nil {
			continue
		}
		if st.prevSeg != nil {
			st.prevSeg.Close()
			st.prevSeg = nil
		}
		if st.seg != nil {
			st.seg.Close()
			st.seg = nil
		}
	}
}

// Close flushes, fsyncs, and closes all streams.
func (s *Sharded) Close() error {
	err := s.Sync()
	if s.closed.Swap(true) {
		return nil
	}
	for _, st := range s.streams {
		st.mu.Lock()
		if st.prevSeg != nil {
			st.prevSeg.Close()
			st.prevSeg = nil
		}
		if cerr := st.seg.Close(); cerr != nil && err == nil {
			err = cerr
		}
		st.mu.Unlock()
	}
	return err
}
