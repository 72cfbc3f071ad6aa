package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/telemetry"
)

// Sharded is a write-ahead log split into one segment stream per cluster
// shard. Records still carry one global, strictly increasing sequence —
// the commit order the op stream, followers, and recovery all observe —
// but the bytes land in per-stream segment files (wal-<stream>-<seq>.seg,
// named by the stream id and the sequence of the segment's first record),
// each appended under its own mutex. Appenders touching different shards
// therefore never queue on one another's frame writes; they meet only at
// the sequence counter (a few instructions under seqMu) and at the shared
// group-commit coordinator, where one fsync cycle flushes every dirty
// stream and advances a single global durable mark.
//
// Because sequences interleave across streams, any one stream's segment
// carries gaps — the frame format and scanner tolerate ascending gaps.
// Recovery and catch-up reads merge the streams back into one ordered
// record stream by global sequence.
//
// Append is safe for concurrent use; Replay must complete before the first
// Append.
type Sharded struct {
	dir  string
	opts Options

	streams []*shardStream

	seqMu    sync.Mutex // assigns global sequences; orders the commit tap
	seq      uint64
	onAppend func(seq uint64, rec []byte)

	failed atomic.Pointer[errBox] // sticky I/O failure: the log refuses further appends
	closed atomic.Bool

	syncMu      sync.Mutex    // serializes flush+fsync cycles (group commit)
	synced      atomic.Uint64 // last sequence known durable
	syncWaiters atomic.Int32  // appenders queued on syncMu, gating the commit window

	appends       *telemetry.Counter
	fsyncs        *telemetry.Counter
	syncedRecords *telemetry.Counter
	appendLatency *telemetry.Histogram
}

// shardStream is one stream's append state. Its mutex covers only this
// stream's buffered frame writes and rotation, so appends to different
// streams proceed in parallel.
type shardStream struct {
	id int

	mu        sync.Mutex
	seg       *os.File
	prevSeg   *os.File // most recently rotated-out segment; kept open for in-flight fsyncs
	bw        *fileWriter
	segStart  uint64
	segSize   int64
	last      uint64 // last sequence appended to this stream
	rotSynced uint64 // highest sequence covered by a rotation's fsync

	// needSync is set by appends and cleared by the group-commit leader
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
	s := &Sharded{dir: dir, opts: opts, onAppend: opts.OnAppend}
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
	// Pass 1: recover each stream that has segments, truncating torn
	// tails, and find the global sequence high-water mark.
	s.streams = make([]*shardStream, n)
	for id := 0; id < n; id++ {
		st := &shardStream{id: id}
		s.streams[id] = st
		segs, err := listSeqFiles(dir, shardSegPrefix(id), segSuffix)
		if err != nil {
			return nil, err
		}
		if len(segs) == 0 {
			continue // active segment created in pass 2
		}
		last := segs[len(segs)-1]
		path := filepath.Join(dir, shardSegName(id, last))
		end, lastSeq, err := scanSegment(path, last)
		if err != nil {
			return nil, err
		}
		if err := truncateAt(path, end); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o666)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		if lastSeq == 0 {
			lastSeq = last - 1 // empty final segment: named for its next record
		}
		st.seg = f
		st.bw = &fileWriter{f: f}
		st.segStart = last
		st.segSize = end
		st.last = lastSeq
		st.rotSynced = lastSeq // everything recovered is on disk
		if lastSeq > s.seq {
			s.seq = lastSeq
		}
	}
	// Pass 2: give streams without segments an active one, named for the
	// next global sequence (its first record can carry any sequence at or
	// beyond that).
	for _, st := range s.streams {
		if st.seg != nil {
			continue
		}
		if err := s.openStreamSegment(st, s.seq+1); err != nil {
			s.closeFiles()
			return nil, err
		}
		st.last = s.seq
		st.rotSynced = s.seq
	}
	s.synced.Store(s.seq)
	return s, nil
}

// truncateAt cuts a segment file to its intact prefix.
func truncateAt(path string, end int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(end); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
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

// SetOnAppend installs (or, with nil, removes) the append observer; see
// Options.OnAppend. The observer is called under the sequence lock, so it
// sees records in contiguous global order regardless of which stream they
// land in.
func (s *Sharded) SetOnAppend(fn func(seq uint64, rec []byte)) {
	s.seqMu.Lock()
	s.onAppend = fn
	s.seqMu.Unlock()
}

// LastSeq reports the last assigned global sequence number.
func (s *Sharded) LastSeq() uint64 {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.seq
}

// EnsureSeq advances the global sequence counter to at least seq, so
// records appended after a snapshot restore can never reuse a sequence
// the snapshot already covers (possible only when the log files were
// removed out from under their snapshot).
func (s *Sharded) EnsureSeq(seq uint64) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	if s.seq < seq {
		s.seq = seq
		s.synced.Store(seq)
	}
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

// Append writes the records to the given stream and returns the global
// sequence of the last one, once every record is durable. Appends to
// different streams serialize only on sequence assignment and share
// fsyncs through the cross-stream group commit; appends to one stream
// serialize on that stream's mutex. With Options.NoSync it returns after
// the records reach the OS.
func (s *Sharded) Append(stream int, recs ...[]byte) (uint64, error) {
	if len(recs) == 0 {
		return s.LastSeq(), nil
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
	var hdr [frameHeader]byte
	var end uint64
	for _, rec := range recs {
		if len(rec) > MaxRecordSize {
			st.mu.Unlock()
			return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", len(rec))
		}
		// The sequence lock is held for just the assignment and the tap:
		// this is the only point where appenders to different streams
		// meet, and it keeps the tap's view contiguous and ordered.
		s.seqMu.Lock()
		s.seq++
		seq := s.seq
		if s.onAppend != nil {
			s.onAppend(seq, rec)
		}
		s.seqMu.Unlock()
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(rec)))
		binary.BigEndian.PutUint64(hdr[4:12], seq)
		crc := crc32.Update(crc32.Checksum(hdr[4:12], crcTable), crcTable, rec)
		binary.BigEndian.PutUint32(hdr[12:16], crc)
		st.bw.Write(hdr[:])
		st.bw.Write(rec)
		st.segSize += frameHeader + int64(len(rec))
		st.last = seq
		end = seq
		s.appends.Inc()
	}
	st.needSync.Store(true)
	if st.segSize >= s.opts.SegmentBytes {
		if err := s.rotateStream(st); err != nil {
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
// unflushed records with earlier sequences.
// It records the rotation in rotSynced instead, so a concurrent group
// commit whose captured file handle this rotation retired can recognize
// its records as already durable.
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
	st.prevSeg = st.seg // kept open: a concurrent group commit may still fsync it
	st.seg = f
	st.bw = &fileWriter{f: f}
	st.segStart = start
	st.segSize = 0
	return nil
}

func (s *Sharded) advanceSynced(to uint64) {
	for {
		cur := s.synced.Load()
		if cur >= to {
			return
		}
		if s.synced.CompareAndSwap(cur, to) {
			s.syncedRecords.Add(to - cur)
			return
		}
	}
}

// syncTo blocks until every record up to target is durable. The syncMu
// critical section is the group-commit batch: one leader per cycle flushes
// and fsyncs every dirty stream, so concurrent appenders — to one shard or
// to several — share the same disk syncs instead of issuing one each, and
// those queued behind the leader usually find their records already
// covered and return immediately.
func (s *Sharded) syncTo(target uint64) error {
	if s.synced.Load() >= target {
		return nil
	}
	s.syncWaiters.Add(1)
	s.syncMu.Lock()
	s.syncWaiters.Add(-1)
	defer s.syncMu.Unlock()
	if s.synced.Load() >= target {
		return nil
	}
	// Group-commit window: the leader holds the sync open for MaxSyncDelay
	// only while other appenders are actually in flight, so their records —
	// and any arriving during the window — land in this flush and they
	// return without touching the disk. A lone appender skips the window:
	// sleeping with nobody queued would add MaxSyncDelay to every write
	// while holding syncMu, and serial appends would beat parallel ones.
	if d := s.opts.MaxSyncDelay; d > 0 && !s.opts.NoSync && s.syncWaiters.Load() > 0 {
		time.Sleep(d)
	}
	if err := s.err(); err != nil {
		return err
	}
	// The durable mark this cycle will claim is captured BEFORE the
	// flush loop: any record at or below it was assigned — and therefore
	// buffered, under its stream's mutex — before we lock that stream
	// below, so the loop cannot miss it. Records assigned during the loop
	// may ride along in the flush but are claimed by the next cycle.
	s.seqMu.Lock()
	flushed := s.seq
	s.seqMu.Unlock()
	type dirtyStream struct {
		st *shardStream
		f  *os.File
		fl uint64
	}
	var dirty []dirtyStream
	for _, st := range s.streams {
		st.mu.Lock()
		if !st.needSync.Load() && len(st.bw.buf) == 0 {
			st.mu.Unlock()
			continue
		}
		if err := st.bw.Flush(); err != nil {
			st.mu.Unlock()
			s.fail(err)
			return err
		}
		if s.opts.NoSync {
			st.needSync.Store(false)
			st.mu.Unlock()
			continue
		}
		// Clear the dirty marker before the fsync: an append racing with
		// the sync re-marks the stream and is covered by the next cycle.
		st.needSync.Store(false)
		dirty = append(dirty, dirtyStream{st: st, f: st.seg, fl: st.last})
		st.mu.Unlock()
	}
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
	s.advanceSynced(flushed)
	return nil
}

// Sync forces everything appended so far to stable storage.
func (s *Sharded) Sync() error { return s.syncTo(s.LastSeq()) }

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
func (s *Sharded) merge(after, bound uint64, tolerateAll bool, fn func(seq uint64, rec []byte) error) error {
	srcs, err := s.sources()
	if err != nil {
		return err
	}
	cursors := make([]*segCursor, 0, len(srcs))
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for _, src := range srcs {
		c := &segCursor{dir: s.dir, src: src, tolerateAll: tolerateAll, after: after}
		if err := c.next(); err != nil {
			return err
		}
		cursors = append(cursors, c)
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
			return nil
		}
		if err := fn(min.seq, min.rec); err != nil {
			return err
		}
		if err := min.next(); err != nil {
			return err
		}
	}
}

// Replay calls fn for every intact record with sequence strictly greater
// than after, in global order, merge-reading all streams. It must
// complete before the first Append. A torn tail in any stream's final
// segment ends that stream cleanly; corruption anywhere else is an
// error. fn's rec is reused between calls and must not be retained.
func (s *Sharded) Replay(after uint64, fn func(seq uint64, rec []byte) error) error {
	return s.merge(after, 0, false, fn)
}

// ReadAfter streams every record with sequence strictly greater than
// after that was appended before the call, in global order. Safe against
// concurrent appends: the emission bound is captured first, then every
// stream's buffer is flushed to the OS, so all records at or below the
// bound are readable and nothing beyond it is emitted — preserving the
// contiguity downstream consumers (the follower ship loop) rely on. A
// segment deleted underneath the scan by a concurrent TruncateBefore
// surfaces as an error; the caller restarts from the newer snapshot.
func (s *Sharded) ReadAfter(after uint64, fn func(seq uint64, rec []byte) error) error {
	s.seqMu.Lock()
	bound := s.seq
	s.seqMu.Unlock()
	if bound <= after {
		return nil
	}
	for _, st := range s.streams {
		st.mu.Lock()
		err := st.bw.Flush()
		st.mu.Unlock()
		if err != nil {
			s.fail(err)
			return err
		}
	}
	return s.merge(after, bound, true, fn)
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
