package netserver

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"time"

	"proxdisc/internal/proto"
)

// This file is the primary half of cross-process replication: the follow
// hub. A durable backend exposes its committed op stream (FollowSource);
// the hub taps it once and fans records out to any number of follower
// connections, each with a bounded live buffer, a bounded unacknowledged
// send window, and a catch-up path that reads the write-ahead log — and,
// past the log's retention floor, ships a whole snapshot — when the
// follower is behind the live stream. The WAL is the retention buffer:
// nothing is duplicated in memory beyond each follower's small live
// buffer, and a follower that falls arbitrarily far behind costs the
// primary a file read, not memory.

// FollowSource is the committed op stream the hub serves from: a durable
// *cluster.Cluster's, or a test's scripted one.
type FollowSource interface {
	// SetCommitTap installs (or, with nil, removes) the ordered observer
	// of newly committed records and reports the last sequence committed
	// before the tap became live. ok is false when the backend has no
	// durable log.
	SetCommitTap(tap func(seq uint64, rec []byte)) (head uint64, ok bool)
	// ReadCommitted streams committed records after `after` out of the
	// log; safe concurrently with writes, and fails when a checkpoint
	// truncates the range away mid-read.
	ReadCommitted(after uint64, fn func(seq uint64, rec []byte) error) error
	// CommittedFloor is the earliest sequence ReadCommitted can serve.
	CommittedFloor() (uint64, error)
	// CommittedHead is the last committed sequence.
	CommittedHead() uint64
	// CatchupSnapshot opens the latest on-disk snapshot (writing one
	// first if none exists) and the sequence it covers.
	CatchupSnapshot() (io.ReadCloser, uint64, error)
}

const (
	// followLiveBuf bounds each follower's in-memory live buffer; a
	// follower that falls further behind is fed from the WAL instead.
	followLiveBuf = 4096
	// followWindow bounds a follower's unacknowledged records in flight
	// (sequence distance between the last record sent and the last
	// acknowledged): the bounded send window.
	followWindow = 8192
)

// followHub owns the commit tap and the follower set of one NetServer.
type followHub struct {
	s   *NetServer
	src FollowSource

	mu        sync.Mutex
	followers map[*wireConn]*followConn
}

// newFollowHub builds the follower registry. The commit tap itself
// belongs to the NetServer (commitTap in subserver.go), which fans each
// record out to this hub and the subscription plane; the caller installs
// it and only builds a hub when the backend accepted it.
func newFollowHub(s *NetServer, src FollowSource) *followHub {
	return &followHub{s: s, src: src, followers: make(map[*wireConn]*followConn)}
}

// offerAll hands one committed record (already copied by the tap owner,
// shared read-only) to every follower's live buffer, in sequence order.
func (h *followHub) offerAll(seq uint64, data []byte) {
	h.mu.Lock()
	for _, f := range h.followers {
		f.offer(seq, data)
	}
	h.mu.Unlock()
}

// ack records a follower's applied offset and wakes its sender.
func (h *followHub) ack(wc *wireConn, seq uint64) {
	h.mu.Lock()
	f := h.followers[wc]
	h.mu.Unlock()
	if f == nil {
		return
	}
	f.mu.Lock()
	if seq > f.acked {
		f.acked = seq
	}
	f.mu.Unlock()
	f.nudge()
}

// add registers a follower connection and starts its sender. A second
// subscription on the same connection is a protocol error.
func (h *followHub) add(wc *wireConn, id, after uint64) error {
	f := &followConn{
		hub:    h,
		wc:     wc,
		id:     id,
		acked:  after,
		notify: make(chan struct{}, 1),
	}
	h.mu.Lock()
	if _, dup := h.followers[wc]; dup {
		h.mu.Unlock()
		return errors.New("netserver: connection already follows the op stream")
	}
	h.followers[wc] = f
	h.mu.Unlock()
	f.registerMetrics()
	h.s.wg.Add(1)
	go f.run(after)
	return nil
}

// remove deregisters a follower after its sender exits.
func (h *followHub) remove(f *followConn) {
	h.mu.Lock()
	if h.followers[f.wc] == f {
		delete(h.followers, f.wc)
	}
	h.mu.Unlock()
	f.unregisterMetrics()
}

// drop deregisters whatever follower rides the connection (connection
// teardown path).
func (h *followHub) drop(wc *wireConn) {
	h.mu.Lock()
	f := h.followers[wc]
	delete(h.followers, wc)
	h.mu.Unlock()
	if f != nil {
		f.unregisterMetrics()
	}
}

// numFollowers reports the connected follower count (for the
// proxdisc_followers_connected gauge).
func (h *followHub) numFollowers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.followers)
}

// followConn is one follower's send state.
type followConn struct {
	hub *followHub
	wc  *wireConn
	id  uint64 // the follow request's ID; every stream frame carries it

	mu sync.Mutex
	// buf is the live buffer: contiguous committed records not yet taken
	// by the sender. overflow marks that records were dropped (the
	// follower was too slow); the sender then resynchronizes from the
	// WAL.
	buf      []proto.OpRecord
	overflow bool
	// head is the highest sequence known committed; lastSent and acked
	// bound the in-flight window.
	head     uint64
	lastSent uint64
	acked    uint64

	notify chan struct{} // nudged on new records and acks

	// metricNames are the per-follower series registered for this
	// connection (keyed by its remote address); unregistered when the
	// follower goes away so the registry does not accrete dead series.
	metricNames []string
}

// registerMetrics publishes the follower's acked-sequence and lag gauges
// under its remote address.
func (f *followConn) registerMetrics() {
	r := f.hub.s.cfg.Telemetry
	if r == nil {
		return
	}
	label := `{follower="` + f.wc.RemoteAddr().String() + `"}`
	acked := "proxdisc_follower_acked_seq" + label
	lag := "proxdisc_follower_lag" + label
	f.metricNames = []string{acked, lag}
	r.GaugeFunc(acked, func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(f.acked)
	})
	r.GaugeFunc(lag, func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.head <= f.acked {
			return 0
		}
		return float64(f.head - f.acked)
	})
}

func (f *followConn) unregisterMetrics() {
	f.hub.s.cfg.Telemetry.Unregister(f.metricNames...)
}

// nudge wakes the sender without blocking.
func (f *followConn) nudge() {
	select {
	case f.notify <- struct{}{}:
	default:
	}
}

// offer appends one committed record to the live buffer (tap side).
func (f *followConn) offer(seq uint64, data []byte) {
	f.mu.Lock()
	if seq > f.head {
		f.head = seq
	}
	if !f.overflow {
		switch {
		case len(f.buf) >= followLiveBuf:
			f.overflow = true
			f.buf = nil
		case len(f.buf) == 0 || f.buf[len(f.buf)-1].Seq+1 == seq:
			f.buf = append(f.buf, proto.OpRecord{Seq: seq, Data: data})
		default:
			// A hole would desynchronize the follower; resync from disk.
			f.overflow = true
			f.buf = nil
		}
	}
	f.mu.Unlock()
	f.nudge()
}

// takeState reports what the sender should do next.
type takeState int

const (
	liveReady   takeState = iota // records returned: ship them
	liveWait                     // caught up: wait for commits
	needCatchup                  // behind the live buffer: read the WAL
)

// take claims the next frame's worth of contiguous live records after
// cursor, or reports that the sender is caught up / needs the WAL.
func (f *followConn) take(cursor uint64) ([]proto.OpRecord, takeState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.overflow {
		f.overflow = false
		f.buf = nil
		return nil, needCatchup
	}
	for len(f.buf) > 0 && f.buf[0].Seq <= cursor {
		f.buf = f.buf[1:]
	}
	if len(f.buf) == 0 {
		if cursor >= f.head {
			return nil, liveWait
		}
		return nil, needCatchup
	}
	if f.buf[0].Seq > cursor+1 {
		return nil, needCatchup
	}
	size := 2
	out := make([]proto.OpRecord, 0, len(f.buf))
	for i := range f.buf {
		r := f.buf[i]
		if len(out) == proto.MaxStreamRecords {
			break
		}
		if len(out) > 0 && size+12+len(r.Data)+9 > proto.MaxFrameSize {
			break
		}
		size += 12 + len(r.Data)
		out = append(out, r)
	}
	f.buf = f.buf[len(out):]
	return out, liveReady
}

// waitWindow blocks until the unacknowledged window has room (or the
// connection/server dies). Acks and fresh commits both nudge it. Each
// stall episode — not each wakeup — counts once toward the send-window
// stall counter.
func (f *followConn) waitWindow() bool {
	stalled := false
	for {
		f.mu.Lock()
		ok := f.lastSent-f.acked < followWindow
		f.mu.Unlock()
		if ok {
			return true
		}
		if !stalled {
			stalled = true
			f.hub.s.met.followStalls.Inc()
		}
		select {
		case <-f.notify:
		case <-f.wc.dead:
			return false
		case <-f.hub.s.closed:
			return false
		}
	}
}

// send enqueues one stream frame on the connection's writer, blocking
// until there is queue room — the sender is a dedicated goroutine, so
// blocking here is backpressure, not pool starvation. A stalled peer is
// killed by the writer's deadline, which unblocks us via wc.dead.
func (f *followConn) send(typ proto.MsgType, payload []byte) bool {
	select {
	case f.wc.out <- outFrame{typ: typ, id: f.id, payload: payload}:
		return true
	case <-f.wc.dead:
		return false
	case <-f.hub.s.closed:
		return false
	}
}

// sendHead announces the committed head: the subscription's opening
// answer and the idle stream's heartbeat. It also refreshes the sender's
// own head watermark, which covers everything committed before the tap
// went live (the tap only reports commits from subscription time on).
func (f *followConn) sendHead() bool {
	head := f.hub.src.CommittedHead()
	f.mu.Lock()
	if head > f.head {
		f.head = head
	}
	f.mu.Unlock()
	return f.send(proto.MsgFollowHead, proto.EncodeFollowHead(&proto.FollowHead{Head: head}))
}

// sendBatch ships a batch of records, falling back to the chunked framing
// for a record too large to share a frame with anything.
func (f *followConn) sendBatch(recs []proto.OpRecord) bool {
	if len(recs) == 0 {
		return true
	}
	payload, err := proto.EncodeOpRecords(&proto.OpRecords{Records: recs})
	if err != nil {
		if len(recs) == 1 {
			return f.sendChunkedOp(recs[0])
		}
		// Cannot happen: take/shipTail budget multi-record batches to the
		// frame size. Fail loudly rather than desynchronize the stream.
		f.hub.s.cfg.Logger("netserver: encode op records: %v", err)
		return false
	}
	if !f.send(proto.MsgOpRecords, payload) {
		return false
	}
	f.noteSent(recs[len(recs)-1].Seq)
	return true
}

// sendChunkedOp ships one oversized record as MsgOpChunk fragments.
func (f *followConn) sendChunkedOp(rec proto.OpRecord) bool {
	return f.sendChunks(proto.MsgOpChunk, rec.Seq, bytes.NewReader(rec.Data))
}

// sendChunks fragments r into typ frames, marking the last one final and
// advancing the window to seq once it is out. It streams: at most two
// chunk buffers are in memory (one read-ahead decides finality), so a
// multi-hundred-MB snapshot costs the primary a file read, not a heap
// copy per lagging follower.
func (f *followConn) sendChunks(typ proto.MsgType, seq uint64, r io.Reader) bool {
	cur := make([]byte, proto.MaxChunkData)
	nxt := make([]byte, proto.MaxChunkData)
	n, eof, err := readFill(r, cur)
	if err != nil {
		f.hub.s.cfg.Logger("netserver: read chunk source: %v", err)
		return false
	}
	for {
		var m int
		if !eof {
			if m, eof, err = readFill(r, nxt); err != nil {
				f.hub.s.cfg.Logger("netserver: read chunk source: %v", err)
				return false
			}
		}
		final := eof && m == 0
		payload, perr := proto.EncodeStreamChunk(&proto.StreamChunk{Seq: seq, Final: final, Data: cur[:n]})
		if perr != nil {
			f.hub.s.cfg.Logger("netserver: encode chunk: %v", perr)
			return false
		}
		if !f.send(typ, payload) {
			return false
		}
		if final {
			f.noteSent(seq)
			return true
		}
		cur, nxt = nxt, cur
		n = m
	}
}

// readFill fills buf as far as the reader goes, reporting whether the
// stream is exhausted. A short final read is data plus EOF, not an error.
func readFill(r io.Reader, buf []byte) (n int, eof bool, err error) {
	n, err = io.ReadFull(r, buf)
	switch err {
	case nil:
		return n, false, nil
	case io.EOF:
		return 0, true, nil
	case io.ErrUnexpectedEOF:
		return n, true, nil
	default:
		return n, false, err
	}
}

// noteSent advances the window's sent mark.
func (f *followConn) noteSent(seq uint64) {
	f.mu.Lock()
	if seq > f.lastSent {
		f.lastSent = seq
	}
	f.mu.Unlock()
}

// run is the follower's sender: live records from the buffer when the
// follower keeps up, WAL reads when it lags, a snapshot when it is behind
// the log's retention floor, and head heartbeats when the stream idles.
func (f *followConn) run(after uint64) {
	defer f.hub.s.wg.Done()
	defer f.hub.remove(f)
	cursor := after
	f.mu.Lock()
	f.lastSent = after
	f.mu.Unlock()
	if !f.sendHead() {
		return
	}
	hb := f.hub.s.cfg.ReadTimeout / 3
	if hb > 2*time.Second {
		hb = 2 * time.Second
	}
	for {
		if !f.waitWindow() {
			return
		}
		recs, state := f.take(cursor)
		switch state {
		case liveReady:
			if !f.sendBatch(recs) {
				return
			}
			cursor = recs[len(recs)-1].Seq
		case liveWait:
			select {
			case <-f.notify:
			case <-time.After(hb):
				if !f.sendHead() {
					return
				}
			case <-f.wc.dead:
				return
			case <-f.hub.s.closed:
				return
			}
		case needCatchup:
			next, ok := f.catchup(cursor)
			if !ok {
				f.wc.Close() // the follower redials and resumes from its ack
				return
			}
			if next == cursor {
				// No progress (an unflushed batch, a transient read): pause
				// for the flush instead of spinning on the file.
				select {
				case <-f.notify:
				case <-time.After(5 * time.Millisecond):
				case <-f.wc.dead:
					return
				case <-f.hub.s.closed:
					return
				}
			}
			cursor = next
		}
	}
}

// errSendFailed aborts a WAL read whose frames can no longer be sent.
var errSendFailed = errors.New("netserver: follower send failed")

// catchup brings the follower from cursor toward the live buffer: via the
// WAL tail when the log still retains cursor's successor, else via the
// latest snapshot (plus the tail the next pass reads). It returns the new
// cursor; ok=false means the follower is undeliverable and the
// connection should be dropped.
func (f *followConn) catchup(cursor uint64) (uint64, bool) {
	src := f.hub.src
	if floor, err := src.CommittedFloor(); err == nil && cursor+1 >= floor {
		next, err := f.shipTail(cursor)
		if err == nil {
			return next, true
		}
		if errors.Is(err, errSendFailed) {
			return 0, false
		}
		// The tail was truncated underneath the read (a checkpoint landed):
		// the snapshot that justified the truncation covers the gap.
		cursor = next
	}
	rc, snapSeq, err := src.CatchupSnapshot()
	if err != nil {
		f.hub.s.cfg.Logger("netserver: follow catch-up snapshot: %v", err)
		return 0, false
	}
	defer rc.Close()
	if snapSeq <= cursor {
		// The snapshot predates the follower's position; the WAL read above
		// failed transiently. Let run() pause and retry.
		return cursor, true
	}
	f.hub.s.met.followCatchups.Inc()
	if !f.shipSnapshot(rc, snapSeq) {
		return 0, false
	}
	return snapSeq, true
}

// shipTail streams WAL records after cursor, batching them into
// frame-budget MsgOpRecords (oversized records go chunked), and returns
// the last sequence shipped.
func (f *followConn) shipTail(cursor uint64) (uint64, error) {
	var (
		batch []proto.OpRecord
		size  = 2
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if !f.waitWindow() {
			return errSendFailed
		}
		if !f.sendBatch(batch) {
			return errSendFailed
		}
		batch, size = nil, 2
		return nil
	}
	err := f.hub.src.ReadCommitted(cursor, func(seq uint64, rec []byte) error {
		data := append([]byte(nil), rec...)
		if len(batch) == proto.MaxStreamRecords || size+12+len(data)+9 > proto.MaxFrameSize {
			if err := flush(); err != nil {
				return err
			}
		}
		batch = append(batch, proto.OpRecord{Seq: seq, Data: data})
		size += 12 + len(data)
		cursor = seq
		return nil
	})
	if ferr := flush(); ferr != nil {
		return cursor, ferr
	}
	return cursor, err
}

// shipSnapshot streams a whole-state snapshot as MsgSnapshotChunk
// fragments straight off its reader; the final fragment names the
// covering sequence.
func (f *followConn) shipSnapshot(r io.Reader, snapSeq uint64) bool {
	if !f.waitWindow() {
		return false
	}
	return f.sendChunks(proto.MsgSnapshotChunk, snapSeq, r)
}
