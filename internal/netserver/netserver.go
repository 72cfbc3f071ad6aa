// Package netserver exposes the management server over TCP and runs the
// landmark UDP probe responders — the deployable form of the paper's
// architecture.
//
// One TCP connection serves any number of request/response frames (see
// package proto). Its first frame must be a MsgHello offering protocol
// version 2, which the server acks; anything else first is answered with
// one error naming that version and the connection is closed
// (TestFirstFrameMustBeHello). From then on every frame carries a request
// ID and responses are matched by ID, in whatever order they complete. A
// request takes one of two roads, chosen by what it can wait on, never by
// configuration:
//
//   - Requests that can never wait on the disk — lookups, status,
//     landmarks — are served inline on the connection's reader goroutine
//     and appended to the connection's write buffer. The reader flushes
//     right before it would block on the socket, so N lookups that arrived
//     in one segment leave in one write: one function call and a share of
//     one syscall per direction.
//   - Everything else — joins, batches, leave, refresh — goes to a bounded
//     worker pool shared by all connections (Config.Workers), so a slow
//     operation (an fsync) does not head-of-line-block the connection;
//     responses come back through a per-connection queue and writer
//     goroutine, so a worker never touches a socket, and a client that
//     stops reading harms only its own connection, which is dropped within
//     the read timeout.
//
// proxdisc_response_frames_total over proxdisc_response_flushes_total is
// the server's frames per write syscall.
//
// Two contracts follow. Pipelined requests on one connection are
// unordered with respect to each other: a lookup sent behind a join may be
// answered from the state before it. And one connection's inline reads are
// served serially on its goroutine — per-connection read throughput is one
// core; open more connections to scale.
//
// A lookup takes exactly these locks. In the front end: the connection's
// own write mutex, and nothing else. In the backend: the peer index stripe's
// RLock and the shard server's state lock, read-held (a writer takes it
// exclusively for one join at a time; snapshots and other whole-state walks
// never take it) — package cluster lists them. The landmark table is
// read-only, so finding the shard takes no lock.
//
// Closest-peer answers carry dialable endpoints: every candidate comes back
// from the backend with the overlay address its peer advertised. A join
// and a lookup hand the backend a pooled answer block (pathtree.Answers),
// which the backend fills from its trees under the writer mutex or the
// state lock, and the response payload is encoded from that block into a
// pooled buffer (proto.EncodeAnswer, EncodeBatchAnswer): each address is
// written once into the block, formatted from its peer's record (an IPv4
// endpoint) or copied from its tree's address pool (any other address),
// and copied once from the block into the payload. Joins take one road: a single join decodes into the pooled
// batch op as a batch of one, goes to the backend's JoinBatchInto as a
// batch does, and is answered from its one entry. The road allocates per
// request — the string of its addresses — not per entry, so a single join
// costs what a batch does (TestBatchRoadAllocs). A subscription's answers
// still come as the backend's []pathtree.Candidate.
//
// A NetServer fronts one node's cluster.Cluster, one shard or many, a
// primary's or a follower's copy, and serves every landmark that cluster
// holds. It keeps no per-peer state and no durable state of its own.
// BenchmarkMillionPeerNode fills one durable node to a million resident
// peers over TCP and measures batched joins and lookup p99 there; nothing
// gates it.
package netserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"time"

	"proxdisc/internal/cluster"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/sub"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
)

// Config configures a NetServer.
type Config struct {
	// Telemetry, when set, registers the front end's metrics — per-type
	// request counters and latency histograms, worker queue depth and
	// saturation, and the replication-stream series.
	Telemetry *telemetry.Registry
	// Logger receives diagnostics; nil silences them.
	Logger func(format string, args ...any)
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Server is the management logic to expose. Writes reach it as typed
	// ops (package op) decoded straight from the wire: the answering join
	// entry points carry the overlay address inside the op, and every
	// answerless write goes through its one Apply door — the same door
	// follower replication and WAL replay use.
	Server *cluster.Cluster
	// LandmarkAddrs maps each landmark router ID to the UDP address of its
	// probe responder, advertised to clients.
	LandmarkAddrs map[topology.NodeID]string
	// Replication, when set, makes this node a replica: the Follower
	// feeding Server from a primary's committed op stream. A replica
	// serves reads from its copy and answers writes with a redirect to the
	// primary (joins) or a CodeNotPrimary error carrying the primary's
	// address (everything else) — the address the Follower dials — so
	// clients fail over instead of mutating a stale copy. It serves no
	// follow streams, its subscriptions are fed from the Follower's
	// applied stream, and its status responses carry the Follower's
	// applied/head position, so its replication lag is observable over the
	// wire. Nil (the default) is a primary.
	Replication *Follower
	// Workers bounds how many pipelined writes (reads never enter the pool)
	// are served concurrently across all connections. When the pool is
	// saturated, connection readers block — natural backpressure instead of
	// unbounded goroutine growth. Default: 4×GOMAXPROCS, at least 8.
	Workers int
	// MaxBatch caps the batch joins this server accepts and advertises in
	// its hello ack (default proto.MaxBatch; it is also the hard ceiling).
	MaxBatch int
	// ReadTimeout bounds how long a connection may sit idle between
	// requests (default 30s).
	ReadTimeout time.Duration
	// SlowOpThreshold, when positive, reports every request whose service
	// time exceeds it through SlowOp (or, when SlowOp is nil, Logger). The
	// check is two loads and a compare on the hot path.
	SlowOpThreshold time.Duration
	// SlowOp receives slow-request reports: the request's ID, message type,
	// service time, and whether it was served inline on the connection's
	// reader goroutine rather than by the worker pool.
	SlowOp func(id uint64, typ proto.MsgType, d time.Duration, inline bool)
}

// NetServer is a running TCP front end. Close it to release the listener.
type NetServer struct {
	cfg Config
	ln  net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// hub serves the committed op stream to follower processes; nil when
	// the backend has no durable log to ship. The commit tap behind it is
	// this server's, which fans it out to hub and plane (see commitTap).
	hub *followHub
	// plane evaluates live query subscriptions; nil when this node has no
	// op stream to feed it (a non-durable primary). See subserver.go.
	plane *sub.Plane

	subMu      sync.Mutex
	subsByConn map[*wireConn]map[uint64]*sub.Subscriber

	tasks chan task // pipelined requests awaiting a pool worker

	met srvMetrics

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// srvMetrics holds the front end's pre-resolved metric handles, indexed
// by message type so the per-request path is two atomic ops on array
// slots — no lookups, no allocation.
type srvMetrics struct {
	reqs     [proto.NumMsgTypes]*telemetry.Counter
	lat      [proto.NumMsgTypes]*telemetry.Histogram
	road     [2]*telemetry.Counter // requests served by the pool [0] and inline on a reader [1]
	queueSat *telemetry.Counter    // enqueues that found the worker pool full

	// Pipelined response frames appended to write buffers and the flushes
	// that pushed them to a socket: frames/flushes is the server's frames
	// per write syscall.
	respFrames  *telemetry.Counter
	respFlushes *telemetry.Counter

	followStalls   *telemetry.Counter // sender stalls on a full follower send window
	followCatchups *telemetry.Counter // followers re-seeded via snapshot instead of the WAL
}

// initMetrics resolves the request metrics (registering them when
// Config.Telemetry is set) and the queue-depth gauge. Every type slot is
// filled, so observeReq never branches on nil.
func (s *NetServer) initMetrics() {
	r := s.cfg.Telemetry
	for t := 1; t < proto.NumMsgTypes; t++ {
		label := `{type="` + proto.MsgType(t).String() + `"}`
		s.met.reqs[t] = r.Counter("proxdisc_requests_total" + label)
		s.met.lat[t] = r.Histogram("proxdisc_request_duration_seconds" + label)
	}
	// Slot 0 catches out-of-range wire types.
	s.met.reqs[0] = r.Counter(`proxdisc_requests_total{type="unknown"}`)
	s.met.lat[0] = r.Histogram(`proxdisc_request_duration_seconds{type="unknown"}`)
	s.met.road[0] = r.Counter(`proxdisc_requests_by_road_total{road="pool"}`)
	s.met.road[1] = r.Counter(`proxdisc_requests_by_road_total{road="inline"}`)
	s.met.queueSat = r.Counter("proxdisc_worker_queue_saturation_total")
	s.met.respFrames = r.Counter("proxdisc_response_frames_total")
	s.met.respFlushes = r.Counter("proxdisc_response_flushes_total")
	s.met.followStalls = r.Counter("proxdisc_follower_send_window_stalls_total")
	s.met.followCatchups = r.Counter("proxdisc_follower_snapshot_catchups_total")
	r.GaugeFunc("proxdisc_worker_queue_depth", func() float64 { return float64(len(s.tasks)) })
	r.GaugeFunc("proxdisc_worker_pool_size", func() float64 { return float64(s.cfg.Workers) })
	// The hub is built after initMetrics; the closure reads it at scrape
	// time, when Listen has long returned.
	r.GaugeFunc("proxdisc_followers_connected", func() float64 {
		if s.hub == nil {
			return 0
		}
		return float64(s.hub.numFollowers())
	})
}

// observeReq records one served request: its per-type counter and
// latency histogram, the road that served it (inline on the connection's
// reader, or the pool), plus the slow-op report when the service time
// crosses the configured threshold.
func (s *NetServer) observeReq(typ proto.MsgType, id uint64, d time.Duration, inline bool) {
	i := int(typ)
	if i >= proto.NumMsgTypes {
		i = 0
	}
	s.met.reqs[i].Inc()
	s.met.lat[i].Observe(d)
	road := 0
	if inline {
		road = 1
	}
	s.met.road[road].Inc()
	if th := s.cfg.SlowOpThreshold; th > 0 && d >= th {
		if s.cfg.SlowOp != nil {
			s.cfg.SlowOp(id, typ, d, inline)
		} else {
			s.cfg.Logger("netserver: slow request: id=%d type=%s inline=%t took %v", id, typ, inline, d)
		}
	}
}

// requestsServed sums the per-type counters — the RequestsTotal gauge of
// the status response.
func (s *NetServer) requestsServed() uint64 {
	var n uint64
	for i := range s.met.reqs {
		n += s.met.reqs[i].Value()
	}
	return n
}

// task is one request queued for the worker pool.
type task struct {
	wc      *wireConn
	typ     proto.MsgType
	id      uint64
	payload []byte
}

// wireConn wraps an accepted connection with its write side. The
// handshake is written by the connection's reader goroutine alone; after
// it two goroutines append whole frames to bw under wmu. The reader
// appends the responses it served inline and flushes
// right before it would block on the socket, so a run of pipelined reads
// leaves in one syscall; a client that stops reading stalls only this
// reader, until the write deadline kills the connection. Responses from
// pool workers (and stream pushes) go through a bounded queue drained by a
// dedicated writer goroutine, which flushes when the queue is momentarily
// empty: workers never block on one connection's backpressure, so a
// slow-reading client cannot wedge the shared pool — its queue fills and
// the connection is dropped instead.
type wireConn struct {
	net.Conn
	wmu  sync.Mutex // guards bw and the write deadline once the handshake is done
	bw   *bufio.Writer
	out  chan outFrame // queued responses; made, with writeLoop to drain it, once the handshake is done
	stop chan struct{} // closed by the reader to retire the writer
	dead chan struct{} // closed by the writer when it exits
}

// outFrame is one queued response. Enqueuing transfers ownership of
// payload to the connection's writer, which recycles it into the proto
// buffer pool after the frame is written — producers must not retain or
// share the slice (every producer encodes a fresh or pooled buffer per
// frame; shared bytes like op-stream record data are always copied into
// the frame payload, never aliased by it).
type outFrame struct {
	typ     proto.MsgType
	id      uint64
	payload []byte
}

// respQueueLen bounds a connection's queued responses. It equals the
// protocol's pipeline-depth cap, which clients enforce on their in-flight
// window — so a connection that fills the queue is past its window and
// not reading its responses, and gets dropped.
const respQueueLen = proto.MaxPipelineDepth

// Listen starts serving on cfg.Addr.
func Listen(cfg Config) (*NetServer, error) {
	if cfg.Server == nil {
		return nil, errors.New("netserver: nil management server")
	}
	if cfg.Logger == nil {
		cfg.Logger = func(string, ...any) {}
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4 * runtime.GOMAXPROCS(0)
		if cfg.Workers < 8 {
			cfg.Workers = 8
		}
	}
	// Derate the batch limit so a full batch's answer always fits one
	// frame, whatever the -neighbors setting; otherwise EncodeBatchAnswer
	// would refuse it after the joins applied, voiding the whole batch.
	if fit := max(1, proto.BatchAnswerFit(cfg.Server.NeighborCount())); cfg.MaxBatch <= 0 || cfg.MaxBatch > fit {
		cfg.MaxBatch = fit
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("netserver: listen: %w", err)
	}
	s := &NetServer{
		cfg:    cfg,
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
		tasks:  make(chan task, cfg.Workers),
		closed: make(chan struct{}),
	}
	s.initMetrics()
	if f := cfg.Replication; f != nil {
		// A replica serves subscriptions from its applied stream: the same
		// filters, evaluated against the local copy, scaling the push read
		// plane out with the replication tree. It never serves follows (a
		// follower of a follower would replicate a copy, not the source of
		// truth).
		s.plane = sub.New(cfg.Server, cfg.Telemetry)
		f.SetApplyTap(func(seq uint64, o op.Op) { s.plane.FeedOp(seq, o) })
		f.SetRestoreTap(s.plane.ResyncAll)
	} else if _, ok := cfg.Server.SetCommitTap(s.commitTap); ok {
		// A durable primary's committed op stream is served to follower
		// processes and to live query subscriptions. The server owns the
		// single commit tap and fans it out to both consumers.
		s.hub = newFollowHub(s, cfg.Server)
		s.plane = sub.New(cfg.Server, cfg.Telemetry)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// worker serves queued pipelined requests until shutdown.
func (s *NetServer) worker() {
	defer s.wg.Done()
	for {
		select {
		case t := <-s.tasks:
			start := time.Now()
			typ, resp := s.handleReq(t.typ, t.payload)
			s.observeReq(t.typ, t.id, time.Since(start), false)
			proto.PutBuf(t.payload)
			s.respond(t.wc, outFrame{typ: typ, id: t.id, payload: resp})
		case <-s.closed:
			return
		}
	}
}

// respond enqueues a response without ever blocking the worker:
// a connection whose queue is full is not consuming its responses (its
// TCP window and the 256-frame queue are both exhausted) and is dropped
// so it cannot stall the shared pool.
func (s *NetServer) respond(wc *wireConn, f outFrame) {
	select {
	case wc.out <- f:
	case <-wc.dead:
	default:
		s.cfg.Logger("netserver: dropping connection with %d unread responses", len(wc.out))
		wc.Close() // unblocks the reader and writer, which clean up
	}
}

// writeFrame appends one response to the connection's write
// buffer and recycles the payload; a queued frame (the writeLoop's) is
// flushed when the queue behind it is empty, an inline one is left for the
// reader to flush. The write deadline is armed only before a write that
// reaches the socket: here when the frame will not fit in what is left of
// the buffer, and in flushLocked. So every syscall runs under a deadline
// armed just before it: a stalled peer costs at most ReadTimeout before
// the connection dies, and only its own connection.
func (s *NetServer) writeFrame(wc *wireConn, f outFrame, queued bool) error {
	wc.wmu.Lock()
	var err error
	if !proto.FrameIDFits(wc.bw, len(f.payload)) {
		err = wc.SetWriteDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
	if err == nil {
		err = proto.WriteFrameID(wc.bw, f.typ, f.id, f.payload)
	}
	s.met.respFrames.Inc()
	if err == nil && queued && len(wc.out) == 0 {
		err = s.flushLocked(wc)
	}
	wc.wmu.Unlock()
	// The frame bytes were copied into the write buffer (or the connection
	// is dying); the payload is ours to recycle — see the outFrame
	// ownership contract.
	proto.PutBuf(f.payload)
	return err
}

// flushLocked pushes the write buffer to the socket, under a fresh write
// deadline, unless the other writer already did. Callers hold wc.wmu.
func (s *NetServer) flushLocked(wc *wireConn) error {
	if wc.bw.Buffered() == 0 {
		return nil
	}
	s.met.respFlushes.Inc()
	if err := wc.SetWriteDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
		return err
	}
	return wc.bw.Flush()
}

// flushInline flushes the responses the connection's reader served inline;
// false means the connection is dead.
func (s *NetServer) flushInline(wc *wireConn) bool {
	wc.wmu.Lock()
	err := s.flushLocked(wc)
	wc.wmu.Unlock()
	if err != nil {
		s.logWriteErr(err)
	}
	return err == nil
}

func (s *NetServer) logWriteErr(err error) {
	if !errors.Is(err, net.ErrClosed) {
		s.cfg.Logger("netserver: write: %v", err)
	}
}

// writeLoop is a connection's dedicated writer for queued responses,
// started once the handshake is done. It coalesces: frames are written
// back-to-back while the queue is non-empty and flushed in one syscall
// when it drains.
func (s *NetServer) writeLoop(wc *wireConn) {
	defer s.wg.Done()
	defer close(wc.dead)
	for {
		select {
		case f := <-wc.out:
			if err := s.writeFrame(wc, f, true); err != nil {
				s.logWriteErr(err)
				wc.Close() // the reader sees the close and winds down
				return
			}
		case <-wc.stop:
			return
		}
	}
}

// Addr returns the bound TCP address.
func (s *NetServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every connection, and waits for handler
// goroutines to finish.
func (s *NetServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.hub != nil {
			s.cfg.Server.SetCommitTap(nil) // detach the commit tap before the backend outlives us
		}
		if f := s.cfg.Replication; f != nil {
			f.SetApplyTap(nil)
			f.SetRestoreTap(nil)
		}
		if s.plane != nil {
			s.plane.Close() // terminates subscribers, so their senders wind down
		}
		err = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *NetServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			s.cfg.Logger("netserver: accept: %v", err)
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *NetServer) handle(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	// One buffered reader for the connection's whole life: it carries any
	// bytes that arrived behind the hello over into the ID framing, and lets
	// one read syscall deliver many pipelined request frames.
	br := bufio.NewReaderSize(nc, 16<<10)
	wc := &wireConn{Conn: nc, bw: bufio.NewWriterSize(nc, 16<<10)}
	if err := s.handshake(wc, br); err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.cfg.Logger("netserver: handshake: %v", err)
		}
		return
	}
	wc.out = make(chan outFrame, respQueueLen)
	wc.stop = make(chan struct{})
	wc.dead = make(chan struct{})
	s.wg.Add(1)
	go s.writeLoop(wc)
	defer func() {
		if s.hub != nil {
			s.hub.drop(wc)
		}
		if s.plane != nil {
			s.dropSubs(wc)
		}
		close(wc.stop) // retire the writer goroutine
	}()
	unflushed := false // this goroutine appended inline responses since its last flush
	for {
		// Flush and re-arm the idle deadline only when the next read would
		// touch the socket: while complete pipelined frames sit in br their
		// inline responses pile up in the write buffer and leave together.
		// A frame that arrived in part counts as not there — its sender has
		// ReadTimeout from now to finish it.
		if !proto.FrameBuffered(br) {
			if unflushed && !s.flushInline(wc) {
				return
			}
			unflushed = false
			if err := nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
				return
			}
		}
		typ, id, payload, err := proto.ReadFrameID(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logger("netserver: read: %v", err)
			}
			return
		}
		// Stream control frames bypass the worker pool: an ack is a
		// cheap counter update, and a follow subscription hands the
		// connection to a dedicated sender goroutine.
		switch typ {
		case proto.MsgOpAck:
			if m, derr := proto.DecodeOpAck(payload); derr == nil && s.hub != nil {
				s.hub.ack(wc, m.Seq)
			}
			proto.PutBuf(payload)
			continue
		case proto.MsgFollowRequest:
			s.serveFollow(wc, id, payload)
			proto.PutBuf(payload)
			continue
		case proto.MsgSubscribeRequest:
			s.serveSubscribe(wc, id, payload)
			proto.PutBuf(payload)
			continue
		case proto.MsgUnsubscribe:
			s.serveUnsubscribe(wc, id, payload)
			proto.PutBuf(payload)
			continue
		}
		// Requests that cannot wait on the disk are served right here,
		// into the write buffer.
		start := time.Now()
		if respType, resp, ok := s.serveInline(typ, payload); ok {
			s.observeReq(typ, id, time.Since(start), true)
			proto.PutBuf(payload)
			if err := s.writeFrame(wc, outFrame{typ: respType, id: id, payload: resp}, false); err != nil {
				s.logWriteErr(err)
				return
			}
			unflushed = true
			continue
		}
		// Hand everything else to the pool; block when it is saturated
		// so a flooding client feels backpressure instead of growing an
		// unbounded queue. The non-blocking first try costs nothing
		// when the pool keeps up and counts every time it does not.
		select {
		case s.tasks <- task{wc: wc, typ: typ, id: id, payload: payload}:
		default:
			s.met.queueSat.Inc()
			// Answers already served must not wait out the pool.
			if unflushed && !s.flushInline(wc) {
				proto.PutBuf(payload)
				return
			}
			unflushed = false
			select {
			case s.tasks <- task{wc: wc, typ: typ, id: id, payload: payload}:
			case <-s.closed:
				proto.PutBuf(payload)
				return
			}
		}
	}
}

// handshake serves a connection's first frame, the only one read and
// answered in the bare framing. A MsgHello offering version 2 or later is
// acked — at version 2, with the batch limit both sides accept — and the
// connection is on ID framing from its next frame in both directions.
// Anything else — a request with no hello before it, a hello capped below
// version 2, a hello that does not decode — gets one MsgError naming the
// version this server speaks and a non-nil return: the caller closes the
// connection, and nothing reached the backend.
func (s *NetServer) handshake(wc *wireConn, br *bufio.Reader) error {
	if err := wc.SetDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
		return err
	}
	typ, payload, err := proto.ReadFrame(br)
	if err != nil {
		return err
	}
	var hello *proto.Hello
	var refusal error
	if typ != proto.MsgHello {
		refusal = fmt.Errorf("first frame has message type %d", typ)
	} else if hello, refusal = proto.DecodeHello(payload); refusal == nil && hello.MaxVersion < proto.Version2 {
		refusal = fmt.Errorf("hello offers protocol version %d", hello.MaxVersion)
	}
	proto.PutBuf(payload)
	respType, resp := proto.MsgHelloAck, []byte(nil)
	if refusal != nil {
		refusal = fmt.Errorf("%w: a connection opens with MsgHello offering protocol version %d", refusal, proto.Version2)
		respType, resp = errResp(proto.CodeBadRequest, fmt.Errorf("netserver: %w", refusal))
	} else {
		resp = proto.EncodeHelloAck(&proto.HelloAck{
			Version:  proto.Version2,
			MaxBatch: min(uint16(s.cfg.MaxBatch), hello.MaxBatch),
		})
	}
	if err := proto.WriteFrame(wc.bw, respType, resp); err != nil {
		return err
	}
	if err := wc.bw.Flush(); err != nil {
		return err
	}
	return refusal
}

// serveFollow answers a MsgFollowRequest: reject it when this node has no
// op stream to serve (non-durable, or a replica whose copy is not the
// source of truth), otherwise register the connection with the hub, whose
// dedicated sender takes over the stream.
func (s *NetServer) serveFollow(wc *wireConn, id uint64, payload []byte) {
	req, err := proto.DecodeFollowRequest(payload)
	if err != nil {
		t, resp := errResp(proto.CodeBadRequest, err)
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
		return
	}
	if s.cfg.Replication != nil {
		t, resp := errResp(proto.CodeNotPrimary, errors.New(s.primaryAddr()))
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
		return
	}
	if s.hub == nil {
		t, resp := errResp(proto.CodeBadRequest,
			errors.New("netserver: this node has no durable op log to follow (no DataDir)"))
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
		return
	}
	if err := s.hub.add(wc, id, req.After); err != nil {
		t, resp := errResp(proto.CodeBadRequest, err)
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
	}
}

// errResp encodes an error response frame.
func errResp(code uint16, err error) (proto.MsgType, []byte) {
	return proto.MsgError, proto.EncodeError(&proto.Error{Code: code, Message: err.Error()})
}

// errCode is the wire code of the backend's refusal of a join, lookup or
// refresh: a malformed join is the client's fault, an unknown landmark or
// peer is named as such, and anything else is the server's.
func errCode(err error) uint16 {
	switch {
	case errors.Is(err, server.ErrBadJoin):
		return proto.CodeBadRequest
	case errors.Is(err, server.ErrUnknownLandmark):
		return proto.CodeUnknownLandmark
	case errors.Is(err, server.ErrUnknownPeer):
		return proto.CodeUnknownPeer
	default:
		return proto.CodeInternal
	}
}

// serveInline serves a pipelined request on the calling reader goroutine
// when it can never wait on the disk: status, landmarks and every lookup,
// malformed ones included. ok=false sends the request to the pool
// untouched. The set is decided by the message type alone, so a reader
// blocks only on its own socket.
func (s *NetServer) serveInline(typ proto.MsgType, payload []byte) (respType proto.MsgType, resp []byte, ok bool) {
	switch typ {
	case proto.MsgStatusRequest, proto.MsgLandmarksRequest, proto.MsgLookupRequest:
		respType, resp = s.handleReq(typ, payload)
		return respType, resp, true
	}
	return 0, nil, false
}

// handleReq serves one decoded request and returns exactly one response
// frame (type and payload). It never retains the request payload, so the
// caller may recycle it afterwards. It is called concurrently by pool
// workers and, for the kinds serveInline picks, by connection readers.
func (s *NetServer) handleReq(typ proto.MsgType, payload []byte) (proto.MsgType, []byte) {
	if s.cfg.Replication != nil {
		if t, resp, handled := s.rejectWriteOnReplica(typ); handled {
			return t, resp
		}
	}
	switch typ {
	case proto.MsgStatusRequest:
		// Every shard is one live copy; further copies are follower
		// processes, which report their own status.
		shards := uint16(s.cfg.Server.NumShards())
		ds := s.cfg.Server.DurabilityStats() // zero on a node without a log
		st := &proto.Status{
			Role:         proto.RolePrimary,
			Shards:       shards,
			Replicas:     1,
			Live:         shards,
			SnapshotSeq:  ds.SnapshotSeq,
			WalTail:      ds.TailRecords,
			ReplayMillis: uint32(ds.ReplayTime.Milliseconds()),
			Applied:      ds.Head,
			Head:         ds.Head,
			WalFsyncs:    ds.Log.Fsyncs,
			Peers:        uint64(s.cfg.Server.NumPeers()),
		}
		if f := s.cfg.Replication; f != nil {
			st.Role = proto.RoleReplica
			st.PrimaryAddr = s.primaryAddr()
			st.Applied, st.Head = f.Applied(), f.Head()
		}
		st.QueueDepth = uint32(len(s.tasks))
		st.RequestsTotal = s.requestsServed()
		b, err := proto.EncodeStatus(st)
		if err != nil {
			return errResp(proto.CodeInternal, err)
		}
		return proto.MsgStatusResponse, b

	case proto.MsgLandmarksRequest:
		resp := &proto.LandmarksResponse{}
		for _, lm := range s.cfg.Server.Landmarks() {
			resp.Routers = append(resp.Routers, int32(lm))
			resp.Addrs = append(resp.Addrs, s.cfg.LandmarkAddrs[lm])
		}
		b, err := proto.EncodeLandmarksResponse(resp)
		if err != nil {
			return errResp(proto.CodeInternal, err)
		}
		return proto.MsgLandmarksResponse, b

	case proto.MsgJoinRequest, proto.MsgBatchJoinRequest:
		// One road for both: a single join is a batch of one, answered
		// from its one entry.
		m := batchOps.Get().(*proto.BatchJoinOp)
		defer batchOps.Put(m)
		var err error
		if typ == proto.MsgJoinRequest {
			err = m.DecodeJoin(payload)
		} else {
			err = m.Decode(payload)
		}
		if err != nil {
			return errResp(proto.CodeBadRequest, err)
		}
		if len(m.Op.Batch) > s.cfg.MaxBatch {
			return errResp(proto.CodeBadRequest,
				fmt.Errorf("netserver: batch of %d joins exceeds limit %d", len(m.Op.Batch), s.cfg.MaxBatch))
		}
		ans := pathtree.GetAnswers()
		defer ans.Release()
		s.cfg.Server.JoinBatchInto(m.Op, ans)
		if typ == proto.MsgJoinRequest {
			if err := ans.Entries[0].Err; err != nil {
				return errResp(errCode(err), err)
			}
			return answerResp(proto.MsgJoinResponse, ans, ans.Entries[0])
		}
		b, err := proto.EncodeBatchAnswer(ans, errCode)
		if err != nil {
			return errResp(proto.CodeInternal, err)
		}
		return proto.MsgBatchJoinResponse, b

	case proto.MsgLookupRequest:
		req, err := proto.DecodeLookupRequest(payload)
		if err != nil {
			return errResp(proto.CodeBadRequest, err)
		}
		ans := pathtree.GetAnswers()
		defer ans.Release()
		run, err := s.cfg.Server.LookupInto(pathtree.PeerID(req.Peer), ans)
		if err != nil {
			return errResp(errCode(err), err)
		}
		return answerResp(proto.MsgLookupResponse, ans, run)

	case proto.MsgLeaveRequest:
		o, err := proto.DecodeLeaveOp(payload)
		if err != nil {
			return errResp(proto.CodeBadRequest, err)
		}
		// A leave of an unknown peer stays an ack (idempotent departure),
		// but any other failure — a durable backend whose WAL append
		// failed, say — must surface: the client would otherwise treat an
		// uncommitted removal as durable.
		if err := s.cfg.Server.Apply(o); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
			return errResp(proto.CodeInternal, err)
		}
		return proto.MsgAck, nil

	case proto.MsgRefreshRequest:
		o, err := proto.DecodeRefreshOp(payload)
		if err != nil {
			return errResp(proto.CodeBadRequest, err)
		}
		if err := s.cfg.Server.Apply(o); err != nil {
			return errResp(errCode(err), err)
		}
		return proto.MsgAck, nil

	default:
		return errResp(proto.CodeBadRequest,
			fmt.Errorf("netserver: unknown message type %d", typ))
	}
}

// rejectWriteOnReplica answers the write-class requests a replica node must
// not apply locally, naming the primary: a join gets a MsgRedirect to it,
// and every other write a CodeNotPrimary error whose message carries its
// address. The client treats both alike (it learns the primary and sends
// the request again there). This is the only place a node sends a
// MsgRedirect. Reads (lookup, landmarks, status) fall through and are
// served from the local copy.
func (s *NetServer) rejectWriteOnReplica(typ proto.MsgType) (proto.MsgType, []byte, bool) {
	switch typ {
	case proto.MsgJoinRequest:
		b, err := proto.EncodeRedirect(&proto.Redirect{Addr: s.primaryAddr()})
		if err != nil {
			t, resp := errResp(proto.CodeInternal, err)
			return t, resp, true
		}
		return proto.MsgRedirect, b, true
	case proto.MsgBatchJoinRequest, proto.MsgLeaveRequest, proto.MsgRefreshRequest:
		t, resp := errResp(proto.CodeNotPrimary, errors.New(s.primaryAddr()))
		return t, resp, true
	}
	return 0, nil, false
}

// primaryAddr is where a replica points writes: the address its Follower
// dials.
func (s *NetServer) primaryAddr() string { return s.cfg.Replication.cfg.PrimaryAddr }

// batchOps recycles the decoded batch requests: entries, hops and all, so
// a batch's decode allocates only the string of its addresses. Nothing the
// backend keeps aliases the entries or their paths: it copies what it
// keeps into its trees and its log.
var batchOps = sync.Pool{New: func() any { return new(proto.BatchJoinOp) }}

// answerResp encodes one answer of a block as a join or lookup response.
func answerResp(typ proto.MsgType, ans *pathtree.Answers, run pathtree.Answer) (proto.MsgType, []byte) {
	b, err := proto.EncodeAnswer(ans, run)
	if err != nil {
		return errResp(proto.CodeInternal, err)
	}
	return typ, b
}

// LandmarkResponder answers UDP probe datagrams, letting peers measure RTT
// to a landmark — the "first round" measurement of the protocol.
type LandmarkResponder struct {
	conn *net.UDPConn
	wg   sync.WaitGroup
}

// ListenLandmark starts a probe responder on the given UDP address
// ("127.0.0.1:0" picks a free port).
func ListenLandmark(addr string) (*LandmarkResponder, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserver: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("netserver: listen udp: %w", err)
	}
	l := &LandmarkResponder{conn: conn}
	l.wg.Add(1)
	go l.loop()
	return l, nil
}

// Addr returns the responder's UDP address.
func (l *LandmarkResponder) Addr() string { return l.conn.LocalAddr().String() }

// Close stops the responder.
func (l *LandmarkResponder) Close() error {
	err := l.conn.Close()
	l.wg.Wait()
	return err
}

func (l *LandmarkResponder) loop() {
	defer l.wg.Done()
	buf := make([]byte, 64)
	for {
		n, from, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if _, err := proto.DecodeProbe(buf[:n]); err != nil {
			continue // not ours
		}
		if _, err := l.conn.WriteToUDP(buf[:n], from); err != nil {
			log.Printf("netserver: landmark echo: %v", err)
		}
	}
}
