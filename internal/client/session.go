package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/proto"
	"proxdisc/internal/telemetry"
)

// session is one hello'd connection to one node. It knows nothing of
// routing: the Client picks a session by address, and writes it off when
// its connection dies. It carries calls and subscription streams alike.
type session struct {
	conn net.Conn
	// timeout bounds each request/response exchange (Config.Timeout).
	timeout time.Duration
	// maxBatch is the batch size the node accepts (at least 1), set once
	// at dial time.
	maxBatch int
	inflight *telemetry.Gauge // the Client's proxdisc_client_inflight

	// br buffers all reads for the connection's whole life, so one read
	// syscall can deliver many pipelined response frames.
	br *bufio.Reader

	// Pipelining state. A caller appends its request
	// frame to bw under wmu, releases wmu, yields the processor once, and
	// then flushes whatever is buffered — so callers that became runnable
	// together (say, woken one after another by readLoop) all append during
	// the first one's yield and their frames reach the kernel in one
	// syscall; the rest find the buffer empty and skip the flush. On an
	// idle connection the yield returns at once and the request is flushed
	// immediately.
	//
	// A caller waits on a call slot from callPool, registered in pending
	// under its request ID; the demux removes it from pending before it
	// delivers the response, and only a caller that received its response
	// puts the slot back (see call).
	//
	// A subscription's stream is registered in streams under the ID of
	// the request that opened it: the demux hands that request's answer to
	// its call, and every later frame with the ID to the stream.
	wmu      sync.Mutex
	bw       *bufio.Writer
	nextID   atomic.Uint64
	slots    chan struct{} // in-flight semaphore, cap MaxInFlight
	pmu      sync.Mutex
	pending  map[uint64]*call
	streams  map[uint64]*stream
	readErr  error         // set by readLoop before readDone closes; guarded by pmu
	readDone chan struct{} // closed when readLoop exits
}

// frameResp is one demultiplexed response frame.
type frameResp struct {
	typ     proto.MsgType
	payload []byte
}

// streamFrames is how many frames a stream holds for its reader. The
// demux never waits on a full stream: it drops the frame and closes the
// stream, and the subscription resubscribes. It is the size of the
// server's queue per subscription, past which the server resyncs a
// subscriber too.
const streamFrames = 256

// stream is a subscription's registration on a session: the frames the
// server pushed under id, in arrival order. exchange sets sess and id when
// it registers the stream.
type stream struct {
	sess   *session
	id     uint64
	frames chan frameResp
}

// dialSession connects to the node at addr, opens the session (see Hello)
// and starts its demux goroutine.
func dialSession(addr string, cfg Config, inflight *telemetry.Gauge) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	s := &session{
		conn:     conn,
		timeout:  cfg.Timeout,
		inflight: inflight,
		br:       bufio.NewReaderSize(conn, 16<<10),
		bw:       bufio.NewWriterSize(conn, 16<<10),
		slots:    make(chan struct{}, cfg.MaxInFlight),
		pending:  make(map[uint64]*call),
		streams:  make(map[uint64]*stream),
		readDone: make(chan struct{}),
	}
	ack, err := Hello(conn, s.br, cfg.Timeout)
	if err == nil && ack.MaxBatch < 1 {
		err = errors.New("client: server acked a batch limit of 0")
	}
	if err == nil {
		// The demux goroutine reads without deadlines; individual calls
		// enforce their own timeouts.
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.maxBatch = int(ack.MaxBatch)
	go s.readLoop()
	return s, nil
}

// Hello opens a session on a fresh connection, for both dialers
// (dialSession and netserver's Follower): it sends MsgHello in the bare
// framing, offering this build's version and batch limit, and reads the
// answer, all within timeout. Only a MsgHelloAck at version 2 is a session; a MsgError
// (a server that speaks no version 2 refuses the hello that way), an ack
// at another version or any other frame is an error, never a fallback. On
// success the connection's deadline is still armed; the caller finishes
// its own opening exchange and clears it.
func Hello(conn net.Conn, br io.Reader, timeout time.Duration) (*proto.HelloAck, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("client: set deadline: %w", err)
	}
	req := proto.EncodeHello(&proto.Hello{MaxVersion: proto.MaxVersion, MaxBatch: proto.MaxBatch})
	if err := proto.WriteFrame(conn, proto.MsgHello, req); err != nil {
		return nil, fmt.Errorf("client: send hello: %w", err)
	}
	typ, payload, err := proto.ReadFrame(br)
	if err != nil {
		return nil, fmt.Errorf("client: read hello response: %w", err)
	}
	defer proto.PutBuf(payload)
	switch typ {
	case proto.MsgHelloAck:
		ack, err := proto.DecodeHelloAck(payload)
		if err != nil {
			return nil, fmt.Errorf("client: bad hello ack: %w", err)
		}
		if ack.Version != proto.Version2 {
			return nil, fmt.Errorf("client: server acked protocol version %d, want %d", ack.Version, proto.Version2)
		}
		return ack, nil
	case proto.MsgError:
		werr, err := proto.DecodeError(payload)
		if err != nil {
			return nil, fmt.Errorf("client: undecodable hello rejection: %w", err)
		}
		return nil, fmt.Errorf("client: server refused the version-%d hello: %w", proto.Version2, werr)
	default:
		return nil, fmt.Errorf("client: unexpected hello response type %d", typ)
	}
}

// readLoop demultiplexes frames by request ID: to a waiting call, else to
// a registered stream. It never blocks on either: a call's channel has
// room for its one response, and a stream too full to take a frame loses
// the frame and is closed. It exits on the first read error (including a
// closed connection), after which every outstanding and future call on
// this session fails fast.
func (s *session) readLoop() {
	for {
		typ, id, payload, err := proto.ReadFrameID(s.br)
		if err != nil {
			s.pmu.Lock()
			s.readErr = fmt.Errorf("client: receive: %w", err)
			s.pmu.Unlock()
			close(s.readDone)
			return
		}
		f := frameResp{typ: typ, payload: payload}
		s.pmu.Lock()
		cl, ok := s.pending[id]
		delete(s.pending, id)
		if st := s.streams[id]; !ok && st != nil {
			select {
			case st.frames <- f:
				f.payload = nil // the stream's now
			default:
				delete(s.streams, id)
				close(st.frames)
			}
		}
		s.pmu.Unlock()
		if ok {
			cl.done <- f // buffered, never blocks
		} else if f.payload != nil {
			proto.PutBuf(f.payload) // for a call that timed out, or a stream that is gone or full
		}
	}
}

// callTimeout bounds one exchange: d (Config.Timeout), tightened by the
// context's deadline when that is sooner.
func callTimeout(ctx context.Context, d time.Duration) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < d {
			d = until
		}
	}
	return d
}

// exchange sends one request frame and waits for its response frame,
// decoding wire errors into *proto.Error values and returning the response
// type; any number of exchanges proceed concurrently. It takes an in-flight
// slot and a pooled call, registers the call under a fresh request ID,
// writes the frame, and waits for the demux goroutine (or a timeout, or
// connection death). The response payload is the caller's, to recycle with
// proto.PutBuf once decoded; payload stays the caller's too, since a retry
// may send it again.
//
// A subscribe request passes the stream its events will feed (nil for any
// other request). exchange registers it with the call, before the request
// is sent, so no event can arrive for an ID the demux does not know. An
// exchange that fails deregisters it, and one that gave up waiting also
// tells the server, which may have registered the subscription already.
func (s *session) exchange(ctx context.Context, reqType proto.MsgType, payload []byte, st *stream) (proto.MsgType, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	select {
	case s.slots <- struct{}{}:
	case <-s.readDone:
		return 0, nil, s.readError()
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	s.inflight.Inc()
	defer func() {
		s.inflight.Dec()
		<-s.slots
	}()

	id := s.nextID.Add(1)
	cl := callPool.Get().(*call)
	s.pmu.Lock()
	if s.readErr != nil {
		s.pmu.Unlock()
		callPool.Put(cl) // never registered, so nothing else can reach it
		return 0, nil, s.readError()
	}
	s.pending[id] = cl
	if st != nil {
		st.sess, st.id = s, id
		s.streams[id] = st
	}
	s.pmu.Unlock()

	timeout := callTimeout(ctx, s.timeout)
	s.wmu.Lock()
	err := s.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err == nil {
		err = proto.WriteFrameID(s.bw, reqType, id, payload)
	}
	s.wmu.Unlock()
	if err == nil {
		// Let every other runnable caller append its frame first; whoever
		// gets back here first flushes them all (see the wmu comment).
		runtime.Gosched()
		s.wmu.Lock()
		err = s.bw.Flush() // no write when another caller already flushed our frame
		s.wmu.Unlock()
	}
	if err != nil {
		s.forget(id)
		return 0, nil, fmt.Errorf("client: send: %w", err)
	}

	cl.timer.Reset(timeout)
	select {
	case r := <-cl.done:
		typ, resp, err := cl.received(r)
		if err != nil && st != nil {
			s.forget(id) // refused: no event follows
		}
		return typ, resp, err
	case <-cl.timer.C:
		err = fmt.Errorf("%w after %v", errRequestTimeout, timeout)
	case <-ctx.Done():
		err = ctx.Err()
	case <-s.readDone:
		err = s.readError()
	}
	s.forget(id)
	if st != nil {
		// Best effort, unanswered: the ack comes back under an ID no call
		// waits on.
		s.post(proto.MsgUnsubscribe, s.nextID.Add(1), proto.EncodeUnsubscribe(&proto.Unsubscribe{SubID: id}))
	} else {
		// The response may have been delivered while we were giving up.
		select {
		case r := <-cl.done:
			return cl.received(r)
		default:
		}
	}
	// The demux may hold the call still, found in pending just before
	// forget, and send to it later: it goes to the GC, never back to the
	// pool.
	cl.timer.Stop()
	return 0, nil, err
}

// unsubscribe ends st's registration: the demux forgets it, and the server
// frees the subscription before it acks, within the session's timeout. A
// session that died took its subscriptions with it, and fails at once.
func (st *stream) unsubscribe() {
	req := proto.EncodeUnsubscribe(&proto.Unsubscribe{SubID: st.id})
	st.sess.forget(st.id)
	if _, resp, err := st.sess.exchange(context.Background(), proto.MsgUnsubscribe, req, nil); err == nil {
		proto.PutBuf(resp)
	}
}

// post sends one frame that has no response: a subscription's heartbeat,
// or an unsubscribe nobody waits on.
func (s *session) post(typ proto.MsgType, id uint64, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	err := s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	if err == nil {
		err = proto.WriteFrameID(s.bw, typ, id, payload)
	}
	if err == nil {
		err = s.bw.Flush()
	}
	return err
}

// call is one outstanding request's slot: the channel its response frame
// arrives on and the timer bounding the wait, both reused from call to
// call. A call goes back to callPool only once its one response was
// received — the demux removed it from pending and sent, and holds it no
// longer — so no demux lookup, delete or send ever reaches a reused call.
type call struct {
	done  chan frameResp // capacity 1: the demux never blocks on it
	timer *time.Timer
}

var callPool = sync.Pool{New: func() any {
	// Stopped until exchange arms it; since Go 1.23 a stopped or reset
	// timer delivers no stale tick, so a pooled one needs no drain.
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &call{done: make(chan frameResp, 1), timer: t}
}}

// received finishes a call whose response arrived and returns it to the
// pool.
func (cl *call) received(r frameResp) (proto.MsgType, []byte, error) {
	cl.timer.Stop()
	callPool.Put(cl)
	return decodeResp(r.typ, r.payload)
}

// forget deregisters a request whose caller stopped waiting, and the
// stream it opened if any: later frames with its ID are dropped.
func (s *session) forget(id uint64) {
	s.pmu.Lock()
	delete(s.pending, id)
	delete(s.streams, id)
	s.pmu.Unlock()
}

// readError reports why the demux goroutine exited.
func (s *session) readError() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.readErr != nil {
		return s.readErr
	}
	return net.ErrClosed
}

// decodeResp unwraps MsgError responses into *proto.Error values,
// recycling their payload.
func decodeResp(typ proto.MsgType, payload []byte) (proto.MsgType, []byte, error) {
	if typ == proto.MsgError {
		werr, derr := proto.DecodeError(payload)
		proto.PutBuf(payload)
		if derr != nil {
			return 0, nil, fmt.Errorf("client: undecodable error response: %w", derr)
		}
		return 0, nil, werr
	}
	return typ, payload, nil
}
