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
)

// session is one hello'd connection to one node. It knows nothing of
// routing: the Client picks a session by address, and writes it off when
// its connection dies. It carries calls and subscription streams alike.
type session struct {
	conn net.Conn
	// timeout is Config.Timeout: it bounds each call's wait for its
	// answer (see sweep) and each write that reaches the socket.
	timeout time.Duration
	// maxBatch is the batch size the node accepts (at least 1), set once
	// at dial time.
	maxBatch int

	// br buffers all reads for the connection's whole life, so one read
	// syscall can deliver many pipelined response frames.
	br *bufio.Reader

	// Pipelining state. A caller appends its request frame to bw under
	// wmu, releases wmu, yields the processor once, and then flushes
	// whatever is buffered — so callers that became runnable together
	// (say, woken one after another by readLoop) all append during the
	// first one's yield and their frames reach the kernel in one syscall;
	// the rest find the buffer empty and skip the flush. On an idle
	// connection the yield returns at once and the request is flushed
	// immediately. The write deadline is armed only before a write that
	// reaches the socket — a flush that finds bytes buffered, or a frame
	// too big for what is left of the buffer — and always to Timeout from
	// then: it bounds the session's syscall, not any one caller's wait.
	//
	// A caller waits on a call slot from callPool, registered in pending
	// under its request ID. Whoever removes a call from pending delivers
	// to it exactly once: the demux its response, the sweep its timeout,
	// a dying readLoop the session's receive error. Only the caller that
	// received that delivery, or that removed its own call before anyone
	// else did, puts the slot back (see call).
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
	// sweeper runs sweep every sweepEvery while the session lives; it
	// fails overdue calls with timedOut. Guarded by pmu.
	sweeper    *time.Timer
	sweepEvery time.Duration
	timedOut   error
}

// frameResp is one demultiplexed response frame, or, delivered to a call
// instead of one, err: the call timed out or its session died.
type frameResp struct {
	typ     proto.MsgType
	payload []byte
	err     error
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
func dialSession(addr string, cfg Config) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	s := &session{
		conn:       conn,
		timeout:    cfg.Timeout,
		br:         bufio.NewReaderSize(conn, 16<<10),
		bw:         bufio.NewWriterSize(conn, 16<<10),
		slots:      make(chan struct{}, cfg.MaxInFlight),
		pending:    make(map[uint64]*call),
		streams:    make(map[uint64]*stream),
		readDone:   make(chan struct{}),
		sweepEvery: max(cfg.Timeout/sweepsPerTimeout, time.Millisecond),
		timedOut:   fmt.Errorf("%w after %v", errRequestTimeout, cfg.Timeout),
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
	s.pmu.Lock()
	s.sweeper = time.AfterFunc(s.sweepEvery, s.sweep)
	s.pmu.Unlock()
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
// closed connection): it fails every pending call with that error, and
// every later call on this session fails fast with it.
func (s *session) readLoop() {
	for {
		typ, id, payload, err := proto.ReadFrameID(s.br)
		if err != nil {
			s.pmu.Lock()
			s.readErr = fmt.Errorf("client: receive: %w", err)
			s.sweeper.Stop()
			for id, cl := range s.pending {
				delete(s.pending, id)
				cl.done <- frameResp{err: s.readErr}
			}
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

// sweepsPerTimeout is how many sweeps a session runs per Config.Timeout,
// so a call with no answer fails at most Timeout/sweepsPerTimeout late.
// The period is at least a millisecond, so that an idle session with a
// tiny Timeout does not spin.
const sweepsPerTimeout = 8

// sweep fails every pending call whose deadline has passed with the
// session's timeout error, then re-arms itself; it stops once the session
// is dead (readLoop failed what was left). A call failed here has had its
// one delivery, so its caller may pool it.
func (s *session) sweep() {
	now := time.Now()
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.readErr != nil {
		return
	}
	for id, cl := range s.pending {
		if !now.Before(cl.deadline) {
			delete(s.pending, id)
			cl.done <- frameResp{err: s.timedOut}
		}
	}
	s.sweeper.Reset(s.sweepEvery)
}

// exchange sends one request frame and waits for its response frame,
// decoding wire errors into *proto.Error values and returning the response
// type; any number of exchanges proceed concurrently. It takes an in-flight
// slot and a pooled call, registers the call under a fresh request ID with
// its deadline, writes the frame, and waits for the call's one delivery:
// its response from the demux, its timeout from the sweep, or the
// session's receive error from a dying readLoop. A context that can end
// is watched too; one that cannot (context.Background) leaves the wait a
// plain channel receive. The response payload is the caller's, to recycle
// with proto.PutBuf once decoded; payload stays the caller's too, since a
// retry may send it again.
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
	default:
		// The session is at MaxInFlight: wait for a slot, or for the
		// session's end or the context's.
		select {
		case s.slots <- struct{}{}:
		case <-s.readDone:
			return 0, nil, s.readError()
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	defer func() { <-s.slots }()

	id := s.nextID.Add(1)
	cl := callPool.Get().(*call)
	cl.deadline = time.Now().Add(s.timeout)
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

	s.wmu.Lock()
	err := s.writeLocked(reqType, id, payload)
	s.wmu.Unlock()
	if err == nil {
		// Let every other runnable caller append its frame first; whoever
		// gets back here first flushes them all (see the wmu comment).
		runtime.Gosched()
		s.wmu.Lock()
		err = s.flushLocked() // no write when another caller already flushed our frame
		s.wmu.Unlock()
	}
	var r frameResp
	if err != nil {
		s.writeOff()
		err = fmt.Errorf("client: send: %w", err)
	} else if done := ctx.Done(); done == nil {
		r = <-cl.done
	} else {
		select {
		case r = <-cl.done:
		case <-done:
			err = ctx.Err()
		}
	}
	if err != nil {
		// The caller gives up. A call that is no longer pending was taken
		// by someone who delivers to it at once: receive that delivery,
		// so that the call is the pool's again.
		if !s.forget(id) {
			if late := <-cl.done; late.err == nil && st == nil {
				r, err = late, nil // the response beat the give-up
			} else if late.payload != nil {
				proto.PutBuf(late.payload)
			}
		}
		if err != nil {
			r = frameResp{err: err}
		}
	}
	callPool.Put(cl) // its one delivery is received, or none will come
	if r.err == nil {
		typ, resp, err := decodeResp(r.typ, r.payload)
		if err != nil && st != nil {
			s.forget(id) // refused: no event follows
		}
		return typ, resp, err
	}
	if st != nil {
		s.forget(id)
		// Best effort, unanswered: the ack comes back under an ID no call
		// waits on.
		s.post(proto.MsgUnsubscribe, s.nextID.Add(1), proto.EncodeUnsubscribe(&proto.Unsubscribe{SubID: id}))
	}
	return 0, nil, r.err
}

// writeLocked appends one frame to the write buffer, arming the write
// deadline first when the frame will not fit in what is left of it.
// Callers hold wmu.
func (s *session) writeLocked(typ proto.MsgType, id uint64, payload []byte) error {
	if !proto.FrameIDFits(s.bw, len(payload)) {
		if err := s.conn.SetWriteDeadline(time.Now().Add(s.timeout)); err != nil {
			return err
		}
	}
	return proto.WriteFrameID(s.bw, typ, id, payload)
}

// flushLocked pushes the buffered frames to the socket under a fresh write
// deadline; with nothing buffered it touches neither. Callers hold wmu.
func (s *session) flushLocked() error {
	if s.bw.Buffered() == 0 {
		return nil
	}
	if err := s.conn.SetWriteDeadline(time.Now().Add(s.timeout)); err != nil {
		return err
	}
	return s.bw.Flush()
}

// writeOff ends the session after a failed socket write, which the
// buffered writer keeps: nothing can be sent on it again. It closes the
// connection and waits for readLoop to fail the pending calls, so the next
// request finds the session dead and the redial rule dials afresh; the
// call whose write failed still returns its own error.
func (s *session) writeOff() {
	s.conn.Close()
	<-s.readDone
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
	err := s.writeLocked(typ, id, payload)
	if err == nil {
		err = s.flushLocked()
	}
	s.wmu.Unlock()
	if err != nil {
		s.writeOff()
	}
	return err
}

// call is one outstanding request's slot: the channel its one delivery
// arrives on, reused from call to call, and the deadline the sweep fails it
// at. A call goes back to callPool only once nothing can reach it any
// more: its delivery was received, or its caller removed it from pending
// before anyone took it — so no demux, sweep or readLoop lookup, delete or
// send ever reaches a reused call.
type call struct {
	done     chan frameResp // capacity 1: whoever takes the call from pending never blocks on it
	deadline time.Time      // Timeout after registration; read by the sweep under pmu
}

var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan frameResp, 1)}
}}

// forget deregisters a request whose caller stopped waiting, and the
// stream it opened if any: later frames with its ID are dropped. It
// reports whether the request's call was still pending, so that no
// delivery will reach it.
func (s *session) forget(id uint64) bool {
	s.pmu.Lock()
	_, pending := s.pending[id]
	delete(s.pending, id)
	delete(s.streams, id)
	s.pmu.Unlock()
	return pending
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
