package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/proto"
)

// TestPendingCallsFailWhenSessionDies: callers waiting on a session whose
// server hangs up all fail at once with the session's receive error —
// readLoop delivers it to every pending call — not after Timeout, and none
// hangs.
func TestPendingCallsFailWhenSessionDies(t *testing.T) {
	const callers = 8
	fs := newFakeServer(t) // reads every request, answers none
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := dialled(c)
	req := proto.EncodeLookupRequest(&proto.LookupRequest{Peer: 1})
	type result struct {
		err     error
		elapsed time.Duration
	}
	results := make(chan result, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, resp, err := s.exchange(context.Background(), proto.MsgLookupRequest, req, nil)
			proto.PutBuf(resp)
			results <- result{err: err}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); len(fs.requests()) < callers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server read %d of %d requests", len(fs.requests()), callers)
		}
	}
	hangUp := time.Now()
	fs.mu.Lock()
	for _, conn := range fs.conns {
		conn.Close()
	}
	fs.mu.Unlock()
	for i := 0; i < callers; i++ {
		select {
		case r := <-results:
			if r.err == nil || !errors.Is(r.err, io.EOF) || r.err.Error() != s.readError().Error() {
				t.Fatalf("call failed with %v, want the session's receive error %v", r.err, s.readError())
			}
			if isTimeout(r.err) {
				t.Fatalf("call failed with %v, a timeout, on a dead session", r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls still waiting 5s after the server hung up", callers-i, callers)
		}
	}
	if waited := time.Since(hangUp); waited > 5*time.Second {
		t.Fatalf("calls failed %v after the hang-up", waited)
	}
	s.pmu.Lock()
	left := len(s.pending)
	s.pmu.Unlock()
	if left != 0 {
		t.Fatalf("%d calls still registered on the dead session", left)
	}
}

// TestTimeoutWithinSweepBound pins Config.Timeout's promise against a
// server that never answers: a call fails with a timeout no earlier than
// Timeout and no later than Timeout plus one sweep period (plus scheduling
// slack), and a context deadline shorter than Timeout ends the call at the
// context's deadline. Each call starts half a Timeout after the last one
// failed, so a sweep that ran once per Timeout would fail it about half a
// Timeout late, past the slack.
func TestTimeoutWithinSweepBound(t *testing.T) {
	const timeout = 200 * time.Millisecond
	const slack = 60 * time.Millisecond
	fs := newFakeServer(t)
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		time.Sleep(timeout / 2)
		start := time.Now()
		_, err := c.Lookup(1)
		took := time.Since(start)
		if !errors.Is(err, errRequestTimeout) {
			t.Fatalf("err=%v, want a request timeout", err)
		}
		if bound := timeout + timeout/8; took < timeout || took > bound+slack {
			t.Fatalf("timed out after %v, want within [%v, %v] plus %v of slack", took, timeout, bound, slack)
		}
	}

	const ctxDeadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), ctxDeadline)
	defer cancel()
	start := time.Now()
	_, err = c.LookupContext(ctx, KClosest(1))
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want the context's deadline", err)
	}
	if took < ctxDeadline || took > ctxDeadline+slack {
		t.Fatalf("context deadline of %v ended the call after %v", ctxDeadline, took)
	}
}

// TestSendTimeoutRedials: a socket write that times out breaks the
// session's buffered writer for good, so the session must be written off.
// Against a server that stops reading, large requests fill the socket
// until one send times out; that call returns its timeout. Once the server
// reads again, the next request redials and succeeds instead of failing
// with the same write error.
func TestSendTimeoutRedials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reading := make(chan struct{}) // closed when the server reads again
	var serving sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, conn := range conns {
			conn.Close()
		}
		mu.Unlock()
		serving.Wait()
	})
	serving.Add(1)
	go func() {
		defer serving.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			serving.Add(1)
			go func() {
				defer serving.Done()
				br := bufio.NewReader(conn)
				if _, hello, err := proto.ReadFrame(br); err != nil {
					return
				} else {
					proto.PutBuf(hello)
				}
				ack := proto.EncodeHelloAck(&proto.HelloAck{Version: proto.Version2, MaxBatch: proto.MaxBatch})
				if proto.WriteFrame(conn, proto.MsgHelloAck, ack) != nil {
					return
				}
				<-reading
				for {
					_, id, payload, err := proto.ReadFrameID(br)
					if err != nil {
						return
					}
					proto.PutBuf(payload)
					if proto.WriteFrameID(conn, proto.MsgAck, id, nil) != nil {
						return
					}
				}
			}()
		}
	}()

	c, err := DialConfig(ln.Addr().String(), Config{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 60<<10)
	for sends := 1; ; sends++ {
		if sends > 1000 {
			t.Fatal("1000 large requests went out to a server that reads nothing")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, resp, err := c.send(ctx, proto.MsgRefreshRequest, big, nil)
		cancel()
		proto.PutBuf(resp)
		if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			if !isTimeout(err) {
				t.Fatalf("send %d failed with %v, not a timeout", sends, err)
			}
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("send %d: err=%v, want the context's deadline", sends, err)
		}
	}

	close(reading)
	if err := c.Refresh(1); err != nil {
		t.Fatalf("the request after a send timed out failed: %v", err)
	}
}
