package client

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/codec"
	"proxdisc/internal/proto"
)

// fakeServer answers each connection's hello, then answers requests — on
// whichever connection they arrive — with the next scripted frame, echoing
// the request's ID. With the script used up it keeps reading and stays
// silent. A MsgOpAck, which the protocol never answers, takes no scripted
// frame. Every request frame is recorded in got.
type fakeServer struct {
	ln net.Listener

	mu      sync.Mutex // also serializes writes to the connections
	answers []scripted
	conns   []net.Conn
	got     []received
}

type scripted struct {
	typ     proto.MsgType
	payload []byte
}

// received is one request frame a fakeServer read.
type received struct {
	typ     proto.MsgType
	id      uint64
	payload []byte
}

// requests returns a copy of the request frames read so far.
func (fs *fakeServer) requests() []received {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]received(nil), fs.got...)
}

// push writes one unsolicited frame on the most recent connection.
func (fs *fakeServer) push(typ proto.MsgType, id uint64, payload []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return proto.WriteFrameID(fs.conns[len(fs.conns)-1], typ, id, payload)
}

func newFakeServer(t *testing.T, answers ...scripted) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, answers: answers}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fs.mu.Lock()
			fs.conns = append(fs.conns, conn)
			fs.mu.Unlock()
			serving.Add(1)
			go func() {
				defer serving.Done()
				fs.serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		fs.mu.Lock()
		for _, conn := range fs.conns {
			conn.Close()
		}
		fs.mu.Unlock()
		serving.Wait()
	})
	return fs
}

func (fs *fakeServer) serve(conn net.Conn) {
	defer conn.Close()
	if typ, _, err := proto.ReadFrame(conn); err != nil || typ != proto.MsgHello {
		return
	}
	ack := proto.EncodeHelloAck(&proto.HelloAck{Version: proto.Version2, MaxBatch: proto.MaxBatch})
	if err := proto.WriteFrame(conn, proto.MsgHelloAck, ack); err != nil {
		return
	}
	for {
		typ, id, payload, err := proto.ReadFrameID(conn)
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.got = append(fs.got, received{typ: typ, id: id, payload: payload})
		if typ != proto.MsgOpAck && len(fs.answers) > 0 {
			a := fs.answers[0]
			fs.answers = fs.answers[1:]
			err = proto.WriteFrameID(conn, a.typ, id, a.payload)
		}
		fs.mu.Unlock()
		if err != nil {
			return
		}
	}
}

func TestDialFailure(t *testing.T) {
	// A port that is almost certainly closed.
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestRoundTripUnexpectedType(t *testing.T) {
	fs := newFakeServer(t, scripted{typ: proto.MsgAck})
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Lookup expects MsgLookupResponse but gets MsgAck.
	if _, err := c.Lookup(1); err == nil {
		t.Fatal("accepted wrong response type")
	}
}

func TestRoundTripWireError(t *testing.T) {
	payload := proto.EncodeError(&proto.Error{Code: proto.CodeUnknownPeer, Message: "nope"})
	fs := newFakeServer(t, scripted{typ: proto.MsgError, payload: payload})
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Lookup(1)
	var werr *proto.Error
	if !errors.As(err, &werr) || werr.Code != proto.CodeUnknownPeer {
		t.Fatalf("err=%v", err)
	}
}

func TestRoundTripTimeout(t *testing.T) {
	// A server that acks the hello and then never answers: the request
	// times out on a healthy session.
	fs := newFakeServer(t)
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup(1); !isTimeout(err) {
		t.Fatalf("err=%v, want a request timeout", err)
	}
}

func TestProbeRTTUnreachable(t *testing.T) {
	if _, err := ProbeRTT("127.0.0.1:9", 150*time.Millisecond); err == nil {
		t.Fatal("probe to dead port succeeded")
	}
}

func TestProbeLandmarksSkipsDead(t *testing.T) {
	// One live responder, one dead address.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			conn.WriteToUDP(buf[:n], from)
		}
	}()
	lms := &proto.LandmarksResponse{
		Routers: []int32{1, 2},
		Addrs:   []string{conn.LocalAddr().String(), "127.0.0.1:9"},
	}
	got := ProbeLandmarks(lms, 1, 150*time.Millisecond)
	if len(got) != 1 || got[0].Router != 1 {
		t.Fatalf("measured=%v", got)
	}
}

func TestClientHappyPaths(t *testing.T) {
	joinResp, err := proto.EncodeJoinResponse(&proto.JoinResponse{
		Neighbors: []proto.Candidate{{Peer: 7, DTree: 2, Addr: "10.0.0.7:1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lookupResp, err := proto.EncodeLookupResponse(&proto.LookupResponse{
		Neighbors: []proto.Candidate{{Peer: 9, DTree: 4, Addr: ""}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lmResp, err := proto.EncodeLandmarksResponse(&proto.LandmarksResponse{
		Routers: []int32{3}, Addrs: []string{"127.0.0.1:9999"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := newFakeServer(t,
		scripted{typ: proto.MsgLandmarksResponse, payload: lmResp},
		scripted{typ: proto.MsgJoinResponse, payload: joinResp},
		scripted{typ: proto.MsgLookupResponse, payload: lookupResp},
		scripted{typ: proto.MsgAck},
		scripted{typ: proto.MsgAck},
	)
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lms, err := c.Landmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(lms.Routers) != 1 || lms.Routers[0] != 3 {
		t.Fatalf("landmarks=%+v", lms)
	}
	got, err := c.Join(1, "127.0.0.1:5", []int32{10, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Peer != 7 || got[0].Addr != "10.0.0.7:1" {
		t.Fatalf("join=%+v", got)
	}
	look, err := c.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(look) != 1 || look[0].Peer != 9 {
		t.Fatalf("lookup=%+v", look)
	}
	if err := c.Refresh(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(1); err != nil {
		t.Fatal(err)
	}
}

func TestClientJoinPathLimit(t *testing.T) {
	fs := newFakeServer(t)
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Join(1, "a", make([]int32, codec.MaxPathLen+1)); err == nil {
		t.Fatal("oversized path accepted client-side")
	}
}

// agentFakeServer serves the full agent flow: landmarks request, then a
// join, with a live UDP responder for the probe phase.
func TestAgentFallbackToSecondLandmark(t *testing.T) {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			n, from, err := udp.ReadFromUDP(buf)
			if err != nil {
				return
			}
			udp.WriteToUDP(buf[:n], from)
		}
	}()
	lmResp, err := proto.EncodeLandmarksResponse(&proto.LandmarksResponse{
		Routers: []int32{5, 6},
		Addrs:   []string{udp.LocalAddr().String(), udp.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	joinResp, err := proto.EncodeJoinResponse(&proto.JoinResponse{})
	if err != nil {
		t.Fatal(err)
	}
	fs := newFakeServer(t,
		scripted{typ: proto.MsgLandmarksResponse, payload: lmResp},
		scripted{typ: proto.MsgJoinResponse, payload: joinResp},
	)
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tracedLandmarks := []int32{}
	agent := &Agent{
		Client: c,
		Provider: PathProviderFunc(func(lm int32) ([]int32, error) {
			tracedLandmarks = append(tracedLandmarks, lm)
			if len(tracedLandmarks) == 1 {
				return nil, errors.New("first landmark untraceable")
			}
			return []int32{50, lm}, nil
		}),
		ProbeTries:   1,
		ProbeTimeout: time.Second,
	}
	if _, err := agent.Join(1); err != nil {
		t.Fatal(err)
	}
	if len(tracedLandmarks) != 2 {
		t.Fatalf("traced %v, want fallback to second landmark", tracedLandmarks)
	}
}

func TestAgentNoLandmarks(t *testing.T) {
	lmResp, err := proto.EncodeLandmarksResponse(&proto.LandmarksResponse{})
	if err != nil {
		t.Fatal(err)
	}
	fs := newFakeServer(t, scripted{typ: proto.MsgLandmarksResponse, payload: lmResp})
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agent := &Agent{
		Client:       c,
		Provider:     PathProviderFunc(func(lm int32) ([]int32, error) { return []int32{lm}, nil }),
		ProbeTries:   1,
		ProbeTimeout: 100 * time.Millisecond,
	}
	if _, err := agent.Join(1); !errors.Is(err, ErrNoLandmark) {
		t.Fatalf("err=%v", err)
	}
}

func TestPathProviderFunc(t *testing.T) {
	p := PathProviderFunc(func(lm int32) ([]int32, error) {
		return []int32{7, lm}, nil
	})
	path, err := p.PathTo(3)
	if err != nil || len(path) != 2 || path[1] != 3 {
		t.Fatalf("path=%v err=%v", path, err)
	}
}

// helloAnswerer is a server that answers a connection's hello with the
// given frame and then stays on the line, so a dialer that carried on
// regardless would hang, not fail. done closes once its one connection is
// over.
func helloAnswerer(t *testing.T, typ proto.MsgType, payload []byte) (addr string, done chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done = make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if got, _, err := proto.ReadFrame(conn); err != nil || got != proto.MsgHello {
			t.Errorf("first frame: type %d, err %v; want a hello", got, err)
			return
		}
		if err := proto.WriteFrame(conn, typ, payload); err != nil {
			t.Error(err)
		}
		io.Copy(io.Discard, conn) // until the dialer hangs up
	}()
	return ln.Addr().String(), done
}

// TestDialersRefuseNonV2Server: every dialer treats any answer to its hello
// other than an ack at version 2 as a failed dial — there is no other
// protocol to fall back to. The follower's dial opens its session through
// the same Hello; its rows are netserver's
// TestStartFollowerRefusesNonV2Server.
func TestDialersRefuseNonV2Server(t *testing.T) {
	answers := []struct {
		name string
		scripted
	}{
		{"MsgError", scripted{proto.MsgError, proto.EncodeError(&proto.Error{
			Code: proto.CodeBadRequest, Message: "unknown message type 13"})}},
		{"ack at version 1", scripted{proto.MsgHelloAck, proto.EncodeHelloAck(&proto.HelloAck{Version: 1})}},
		{"unexpected type", scripted{proto.MsgLookupResponse, nil}},
	}
	dialers := []struct {
		name string
		dial func(t *testing.T, addr string) (io.Closer, error)
	}{
		{"Dial", func(t *testing.T, addr string) (io.Closer, error) { return Dial(addr, 2*time.Second) }},
	}
	for _, d := range dialers {
		for _, a := range answers {
			t.Run(d.name+"/"+a.name, func(t *testing.T) {
				addr, done := helloAnswerer(t, a.typ, a.payload)
				s, err := d.dial(t, addr)
				if err == nil {
					s.Close()
					t.Error("the dial succeeded")
				}
				<-done
			})
		}
	}
}

// TestNegotiationRejectsGarbage closes the deal on a server that answers
// hello with a non-hello, non-error frame, or with an ack or an error that
// does not decode: that is a protocol violation, not a version mismatch.
func TestNegotiationRejectsGarbage(t *testing.T) {
	for _, a := range []scripted{
		{typ: proto.MsgAck},
		{typ: proto.MsgHelloAck, payload: []byte{0}},
		{typ: proto.MsgError, payload: []byte{0}},
		{typ: proto.MsgHelloAck, payload: proto.EncodeHelloAck(&proto.HelloAck{Version: proto.Version2})}, // batch limit 0
	} {
		addr, done := helloAnswerer(t, a.typ, a.payload)
		if c, err := Dial(addr, time.Second); err == nil {
			c.Close()
			t.Fatalf("hello response type %d payload %x accepted", a.typ, a.payload)
		}
		<-done
	}
}

// dialled returns c's session to its dialled address.
func dialled(c *Client) *session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[c.addr]
}

// TestFailoverHelpers pins the backoff a resubscribing subscription waits: it
// doubles from 50ms up to the 2s cap.
func TestFailoverHelpers(t *testing.T) {
	if d := BackoffDelay(1); d != 50*time.Millisecond {
		t.Fatalf("backoff(1)=%v", d)
	}
	if d := BackoffDelay(2); d != 100*time.Millisecond {
		t.Fatalf("backoff(2)=%v", d)
	}
	if d := BackoffDelay(10); d != 2*time.Second {
		t.Fatalf("backoff(10)=%v, want the 2s cap", d)
	}
}

// TestSessionRouting pins which session the primary road resolves to:
// the healthy dialled session is reused, a dropped one is redialed, a
// learned primary wins, a primary naming the dialled address is cleared,
// and a primary whose session failed is forgotten.
func TestSessionRouting(t *testing.T) {
	fs := newFakeServer(t)
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resolve := func() (string, *session) {
		t.Helper()
		addr, s, err := c.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return addr, s
	}
	first := dialled(c)
	if addr, s := resolve(); addr != c.addr || s != first {
		t.Fatalf("healthy: resolved %q %p, want the dialled session %p", addr, s, first)
	}
	// A dropped session is written off and the next request redials.
	c.drop(c.addr, first)
	addr, redialed := resolve()
	if addr != c.addr || redialed == first {
		t.Fatalf("dropped: resolved %q %p, want a fresh session to %q", addr, redialed, c.addr)
	}
	if _, _, err := first.exchange(context.Background(), proto.MsgStatusRequest, nil, nil); err == nil {
		t.Fatal("the dropped session still carries requests")
	}
	// A learned primary wins the primary road.
	other := newFakeServer(t).ln.Addr().String()
	c.setPrimary(other)
	primaryAddr, primary := resolve()
	if primaryAddr != other || primary == redialed {
		t.Fatalf("learned primary: resolved %q, want %q", primaryAddr, other)
	}
	// A primary naming the dialled address is no override at all.
	c.setPrimary(c.addr)
	if addr, s := resolve(); addr != c.addr || s != redialed || c.primary != "" {
		t.Fatalf("self-named primary: resolved %q %p, primary %q", addr, s, c.primary)
	}
	// A learned primary whose session failed is forgotten with it.
	c.setPrimary(other)
	if addr, _ := resolve(); addr != other {
		t.Fatalf("resolved %q, want the learned primary %q", addr, other)
	}
	c.drop(other, primary)
	c.mu.Lock()
	_, cached := c.sessions[other]
	forgotten := c.primary == ""
	c.mu.Unlock()
	if cached || !forgotten {
		t.Fatalf("dead primary: session cached=%v, primary forgotten=%v", cached, forgotten)
	}
	if addr, s := resolve(); addr != c.addr || s != redialed {
		t.Fatalf("after the dead primary: resolved %q %p, want the dialled session", addr, s)
	}
}

// TestConcurrentRedialKeepsOneSession: callers that find a session dead
// together all redial its address, every call succeeds, and one session
// is kept; the dials that lost the race are closed.
func TestConcurrentRedialKeepsOneSession(t *testing.T) {
	const callers = 16
	acks := make([]scripted, callers)
	for i := range acks {
		acks[i] = scripted{typ: proto.MsgAck}
	}
	fs := newFakeServer(t, acks...)
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dead := dialled(c)
	dead.conn.Close()
	<-dead.readDone
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(p int64) {
			defer wg.Done()
			errs <- c.Refresh(p)
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n, live := len(c.sessions), c.sessions[c.addr]
	c.mu.Unlock()
	if n != 1 || live == nil || live == dead {
		t.Fatalf("%d sessions kept, live %p, dead %p; want one fresh session", n, live, dead)
	}
}

// TestNotPrimaryFailbackToDialledAddress covers the stale-override escape
// hatch: a node answers CodeNotPrimary naming a primary that is already
// dead; the client must forget the dead override and retry the dialled
// address (whose node may have been promoted) rather than wedge.
func TestNotPrimaryFailbackToDialledAddress(t *testing.T) {
	lookupResp, err := proto.EncodeLookupResponse(&proto.LookupResponse{
		Neighbors: []proto.Candidate{{Peer: 4, DTree: 2, Addr: ""}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := newFakeServer(t,
		// First answer: "not primary, go to 127.0.0.1:1" — a dead port.
		scripted{typ: proto.MsgError, payload: proto.EncodeError(&proto.Error{
			Code: proto.CodeNotPrimary, Message: "127.0.0.1:1"})},
		// Second answer (the failback retry): success.
		scripted{typ: proto.MsgLookupResponse, payload: lookupResp},
	)
	c, err := DialConfig(fs.ln.Addr().String(), Config{
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Lookup(4)
	if err != nil {
		t.Fatalf("lookup through dead override: %v", err)
	}
	if len(got) != 1 || got[0].Peer != 4 {
		t.Fatalf("lookup=%+v", got)
	}
	// The dead override must be gone, not retried forever.
	c.mu.Lock()
	override := c.primary
	c.mu.Unlock()
	if override != "" {
		t.Fatalf("stale override %q survived", override)
	}
}

// TestReplicaRedirectsBounded pins MaxRedirects: nodes that each name the
// next as the primary, the last naming the first, are followed
// MaxRedirects times and no further. A join answered MsgRedirect and a
// refresh answered CodeNotPrimary fail alike, with an error naming the
// redirects, no node sees the request twice, and no session is dropped.
func TestReplicaRedirectsBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		answer func(next string) scripted
		call   func(c *Client) error
	}{
		{"join", func(next string) scripted {
			b, err := proto.EncodeRedirect(&proto.Redirect{Addr: next})
			if err != nil {
				t.Fatal(err)
			}
			return scripted{typ: proto.MsgRedirect, payload: b}
		}, func(c *Client) error {
			_, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0})
			return err
		}},
		{"refresh", func(next string) scripted {
			return scripted{typ: proto.MsgError, payload: proto.EncodeError(&proto.Error{Code: proto.CodeNotPrimary, Message: next})}
		}, func(c *Client) error { return c.Refresh(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring := make([]*fakeServer, MaxRedirects+1)
			for i := range ring {
				ring[i] = newFakeServer(t)
			}
			for i, fs := range ring {
				next := ring[(i+1)%len(ring)].ln.Addr().String()
				fs.mu.Lock()
				fs.answers = []scripted{tc.answer(next), tc.answer(next)}
				fs.mu.Unlock()
			}
			c, err := DialConfig(ring[0].ln.Addr().String(), Config{Timeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = tc.call(c)
			if err == nil || !strings.Contains(err.Error(), "redirect") {
				t.Fatalf("err=%v, want one naming the redirects", err)
			}
			for i, fs := range ring {
				if n := len(fs.requests()); n != 1 {
					t.Errorf("node %d saw %d requests, want 1", i, n)
				}
			}
			// A wire answer is no transport failure: every node's session
			// stays.
			c.mu.Lock()
			n := len(c.sessions)
			c.mu.Unlock()
			if n != len(ring) {
				t.Errorf("%d sessions kept, want %d", n, len(ring))
			}
		})
	}
}
