package netserver

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// Tests of the two-road serving path: reads served inline on the
// connection's reader goroutine, everything else through the pool. CI runs
// them by name (TestInline…) under -race -count 5.

// rawV2 opens a hand-rolled version-2 session: what a test needs to see
// request IDs, response types and its own Write calls.
func rawV2(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	hello := proto.EncodeHello(&proto.Hello{MaxVersion: proto.MaxVersion, MaxBatch: proto.MaxBatch})
	if err := proto.WriteFrame(conn, proto.MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	typ, ack, err := proto.ReadFrame(conn)
	if err != nil || typ != proto.MsgHelloAck {
		t.Fatalf("hello ack: typ=%d err=%v", typ, err)
	}
	proto.PutBuf(ack)
	return conn
}

// logSink collects a server's diagnostics.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) has(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// twoLandmarkNode serves landmarks 0 and 100 with the given read timeout.
func twoLandmarkNode(t *testing.T, readTimeout time.Duration, logf func(string, ...any)) *NetServer {
	t.Helper()
	logic := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}})
	ns, err := Listen(Config{Logger: logf, Addr: "127.0.0.1:0", Server: logic, ReadTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return ns
}

// prefill registers peers 1..n under landmark 0 (lookup targets) and
// 5001..5000+n under landmark 100 (leave targets), one request at a time.
func prefill(t *testing.T, c *client.Client, n int) {
	t.Helper()
	for p := int64(1); p <= int64(n); p++ {
		if _, err := c.Join(p, fmt.Sprintf("10.0.0.%d:7000", p%250), []int32{int32(1000 + p), int32(10 + p%7), 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Join(5000+p, "10.1.0.1:7000", []int32{int32(3000 + p), int32(110 + p%5), 100}); err != nil {
			t.Fatal(err)
		}
	}
}

// mixedReq is one request of the interleaving test and the response type
// it must be answered with.
type mixedReq struct {
	typ, want proto.MsgType
	payload   []byte
}

// mixedRequests interleaves inline kinds (lookup, status, landmarks) with
// pooled ones (batch join, leave). Writes touch only landmark 100 and
// lookups only landmark 0, so every lookup has one right answer whatever
// order the server applies the writes in.
func mixedRequests(t *testing.T, resident, n int) []mixedReq {
	t.Helper()
	reqs := make([]mixedReq, n)
	nextNew, nextLeave := int64(10000), int64(5001)
	for i := range reqs {
		switch i % 8 {
		case 5:
			reqs[i] = mixedReq{typ: proto.MsgStatusRequest, want: proto.MsgStatusResponse}
		case 6:
			reqs[i] = mixedReq{typ: proto.MsgLandmarksRequest, want: proto.MsgLandmarksResponse}
		case 7:
			if i%16 == 7 {
				m := &proto.BatchJoinRequest{}
				for k := 0; k < 4; k++ {
					m.Joins = append(m.Joins, proto.JoinRequest{
						Peer: nextNew, Addr: "10.2.0.1:7000",
						Path: []int32{int32(nextNew), int32(110 + nextNew%5), 100},
					})
					nextNew++
				}
				b, err := proto.EncodeBatchJoinRequest(m)
				if err != nil {
					t.Fatal(err)
				}
				reqs[i] = mixedReq{typ: proto.MsgBatchJoinRequest, want: proto.MsgBatchJoinResponse, payload: b}
			} else {
				b := proto.EncodeLeaveRequest(&proto.LeaveRequest{Peer: nextLeave})
				nextLeave++
				reqs[i] = mixedReq{typ: proto.MsgLeaveRequest, want: proto.MsgAck, payload: b}
			}
		default:
			b := proto.EncodeLookupRequest(&proto.LookupRequest{Peer: int64(i%resident) + 1})
			reqs[i] = mixedReq{typ: proto.MsgLookupRequest, want: proto.MsgLookupResponse, payload: b}
		}
	}
	return reqs
}

// TestInlineInterleavedWithPool keeps 64 requests in flight on ONE
// connection, inline kinds interleaved with pooled ones: every response
// must carry the ID and the type of its request, and every answer must
// equal the one a twin server gives when the same requests are run one at
// a time.
func TestInlineInterleavedWithPool(t *testing.T) {
	const resident, total, window = 60, 960, 64
	piped := twoLandmarkNode(t, 0, t.Logf)
	serial := twoLandmarkNode(t, 0, t.Logf)
	prefill(t, dial(t, piped), resident)
	prefill(t, dial(t, serial), resident)
	reqs := mixedRequests(t, resident, total)

	// The serial run: one request, one response, in order.
	want := make([][]byte, total)
	sconn := rawV2(t, serial.Addr())
	for i, r := range reqs {
		if err := proto.WriteFrameID(sconn, r.typ, uint64(i+1), r.payload); err != nil {
			t.Fatal(err)
		}
		typ, id, payload, err := proto.ReadFrameID(sconn)
		if err != nil || typ != r.want || id != uint64(i+1) {
			t.Fatalf("serial request %d: typ=%v id=%d err=%v", i, typ, id, err)
		}
		want[i] = payload
	}

	// The pipelined run: a writer keeps the window full, the test
	// goroutine reads and matches.
	pconn := rawV2(t, piped.Addr())
	slots := make(chan struct{}, window)
	werr := make(chan error, 1)
	go func() {
		for i, r := range reqs {
			slots <- struct{}{}
			if err := proto.WriteFrameID(pconn, r.typ, uint64(i+1), r.payload); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	seen := make([]bool, total)
	for n := 0; n < total; n++ {
		typ, id, payload, err := proto.ReadFrameID(pconn)
		if err != nil {
			t.Fatalf("response %d: %v", n, err)
		}
		<-slots
		if id < 1 || id > total || seen[id-1] {
			t.Fatalf("response %d carries id %d (unknown or duplicate)", n, id)
		}
		i := int(id - 1)
		seen[i] = true
		if typ != reqs[i].want {
			t.Fatalf("request %d (%v) answered with %v", i, reqs[i].typ, typ)
		}
		switch reqs[i].typ {
		case proto.MsgStatusRequest:
			// Status carries live counters; the roles and layout must agree.
			got, err1 := proto.DecodeStatus(payload)
			exp, err2 := proto.DecodeStatus(want[i])
			if err1 != nil || err2 != nil || got.Role != exp.Role || got.Shards != exp.Shards {
				t.Fatalf("status %d: %+v vs %+v (%v, %v)", i, got, exp, err1, err2)
			}
		case proto.MsgBatchJoinRequest:
			// Neighbours among concurrently joining peers depend on apply
			// order; every entry must have succeeded.
			got, err := proto.DecodeBatchJoinResponse(payload)
			if err != nil || len(got.Results) != 4 {
				t.Fatalf("batch %d: %+v %v", i, got, err)
			}
			for _, r := range got.Results {
				if r.Code != 0 {
					t.Fatalf("batch %d entry failed: %+v", i, r)
				}
			}
		default:
			if !bytes.Equal(payload, want[i]) {
				t.Fatalf("request %d (%v): pipelined answer differs from the serial run", i, reqs[i].typ)
			}
		}
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	// Both servers applied the same writes: the states must agree.
	a, b := dial(t, piped), dial(t, serial)
	for _, p := range []int64{1, resident, 5000 + resident, 10000, 10100} {
		ga, erra := a.Lookup(p)
		gb, errb := b.Lookup(p)
		if (erra == nil) != (errb == nil) || !reflect.DeepEqual(ga, gb) {
			t.Fatalf("final lookup %d: %+v (%v) vs %+v (%v)", p, ga, erra, gb, errb)
		}
	}
	if in, pool := piped.met.road[1].Value(), piped.met.road[0].Value(); in < total*3/4 || pool < total/8 {
		t.Fatalf("roads: inline=%d pool=%d — the mix did not exercise both", in, pool)
	}
}

// TestInlineSlowReaderIsolated pipelines lookups on a raw connection that
// never reads. That connection's reader goroutine stalls in its own write
// and is killed by the write deadline — a logged write error within about
// ReadTimeout — while a second connection's lookups AND joins are served
// throughout: no pool worker ever waits on the stalled socket.
func TestInlineSlowReaderIsolated(t *testing.T) {
	const readTimeout = time.Second
	var logs logSink
	ns := twoLandmarkNode(t, readTimeout, logs.logf)
	healthy := dial(t, ns)
	prefill(t, healthy, 40)

	stalled := rawV2(t, ns.Addr())
	stalled.(*net.TCPConn).SetReadBuffer(4 << 10)
	dropped := make(chan time.Time, 1)
	go func() {
		// Fill every buffer between us and the server's reader: keep
		// writing until the server hangs up on us.
		var frames bytes.Buffer
		for i := 0; i < 256; i++ {
			proto.WriteFrameID(&frames, proto.MsgLookupRequest, uint64(i+1),
				proto.EncodeLookupRequest(&proto.LookupRequest{Peer: int64(i%40) + 1}))
		}
		for {
			if _, err := stalled.Write(frames.Bytes()); err != nil {
				dropped <- time.Now()
				return
			}
		}
	}()

	// The healthy connection works the whole time, on both roads.
	var slowest atomic.Int64
	stop := make(chan struct{})
	healthyDone := make(chan error, 1)
	go func() {
		for p := int64(20000); ; p++ {
			select {
			case <-stop:
				healthyDone <- nil
				return
			default:
			}
			start := time.Now()
			if _, err := healthy.Lookup(p%40 + 1); err != nil {
				healthyDone <- fmt.Errorf("lookup beside a stalled connection: %w", err)
				return
			}
			if _, err := healthy.Join(p, "10.3.0.1:7000", []int32{int32(p), 111, 100}); err != nil {
				healthyDone <- fmt.Errorf("join beside a stalled connection: %w", err)
				return
			}
			if d := int64(time.Since(start)); d > slowest.Load() {
				slowest.Store(d)
			}
		}
	}()

	start := time.Now()
	select {
	case at := <-dropped:
		// Filling the buffers takes a moment, then the deadline runs.
		if d := at.Sub(start); d > 10*readTimeout {
			t.Fatalf("stalled connection dropped after %v, ReadTimeout is %v", d, readTimeout)
		}
	case <-time.After(20 * readTimeout):
		t.Fatal("server never dropped the connection that stopped reading")
	}
	close(stop)
	if err := <-healthyDone; err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(slowest.Load()); d > readTimeout/2 {
		t.Fatalf("healthy connection waited %v for a lookup+join beside the stalled one", d)
	}
	if !logs.has("netserver: write:") {
		t.Fatalf("no write error logged for the stalled connection; log: %q", logs.lines)
	}
	if n := ns.met.queueSat.Value(); n != 0 {
		t.Fatalf("worker queue saturated %d times: the pool felt the stalled connection", n)
	}
}

// TestInlineServesEveryRead pins the inline decision as a table: every
// read is served on the reader goroutine with its own answer type, error
// answers included, and no write ever is.
func TestInlineServesEveryRead(t *testing.T) {
	ns := twoLandmarkNode(t, 0, t.Logf)
	if _, err := dial(t, ns).Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil {
		t.Fatal(err)
	}
	lookup := func(p int64) []byte { return proto.EncodeLookupRequest(&proto.LookupRequest{Peer: p}) }
	for _, tc := range []struct {
		name    string
		typ     proto.MsgType
		payload []byte
		want    proto.MsgType
		code    uint16 // the error code, when want is MsgError
	}{
		{"status", proto.MsgStatusRequest, nil, proto.MsgStatusResponse, 0},
		{"landmarks", proto.MsgLandmarksRequest, nil, proto.MsgLandmarksResponse, 0},
		{"known peer", proto.MsgLookupRequest, lookup(1), proto.MsgLookupResponse, 0},
		{"unknown peer", proto.MsgLookupRequest, lookup(999), proto.MsgError, proto.CodeUnknownPeer},
		{"malformed lookup", proto.MsgLookupRequest, []byte{1, 2, 3}, proto.MsgError, proto.CodeBadRequest},
	} {
		typ, resp, ok := ns.serveInline(tc.typ, tc.payload)
		if !ok || typ != tc.want {
			t.Fatalf("%s: typ=%v ok=%v, want %v served inline", tc.name, typ, ok, tc.want)
		}
		if tc.want == proto.MsgError {
			werr, err := proto.DecodeError(resp)
			if err != nil || werr.Code != tc.code {
				t.Fatalf("%s: error %+v (%v), want code %d", tc.name, werr, err, tc.code)
			}
		}
		proto.PutBuf(resp)
	}
	for _, typ := range []proto.MsgType{
		proto.MsgJoinRequest, proto.MsgForwardedJoinRequest, proto.MsgBatchJoinRequest,
		proto.MsgForwardedBatchJoinRequest, proto.MsgLeaveRequest, proto.MsgRefreshRequest,
	} {
		if _, _, ok := ns.serveInline(typ, lookup(1)); ok {
			t.Fatalf("%v served inline", typ)
		}
	}
}

// TestInlineHalfFrameStallDropped: the idle deadline is re-armed only when
// the next read would touch the socket, and a frame that arrived in part
// counts as not there — so the answered request before it is flushed at
// once, and the client that never finishes the frame is dropped after
// ReadTimeout.
func TestInlineHalfFrameStallDropped(t *testing.T) {
	const readTimeout = 300 * time.Millisecond
	var logs logSink
	ns := twoLandmarkNode(t, readTimeout, logs.logf)
	conn := rawV2(t, ns.Addr())
	var frames bytes.Buffer
	proto.WriteFrameID(&frames, proto.MsgLandmarksRequest, 1, nil)
	proto.WriteFrameID(&frames, proto.MsgLookupRequest, 2, proto.EncodeLookupRequest(&proto.LookupRequest{Peer: 1}))
	start := time.Now()
	if _, err := conn.Write(frames.Bytes()[:frames.Len()-3]); err != nil { // one frame and most of a second
		t.Fatal(err)
	}
	typ, id, _, err := proto.ReadFrameID(conn)
	if err != nil || typ != proto.MsgLandmarksResponse || id != 1 {
		t.Fatalf("complete request before the half frame: typ=%v id=%d err=%v", typ, id, err)
	}
	if d := time.Since(start); d > readTimeout/2 {
		t.Fatalf("answer held back %v behind a half-received frame", d)
	}
	if _, _, _, err := proto.ReadFrameID(conn); err == nil {
		t.Fatal("got a response to half a frame")
	}
	if d := time.Since(start); d < readTimeout || d > 10*readTimeout {
		t.Fatalf("stalled half-frame connection dropped after %v, ReadTimeout is %v", d, readTimeout)
	}
	if !logs.has("netserver: read:") {
		t.Fatalf("no read timeout logged; log: %q", logs.lines)
	}
}

// TestInlineLookupsShareOneFlush pins the mechanism with a count: 32
// lookup frames that reach the server in one segment are answered with at
// most two write syscalls, not 32.
func TestInlineLookupsShareOneFlush(t *testing.T) {
	ns := twoLandmarkNode(t, 0, t.Logf)
	prefill(t, dial(t, ns), 10)
	conn := rawV2(t, ns.Addr())
	frames0, flushes0 := ns.met.respFrames.Value(), ns.met.respFlushes.Value()
	var frames bytes.Buffer
	for i := 0; i < 32; i++ {
		proto.WriteFrameID(&frames, proto.MsgLookupRequest, uint64(i+1),
			proto.EncodeLookupRequest(&proto.LookupRequest{Peer: int64(i%10) + 1}))
	}
	if _, err := conn.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		typ, _, payload, err := proto.ReadFrameID(conn)
		if err != nil || typ != proto.MsgLookupResponse {
			t.Fatalf("response %d: typ=%v err=%v", i, typ, err)
		}
		proto.PutBuf(payload)
	}
	if n := ns.met.respFrames.Value() - frames0; n != 32 {
		t.Fatalf("response frames counted: %d, want 32", n)
	}
	if n := ns.met.respFlushes.Value() - flushes0; n < 1 || n > 2 {
		t.Fatalf("32 lookups in one segment cost %d flushes, want at most 2", n)
	}
}

// slowReport is one call of Config.SlowOp.
type slowReport struct {
	id     uint64
	typ    proto.MsgType
	inline bool
}

// TestSlowOpReports pins the slow-request report on both roads. With a
// threshold of 1ns every request is over it: a pooled join and an inline
// lookup each reach SlowOp once, with their request ID, request type and
// road. With SlowOp nil the same reports go to Logger. A zero threshold
// reports nothing.
func TestSlowOpReports(t *testing.T) {
	join, err := proto.AppendJoinRequest(nil, &proto.JoinRequest{Peer: 1, Addr: "10.0.0.1:7000", Path: []int32{10, 11, 0}})
	if err != nil {
		t.Fatal(err)
	}
	lookup := proto.EncodeLookupRequest(&proto.LookupRequest{Peer: 1})
	// serve sends the join as request 1 and the lookup as request 2, each
	// after the answer before it. A node reports before it answers, so the
	// reports are in once both answers are.
	serve := func(cfg Config) {
		t.Helper()
		cfg.Addr = "127.0.0.1:0"
		cfg.Server = newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}})
		ns, err := Listen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ns.Close()
		conn := rawV2(t, ns.Addr())
		for i, r := range []mixedReq{
			{proto.MsgJoinRequest, proto.MsgJoinResponse, join},
			{proto.MsgLookupRequest, proto.MsgLookupResponse, lookup},
		} {
			id := uint64(i + 1)
			if err := proto.WriteFrameID(conn, r.typ, id, r.payload); err != nil {
				t.Fatal(err)
			}
			typ, got, payload, err := proto.ReadFrameID(conn)
			if err != nil || typ != r.want || got != id {
				t.Fatalf("request %d (%v): typ=%v id=%d err=%v", id, r.typ, typ, got, err)
			}
			proto.PutBuf(payload)
		}
	}
	want := []slowReport{{1, proto.MsgJoinRequest, false}, {2, proto.MsgLookupRequest, true}}

	var mu sync.Mutex
	var reports []slowReport
	record := func(id uint64, typ proto.MsgType, _ time.Duration, inline bool) {
		mu.Lock()
		reports = append(reports, slowReport{id, typ, inline})
		mu.Unlock()
	}
	serve(Config{SlowOpThreshold: time.Nanosecond, SlowOp: record})
	mu.Lock()
	if !reflect.DeepEqual(reports, want) {
		t.Fatalf("SlowOp saw %+v, want %+v", reports, want)
	}
	reports = nil
	mu.Unlock()

	var logs logSink
	serve(Config{SlowOpThreshold: time.Nanosecond, Logger: logs.logf})
	for _, r := range want {
		line := fmt.Sprintf("netserver: slow request: id=%d type=%s inline=%t took", r.id, r.typ, r.inline)
		if !logs.has(line) {
			t.Fatalf("no %q logged with SlowOp nil; log: %q", line, logs.lines)
		}
	}

	serve(Config{SlowOp: record})
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != 0 {
		t.Fatalf("zero threshold reported %+v", reports)
	}
}
