package netserver

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/op"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// writeLoops counts the connection writer goroutines alive in the process.
func writeLoops() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "netserver.(*NetServer).writeLoop")
}

// TestFirstFrameMustBeHello: a connection whose first frame is anything but
// a hello offering version 2 — an ID-less request as the deleted version-1
// protocol sent it, a hello capped below 2, a frame of no known type —
// gets one bare-framed CodeBadRequest naming version 2 and is hung up on,
// long before the idle timeout, with nothing applied and no writer
// goroutine started for it.
func TestFirstFrameMustBeHello(t *testing.T) {
	logic := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}})
	const readTimeout = 30 * time.Second
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic, ReadTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	join, err := proto.AppendJoinRequest(nil, &proto.JoinRequest{Peer: 1, Addr: "127.0.0.1:9001", Path: []int32{10, 0}})
	if err != nil {
		t.Fatal(err)
	}
	before := writeLoops()
	for _, tc := range []struct {
		name    string
		typ     proto.MsgType
		payload []byte
	}{
		{"bare join", proto.MsgJoinRequest, join},
		{"hello capped at version 1", proto.MsgHello, proto.EncodeHello(&proto.Hello{MaxVersion: 1, MaxBatch: proto.MaxBatch})},
		{"hello capped at version 0", proto.MsgHello, proto.EncodeHello(&proto.Hello{MaxVersion: 0})},
		{"unknown type", proto.MsgType(200), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ns.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			conn.SetDeadline(start.Add(readTimeout / 2))
			// A second request rides behind the first: it must not be served
			// either.
			frames := new(bytes.Buffer)
			proto.WriteFrame(frames, tc.typ, tc.payload)
			proto.WriteFrame(frames, proto.MsgJoinRequest, join)
			if _, err := conn.Write(frames.Bytes()); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := proto.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if typ != proto.MsgError {
				t.Fatalf("answered with type %d, want MsgError", typ)
			}
			werr, err := proto.DecodeError(payload)
			if err != nil {
				t.Fatal(err)
			}
			if werr.Code != proto.CodeBadRequest || !strings.Contains(werr.Message, "version 2") {
				t.Fatalf("answered %v, want CodeBadRequest naming version 2", werr)
			}
			// (A reset instead of a FIN is the kernel's word for "closed with
			// your bytes unread", which is the point.)
			if rest, err := io.ReadAll(conn); len(rest) != 0 || (err != nil && !errors.Is(err, syscall.ECONNRESET)) {
				t.Fatalf("after the error: %d more bytes, err %v; want a hang-up", len(rest), err)
			}
			if d := time.Since(start); d > readTimeout/4 {
				t.Fatalf("hung up after %v", d)
			}
		})
	}
	if n := logic.NumPeers(); n != 0 {
		t.Fatalf("%d peers registered by refused connections", n)
	}
	if after := writeLoops(); after != before {
		t.Fatalf("writer goroutines: %d before, %d after the refused connections", before, after)
	}
	// The listener is none the worse: a proper session still works.
	if _, err := dial(t, ns).Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil {
		t.Fatal(err)
	}
}

// recorder is an io.Writer that keeps what passes through it.
type recorder struct {
	mu sync.Mutex
	b  []byte
}

func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.b = append(r.b, p...)
	r.mu.Unlock()
	return len(p), nil
}

func (r *recorder) hex() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return hex.EncodeToString(r.b)
}

// TestHandshakeBytesUnchanged pins the opening of a session — the hello,
// the ack, the first ID-framed request and its response — in both
// directions against the bytes the last build that still spoke version 1
// (ceb8c24) exchanged for the same conversation, so a client or server of
// that build and one of this build interoperate. The golden strings were
// captured there through the same recording proxy.
func TestHandshakeBytesUnchanged(t *testing.T) {
	const (
		hello    = "000000050d00020020"
		joinReq  = "0000002f0500000000000000010000000000000001000e3132372e302e302e313a3930303100030000000a0000000b00000000"
		helloAck = "000000050e00020020"
		joinResp = "000000260600000000000000010001000000000000000700000002000d31302e302e302e373a39303037"
	)
	logic := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}})
	if _, err := logic.JoinOp(op.Join(7, []topology.NodeID{12, 11, 0}, "10.0.0.7:9007", 0)); err != nil {
		t.Fatal(err)
	}
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var up, down recorder
	proxied := make(chan struct{})
	go func() {
		defer close(proxied)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		s, err := net.Dial("tcp", ns.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Close()
		go func() {
			io.Copy(io.MultiWriter(s, &up), c)
			s.Close() // the client hung up: let the other direction end
		}()
		io.Copy(io.MultiWriter(c, &down), s)
	}()
	c, err := client.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Join(1, "127.0.0.1:9001", []int32{10, 11, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (proto.Candidate{Peer: 7, DTree: 2, Addr: "10.0.0.7:9007"}) {
		t.Fatalf("neighbours=%+v", got)
	}
	c.Close()
	<-proxied
	if got := up.hex(); got != hello+joinReq {
		t.Errorf("client sent\n %s\nwant\n %s", got, hello+joinReq)
	}
	if got := down.hex(); got != helloAck+joinResp {
		t.Errorf("server sent\n %s\nwant\n %s", got, helloAck+joinResp)
	}

	// The server's half again with no client of this build in the loop: the
	// captured client bytes, replayed raw, draw the captured answers.
	conn, err := net.Dial("tcp", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	sent, _ := hex.DecodeString(hello + joinReq)
	if _, err := conn.Write(sent); err != nil {
		t.Fatal(err)
	}
	want, _ := hex.DecodeString(helloAck + joinResp)
	answer := make([]byte, len(want))
	if _, err := io.ReadFull(conn, answer); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answer, want) {
		t.Errorf("replayed bytes drew\n %x\nwant\n %x", answer, want)
	}
}
