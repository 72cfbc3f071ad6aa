package client

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/proto"
)

// ackServer speaks just enough of the protocol to acknowledge every
// request by its ID.
func ackServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
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
	return ln
}

// writeCounter counts the Write calls that reach the socket.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// TestPipelinedCallersShareWrites pins the client's flush coalescing with
// a count: 32 goroutines released together on one Client append their
// request frames during each other's yield, so fewer than 32 writes reach
// the socket — and a lone caller on an idle connection still gets exactly
// one, at once.
func TestPipelinedCallersShareWrites(t *testing.T) {
	c, err := Dial(ackServer(t).Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No request is in flight yet: swap the counting wrapper in under the
	// buffered writer.
	s := dialled(c)
	wc := &writeCounter{Conn: s.conn}
	s.conn = wc
	s.bw = bufio.NewWriterSize(wc, 16<<10)

	if err := c.Refresh(1); err != nil {
		t.Fatal(err)
	}
	if n := wc.writes.Load(); n != 1 {
		t.Fatalf("a lone request cost %d writes, want 1", n)
	}

	const callers = 32
	wc.writes.Store(0)
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(p int64) {
			defer wg.Done()
			<-release
			errs <- c.Refresh(p)
		}(int64(i))
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := wc.writes.Load(); n < 1 || n >= callers {
		t.Fatalf("%d callers released together cost %d writes, want fewer than %d", callers, n, callers)
	}
	t.Logf("%d callers, %d writes", callers, wc.writes.Load())
}
