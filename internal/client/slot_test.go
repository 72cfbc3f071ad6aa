package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/proto"
)

// echoServer answers every lookup with a one-candidate list naming the peer
// it asked about, so a caller can tell its own answer from anyone else's. A
// lookup of a negative peer is answered late, after a delay drawn from
// late, while the requests behind it are answered at once.
func echoServer(t *testing.T, late func() time.Duration) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var answering sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		answering.Wait()
	})
	answering.Add(1)
	go func() {
		defer answering.Done()
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
		var wmu sync.Mutex
		answer := func(id uint64, peer int64) {
			b, _ := proto.EncodeLookupResponse(&proto.LookupResponse{Neighbors: []proto.Candidate{{Peer: peer, Addr: "10.0.0.1:7000"}}})
			wmu.Lock()
			proto.WriteFrameID(conn, proto.MsgLookupResponse, id, b)
			wmu.Unlock()
		}
		for {
			_, id, payload, err := proto.ReadFrameID(br)
			if err != nil {
				return
			}
			req, err := proto.DecodeLookupRequest(payload)
			proto.PutBuf(payload)
			if err != nil {
				return
			}
			if req.Peer >= 0 {
				answer(id, req.Peer)
				continue
			}
			answering.Add(1)
			go func(d time.Duration) {
				defer answering.Done()
				time.Sleep(d)
				answer(id, req.Peer)
			}(late())
		}
	}()
	return ln
}

// TestLateResponseNeverReachesReusedSlot pins the pooled call slot: a call
// that gave up — its response arrives as it times out, or well after — drops
// its slot, and the calls behind it, which take slots from the same pool,
// each get their own answer, never the late one.
func TestLateResponseNeverReachesReusedSlot(t *testing.T) {
	const giveUp = 5 * time.Millisecond
	var n int
	late := func() time.Duration {
		n++
		// Around the deadline, so some late answers race the give-up.
		return giveUp - time.Millisecond + time.Duration(n%5)*time.Millisecond/2
	}
	c, err := Dial(echoServer(t, late).Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	own := func(peer int64, cands []proto.Candidate) {
		t.Helper()
		if len(cands) != 1 || cands[0].Peer != peer {
			t.Fatalf("lookup of %d answered %+v", peer, cands)
		}
	}
	timedOut := 0
	for i := int64(1); i <= 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), giveUp)
		cands, err := c.LookupContext(ctx, KClosest(-i))
		cancel()
		switch {
		case err == nil:
			own(-i, cands)
		case isTimeout(err) || errors.Is(err, context.DeadlineExceeded):
			timedOut++
		default:
			t.Fatal(err)
		}
		for j := int64(0); j < 4; j++ {
			cands, err := c.Lookup(i*10 + j)
			if err != nil {
				t.Fatal(err)
			}
			own(i*10+j, cands)
		}
	}
	if timedOut == 0 {
		t.Fatal("no late call gave up; the test exercised nothing")
	}
	// Let the last late answers land, then check nothing is left waiting.
	time.Sleep(4 * giveUp)
	if cands, err := c.Lookup(7); err != nil {
		t.Fatal(err)
	} else {
		own(7, cands)
	}
	s := dialled(c)
	s.pmu.Lock()
	left := len(s.pending)
	s.pmu.Unlock()
	if left != 0 {
		t.Fatalf("%d calls still registered after every caller returned", left)
	}
	t.Logf("%d of 100 late calls gave up", timedOut)
}
