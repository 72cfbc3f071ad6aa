package client

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/proto"
)

// fakePrimary is a scripted op-stream server: it accepts one connection,
// performs the handshake, answers the follow subscription, then plays
// a scripted frame sequence while recording the acks it receives.
type fakePrimary struct {
	ln net.Listener
	t  *testing.T

	mu   sync.Mutex
	acks []uint64

	script func(p *fakePrimary, conn net.Conn)
	done   chan struct{}
}

func startFakePrimary(t *testing.T, script func(p *fakePrimary, conn net.Conn)) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePrimary{ln: ln, t: t, script: script, done: make(chan struct{})}
	go p.serve()
	t.Cleanup(func() { ln.Close(); <-p.done })
	return p
}

func (p *fakePrimary) serve() {
	defer close(p.done)
	conn, err := p.ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	// Handshake: hello → ack, then the follow request.
	typ, payload, err := proto.ReadFrame(conn)
	if err != nil || typ != proto.MsgHello {
		p.t.Errorf("fake primary: expected hello, got %d (%v)", typ, err)
		return
	}
	proto.PutBuf(payload)
	ack := proto.EncodeHelloAck(&proto.HelloAck{Version: proto.Version2})
	if err := proto.WriteFrame(conn, proto.MsgHelloAck, ack); err != nil {
		p.t.Errorf("fake primary: hello ack: %v", err)
		return
	}
	typ, _, payload, err = proto.ReadFrameID(conn)
	if err != nil || typ != proto.MsgFollowRequest {
		p.t.Errorf("fake primary: expected follow request, got %d (%v)", typ, err)
		return
	}
	proto.PutBuf(payload)
	p.script(p, conn)
	// Drain acks until the client hangs up, so its writes never block.
	for {
		typ, _, payload, err := proto.ReadFrameID(conn)
		if err != nil {
			return
		}
		if typ == proto.MsgOpAck {
			if m, err := proto.DecodeOpAck(payload); err == nil {
				p.mu.Lock()
				p.acks = append(p.acks, m.Seq)
				p.mu.Unlock()
			}
		}
		proto.PutBuf(payload)
	}
}

func (p *fakePrimary) sendID(conn net.Conn, typ proto.MsgType, payload []byte) {
	if err := proto.WriteFrameID(conn, typ, followReqID, payload); err != nil {
		p.t.Errorf("fake primary: send %d: %v", typ, err)
	}
}

// collector records everything a session applies.
type collector struct {
	mu       sync.Mutex
	ops      []uint64
	kinds    []op.Kind
	snapshot []byte
	snapSeq  uint64
}

func (c *collector) ReplicateOp(seq uint64, o op.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops = append(c.ops, seq)
	c.kinds = append(c.kinds, o.Kind)
	return nil
}

func (c *collector) RestoreSnapshot(seq uint64, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapshot = data
	c.snapSeq = seq
	return nil
}

func encodeOp(t *testing.T, o op.Op) []byte {
	t.Helper()
	b, err := op.Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFollowSessionStream drives a session through every frame kind the
// protocol ships: head announcements, record batches (with an overlap the
// dedup must skip), a fragmented oversized op, a chunked snapshot, and a
// terminating wire error.
func TestFollowSessionStream(t *testing.T) {
	leave := encodeOp(t, op.Leave(9))
	refresh := encodeOp(t, op.Refresh(9, 5))
	streamed := make(chan struct{})
	p := startFakePrimary(t, func(p *fakePrimary, conn net.Conn) {
		defer close(streamed)
		p.sendID(conn, proto.MsgFollowHead, proto.EncodeFollowHead(&proto.FollowHead{Head: 4}))
		recs, err := proto.EncodeOpRecords(&proto.OpRecords{Records: []proto.OpRecord{
			{Seq: 3, Data: leave}, {Seq: 4, Data: refresh},
		}})
		if err != nil {
			p.t.Errorf("encode records: %v", err)
			return
		}
		p.sendID(conn, proto.MsgOpRecords, recs)
		// Overlap: seq 4 again plus the new seq 5 — dedup must skip 4.
		recs2, err := proto.EncodeOpRecords(&proto.OpRecords{Records: []proto.OpRecord{
			{Seq: 4, Data: refresh}, {Seq: 5, Data: leave},
		}})
		if err != nil {
			p.t.Errorf("encode records: %v", err)
			return
		}
		p.sendID(conn, proto.MsgOpRecords, recs2)
		// Seq 6 arrives as two op fragments.
		half := len(leave) / 2
		c1, _ := proto.EncodeStreamChunk(&proto.StreamChunk{Seq: 6, Data: leave[:half]})
		c2, _ := proto.EncodeStreamChunk(&proto.StreamChunk{Seq: 6, Final: true, Data: leave[half:]})
		p.sendID(conn, proto.MsgOpChunk, c1)
		p.sendID(conn, proto.MsgOpChunk, c2)
		// A snapshot covering seq 10, in two fragments.
		s1, _ := proto.EncodeStreamChunk(&proto.StreamChunk{Seq: 10, Data: []byte("snap-")})
		s2, _ := proto.EncodeStreamChunk(&proto.StreamChunk{Seq: 10, Final: true, Data: []byte("shot")})
		p.sendID(conn, proto.MsgSnapshotChunk, s1)
		p.sendID(conn, proto.MsgSnapshotChunk, s2)
		// Terminate with a wire error the session must surface.
		p.sendID(conn, proto.MsgError, proto.EncodeError(&proto.Error{Code: proto.CodeInternal, Message: "scripted end"}))
	})

	s, err := Follow(p.ln.Addr().String(), FollowConfig{After: 2, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var col collector
	runErr := s.Run(&col)
	<-streamed
	var werr *proto.Error
	if !errors.As(runErr, &werr) || werr.Message != "scripted end" {
		t.Fatalf("run ended with %v, want the scripted wire error", runErr)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	wantOps := []uint64{3, 4, 5, 6}
	if len(col.ops) != len(wantOps) {
		t.Fatalf("applied %v, want %v", col.ops, wantOps)
	}
	for i, seq := range wantOps {
		if col.ops[i] != seq {
			t.Fatalf("applied %v, want %v", col.ops, wantOps)
		}
	}
	if !bytes.Equal(col.snapshot, []byte("snap-shot")) || col.snapSeq != 10 {
		t.Fatalf("snapshot %q at %d, want snap-shot at 10", col.snapshot, col.snapSeq)
	}
	if s.Applied() != 10 {
		t.Fatalf("applied watermark %d, want 10", s.Applied())
	}
	if s.Head() != 10 {
		t.Fatalf("head watermark %d, want 10", s.Head())
	}
}

// TestFollowSessionCloseAndBadFrames: Close unblocks Run with
// net.ErrClosed, and an off-protocol frame type terminates the session
// loudly.
func TestFollowSessionUnexpectedFrame(t *testing.T) {
	p := startFakePrimary(t, func(p *fakePrimary, conn net.Conn) {
		p.sendID(conn, proto.MsgFollowHead, proto.EncodeFollowHead(&proto.FollowHead{Head: 1}))
		p.sendID(conn, proto.MsgJoinResponse, nil) // not a stream frame
	})
	s, err := Follow(p.ln.Addr().String(), FollowConfig{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var col collector
	if err := s.Run(&col); err == nil {
		t.Fatal("off-protocol frame tolerated")
	}
}

func TestFollowSessionClose(t *testing.T) {
	record := encodeOp(t, op.Leave(9))
	p := startFakePrimary(t, func(p *fakePrimary, conn net.Conn) {
		p.sendID(conn, proto.MsgFollowHead, proto.EncodeFollowHead(&proto.FollowHead{Head: 1}))
		recs, err := proto.EncodeOpRecords(&proto.OpRecords{Records: []proto.OpRecord{{Seq: 1, Data: record}}})
		if err != nil {
			p.t.Errorf("encode records: %v", err)
			return
		}
		p.sendID(conn, proto.MsgOpRecords, recs)
	})
	s, err := Follow(p.ln.Addr().String(), FollowConfig{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Close from inside the apply callback: Run is then provably mid-loop
	// when the session dies, with no timing sleep needed, and its next
	// read must surface net.ErrClosed.
	col := &closingHandler{s: s}
	if err := s.Run(col); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("run after Close returned %v, want net.ErrClosed", err)
	}
	if !col.applied {
		t.Fatal("handler never saw the record that triggered the close")
	}
}

// closingHandler closes its session upon the first applied record — a
// deterministic way to exercise Close racing a blocked Run.
type closingHandler struct {
	collector
	s       *FollowSession
	applied bool
}

func (h *closingHandler) ReplicateOp(seq uint64, o op.Op) error {
	h.applied = true
	h.s.Close()
	return h.collector.ReplicateOp(seq, o)
}

// TestFollowSessionRejectsGarbageRecord: a record that fails the
// canonical op codec terminates the session — applying a guess would
// diverge the copy.
func TestFollowSessionRejectsGarbageRecord(t *testing.T) {
	p := startFakePrimary(t, func(p *fakePrimary, conn net.Conn) {
		p.sendID(conn, proto.MsgFollowHead, proto.EncodeFollowHead(&proto.FollowHead{Head: 1}))
		recs, err := proto.EncodeOpRecords(&proto.OpRecords{Records: []proto.OpRecord{
			{Seq: 1, Data: []byte{0xff, 0xee, 0xdd}},
		}})
		if err != nil {
			p.t.Errorf("encode: %v", err)
			return
		}
		p.sendID(conn, proto.MsgOpRecords, recs)
	})
	s, err := Follow(p.ln.Addr().String(), FollowConfig{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var col collector
	if err := s.Run(&col); err == nil {
		t.Fatal("garbage record applied")
	}
	if s.Applied() != 0 {
		t.Fatalf("applied advanced to %d over a garbage record", s.Applied())
	}
}

// failingRestorer rejects snapshots, modelling a backend that cannot load
// the shipped state: the session must surface it, not ack a restore that
// never happened.
type failingRestorer struct{ collector }

func (f *failingRestorer) RestoreSnapshot(seq uint64, r io.Reader) error {
	return errors.New("restore refused")
}

func TestFollowSessionSurfacesRestoreFailure(t *testing.T) {
	p := startFakePrimary(t, func(p *fakePrimary, conn net.Conn) {
		p.sendID(conn, proto.MsgFollowHead, proto.EncodeFollowHead(&proto.FollowHead{Head: 9}))
		ch, _ := proto.EncodeStreamChunk(&proto.StreamChunk{Seq: 9, Final: true, Data: []byte("snap")})
		p.sendID(conn, proto.MsgSnapshotChunk, ch)
	})
	s, err := Follow(p.ln.Addr().String(), FollowConfig{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(&failingRestorer{}); err == nil {
		t.Fatal("restore failure swallowed")
	}
	if s.Applied() != 0 {
		t.Fatalf("applied advanced to %d past a failed restore", s.Applied())
	}
}
