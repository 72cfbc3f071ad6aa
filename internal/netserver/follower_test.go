package netserver

import (
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/cluster"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// scriptedPrimary is a follow-stream server: it answers the first
// connection's hello and follow request, plays a scripted frame sequence,
// then records the acks it receives until the follower hangs up (a script
// that closes the connection ends it at once). Every later connection — a
// redial — is accepted and held without an answer, so a follower that
// redials waits in its hello.
type scriptedPrimary struct {
	ln     net.Listener
	t      *testing.T
	script func(p *scriptedPrimary, conn net.Conn)
	held   chan struct{} // signalled, without blocking, when a redial is held
	played chan struct{} // closed once the first connection is over

	mu    sync.Mutex
	acks  []uint64
	conns []net.Conn

	done chan struct{}
}

func startScriptedPrimary(t *testing.T, script func(p *scriptedPrimary, conn net.Conn)) *scriptedPrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPrimary{ln: ln, t: t, script: script, held: make(chan struct{}, 1), played: make(chan struct{}), done: make(chan struct{})}
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		<-p.done
	})
	return p
}

func (p *scriptedPrimary) addr() string { return p.ln.Addr().String() }

func (p *scriptedPrimary) serve() {
	defer close(p.done)
	for first := true; ; first = false {
		conn, err := p.ln.Accept()
		if err != nil {
			if !first {
				<-p.played
			}
			return
		}
		p.mu.Lock()
		p.conns = append(p.conns, conn)
		p.mu.Unlock()
		if !first {
			select {
			case p.held <- struct{}{}:
			default:
			}
			continue
		}
		go func() {
			defer close(p.played)
			defer conn.Close()
			p.play(conn)
		}()
	}
}

func (p *scriptedPrimary) play(conn net.Conn) {
	typ, payload, err := proto.ReadFrame(conn)
	if err != nil || typ != proto.MsgHello {
		p.t.Errorf("scripted primary: expected hello, got %d (%v)", typ, err)
		return
	}
	proto.PutBuf(payload)
	ack := proto.EncodeHelloAck(&proto.HelloAck{Version: proto.Version2, MaxBatch: proto.MaxBatch})
	if err := proto.WriteFrame(conn, proto.MsgHelloAck, ack); err != nil {
		p.t.Errorf("scripted primary: hello ack: %v", err)
		return
	}
	typ, _, payload, err = proto.ReadFrameID(conn)
	if err != nil || typ != proto.MsgFollowRequest {
		p.t.Errorf("scripted primary: expected follow request, got %d (%v)", typ, err)
		return
	}
	proto.PutBuf(payload)
	p.script(p, conn)
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

// send writes one stream frame under the follow request's ID.
func (p *scriptedPrimary) send(conn net.Conn, typ proto.MsgType, payload []byte) {
	if err := proto.WriteFrameID(conn, typ, 1, payload); err != nil {
		p.t.Errorf("scripted primary: send %d: %v", typ, err)
	}
}

// sendHead announces the committed head: the follow request's answer.
func (p *scriptedPrimary) sendHead(conn net.Conn, head uint64) {
	p.send(conn, proto.MsgFollowHead, proto.EncodeFollowHead(&proto.FollowHead{Head: head}))
}

// startScriptedFollower starts a follower of p whose reads never time out
// within a test, so only the script and Close end its sessions.
func startScriptedFollower(t *testing.T, p *scriptedPrimary, after uint64, backend FollowerBackend) *Follower {
	t.Helper()
	f, err := StartFollower(FollowerConfig{
		Logger:      t.Logf,
		PrimaryAddr: p.addr(),
		Backend:     backend,
		After:       after,
		Timeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// closeWithin fails the test unless f.Close returns within d.
func closeWithin(t *testing.T, f *Follower, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Close did not return within %v", d)
	}
}

// TestFollowerCloseWhileDialing: Close returns at once when it races the
// follower's own dial — right after StartFollower, before the stream has
// been handed on, and during a redial to a primary that accepted the
// connection but never answers its hello. A Close that waits for the dial
// instead hangs for as long as the primary keeps the stream alive.
func TestFollowerCloseWhileDialing(t *testing.T) {
	t.Run("after start", func(t *testing.T) {
		clu, ns := newFollowedPlane(t, t.TempDir())
		defer clu.Close()
		defer ns.Close()
		for i := 0; i < 10; i++ {
			closeWithin(t, newFollowerNode(t, ns.Addr(), 0, nil), time.Second)
		}
	})
	t.Run("mid redial", func(t *testing.T) {
		p := startScriptedPrimary(t, func(p *scriptedPrimary, conn net.Conn) {
			p.sendHead(conn, 0)
			conn.Close() // the stream dies; the follower redials
		})
		f := startScriptedFollower(t, p, 0, newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}}))
		select {
		case <-p.held:
		case <-time.After(10 * time.Second):
			f.Close()
			t.Fatal("the follower never redialled")
		}
		closeWithin(t, f, time.Second)
	})
}

// TestFollowerErrClearsOnResume: Err reports a dropped stream only until
// a fresh session is answered; once the follower has resumed and applied
// a new write, it is healthy again and says so.
func TestFollowerErrClearsOnResume(t *testing.T) {
	clu, ns := newFollowedPlane(t, t.TempDir())
	defer clu.Close()
	defer ns.Close()
	if _, err := clu.JoinOp(joinOp(1, "", []int32{7, 0})); err != nil {
		t.Fatal(err)
	}
	f := newFollowerNode(t, ns.Addr(), 0, nil)
	defer f.Close()
	waitApplied(t, f, clu)

	// Drop the follower's connection from the primary's side.
	ns.hub.mu.Lock()
	for wc := range ns.hub.followers {
		wc.Close()
	}
	ns.hub.mu.Unlock()
	if _, err := clu.JoinOp(joinOp(2, "", []int32{8, 100})); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, clu)
	if err := f.Err(); err != nil {
		t.Fatalf("resumed follower still reports %v", err)
	}
}

// recordingBackend is a FollowerBackend that records what a follower
// hands it: the peer of every applied op (the scripted streams key each
// op's peer by its sequence) and the bytes of every restore.
type recordingBackend struct {
	mu         sync.Mutex
	peers      []pathtree.PeerID
	snapshot   []byte
	restoreErr error
	applied    chan struct{} // when set, receives one value per applied op
}

func (b *recordingBackend) Apply(o op.Op) error {
	b.mu.Lock()
	b.peers = append(b.peers, o.Peer)
	b.mu.Unlock()
	if b.applied != nil {
		b.applied <- struct{}{}
	}
	return nil
}

func (b *recordingBackend) ResetFromSnapshot(r io.ReadSeeker) error {
	if b.restoreErr != nil {
		return b.restoreErr
	}
	data, err := io.ReadAll(r)
	b.mu.Lock()
	b.snapshot = data
	b.mu.Unlock()
	return err
}

func encodeOp(t *testing.T, o op.Op) []byte {
	t.Helper()
	b, err := op.Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encodeRecords(p *scriptedPrimary, recs ...proto.OpRecord) []byte {
	b, err := proto.EncodeOpRecords(&proto.OpRecords{Records: recs})
	if err != nil {
		p.t.Errorf("encode records: %v", err)
	}
	return b
}

func encodeChunk(seq uint64, final bool, data []byte) []byte {
	b, _ := proto.EncodeStreamChunk(&proto.StreamChunk{Seq: seq, Final: final, Data: data})
	return b
}

// waitErr waits for the follower's session to end and returns why.
func waitErr(t *testing.T, f *Follower) error {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); f.Err() == nil; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower's session never ended")
		}
	}
	return f.Err()
}

// TestFollowerScriptedStream drives a follower through every frame kind
// the protocol ships: head announcements, record batches (with an overlap
// the dedup must skip), a fragmented oversized op, a chunked snapshot, and
// a terminating wire error.
func TestFollowerScriptedStream(t *testing.T) {
	p := startScriptedPrimary(t, func(p *scriptedPrimary, conn net.Conn) {
		p.sendHead(conn, 4)
		p.send(conn, proto.MsgOpRecords, encodeRecords(p,
			proto.OpRecord{Seq: 3, Data: encodeOp(t, op.Leave(3))},
			proto.OpRecord{Seq: 4, Data: encodeOp(t, op.Refresh(4, 5))}))
		// Overlap: seq 4 again plus the new seq 5 — dedup must skip 4.
		p.send(conn, proto.MsgOpRecords, encodeRecords(p,
			proto.OpRecord{Seq: 4, Data: encodeOp(t, op.Refresh(4, 5))},
			proto.OpRecord{Seq: 5, Data: encodeOp(t, op.Leave(5))}))
		// Seq 6 arrives as two op fragments.
		six := encodeOp(t, op.Leave(6))
		p.send(conn, proto.MsgOpChunk, encodeChunk(6, false, six[:len(six)/2]))
		p.send(conn, proto.MsgOpChunk, encodeChunk(6, true, six[len(six)/2:]))
		// A snapshot covering seq 10, in two fragments.
		p.send(conn, proto.MsgSnapshotChunk, encodeChunk(10, false, []byte("snap-")))
		p.send(conn, proto.MsgSnapshotChunk, encodeChunk(10, true, []byte("shot")))
		p.send(conn, proto.MsgError, proto.EncodeError(&proto.Error{Code: proto.CodeInternal, Message: "scripted end"}))
	})
	backend := &recordingBackend{}
	f := startScriptedFollower(t, p, 2, backend)
	defer f.Close()
	var werr *proto.Error
	if err := waitErr(t, f); !errors.As(err, &werr) || werr.Message != "scripted end" {
		t.Fatalf("session ended with %v, want the scripted wire error", err)
	}
	backend.mu.Lock()
	peers, snapshot := backend.peers, backend.snapshot
	backend.mu.Unlock()
	if want := []pathtree.PeerID{3, 4, 5, 6}; !slices.Equal(peers, want) {
		t.Fatalf("applied the ops of peers %v, want %v", peers, want)
	}
	if string(snapshot) != "snap-shot" {
		t.Fatalf("restored %q, want snap-shot", snapshot)
	}
	if f.Applied() != 10 || f.Head() != 10 {
		t.Fatalf("applied %d head %d, want both 10", f.Applied(), f.Head())
	}
	// One ack per record batch, reassembled op and snapshot, each carrying
	// the offset applied by then; the head that answers the follow request
	// is not acked.
	<-p.played
	p.mu.Lock()
	defer p.mu.Unlock()
	if want := []uint64{4, 5, 6, 10}; !slices.Equal(p.acks, want) {
		t.Fatalf("primary was acked %v, want %v", p.acks, want)
	}
}

// TestFollowerRejectsUnexpectedFrame: an off-protocol frame type ends the
// session loudly.
func TestFollowerRejectsUnexpectedFrame(t *testing.T) {
	p := startScriptedPrimary(t, func(p *scriptedPrimary, conn net.Conn) {
		p.sendHead(conn, 1)
		p.send(conn, proto.MsgJoinResponse, nil) // not a stream frame
	})
	f := startScriptedFollower(t, p, 0, &recordingBackend{})
	defer f.Close()
	if err := waitErr(t, f); !strings.Contains(err.Error(), "unexpected stream frame") {
		t.Fatalf("session ended with %v, want an unexpected-frame error", err)
	}
}

// TestFollowerRejectsGarbageRecord: a record that fails the canonical op
// codec ends the session — applying a guess would diverge the copy.
func TestFollowerRejectsGarbageRecord(t *testing.T) {
	p := startScriptedPrimary(t, func(p *scriptedPrimary, conn net.Conn) {
		p.sendHead(conn, 1)
		p.send(conn, proto.MsgOpRecords, encodeRecords(p, proto.OpRecord{Seq: 1, Data: []byte{0xff, 0xee, 0xdd}}))
	})
	f := startScriptedFollower(t, p, 0, &recordingBackend{})
	defer f.Close()
	waitErr(t, f)
	if f.Applied() != 0 {
		t.Fatalf("applied advanced to %d over a garbage record", f.Applied())
	}
}

// TestFollowerSurfacesRestoreFailure: a backend that cannot load the
// shipped snapshot ends the session; the follower must not count a
// restore that never happened.
func TestFollowerSurfacesRestoreFailure(t *testing.T) {
	p := startScriptedPrimary(t, func(p *scriptedPrimary, conn net.Conn) {
		p.sendHead(conn, 9)
		p.send(conn, proto.MsgSnapshotChunk, encodeChunk(9, true, []byte("snap")))
	})
	f := startScriptedFollower(t, p, 0, &recordingBackend{restoreErr: errors.New("restore refused")})
	defer f.Close()
	if err := waitErr(t, f); !strings.Contains(err.Error(), "restore refused") {
		t.Fatalf("session ended with %v, want the refused restore", err)
	}
	if f.Applied() != 0 {
		t.Fatalf("applied advanced to %d past a failed restore", f.Applied())
	}
}

// TestFollowerCloseMidStream: a Close while the session is live — just
// after an apply, with the primary quiet — returns at once.
func TestFollowerCloseMidStream(t *testing.T) {
	p := startScriptedPrimary(t, func(p *scriptedPrimary, conn net.Conn) {
		p.sendHead(conn, 1)
		p.send(conn, proto.MsgOpRecords, encodeRecords(p, proto.OpRecord{Seq: 1, Data: encodeOp(t, op.Leave(9))}))
	})
	backend := &recordingBackend{applied: make(chan struct{}, 1)}
	f := startScriptedFollower(t, p, 0, backend)
	<-backend.applied
	closeWithin(t, f, time.Second)
	if f.Applied() != 1 || f.Err() != nil {
		t.Fatalf("closed follower at seq %d with error %v, want seq 1 and none", f.Applied(), f.Err())
	}
}

// TestStartFollowerRefusesNonV2Server: the follower's dial, like the
// client's, treats any answer to its hello other than an ack at version 2
// as a failed start — there is no other protocol to fall back to.
func TestStartFollowerRefusesNonV2Server(t *testing.T) {
	for _, a := range []struct {
		name    string
		typ     proto.MsgType
		payload []byte
	}{
		{"MsgError", proto.MsgError, proto.EncodeError(&proto.Error{Code: proto.CodeBadRequest, Message: "unknown message type 13"})},
		{"ack at version 1", proto.MsgHelloAck, proto.EncodeHelloAck(&proto.HelloAck{Version: 1})},
		{"unexpected type", proto.MsgLookupResponse, nil},
	} {
		t.Run(a.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
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
				if err := proto.WriteFrame(conn, a.typ, a.payload); err != nil {
					t.Error(err)
				}
				io.Copy(io.Discard, conn) // until the follower hangs up
			}()
			f, err := StartFollower(FollowerConfig{PrimaryAddr: ln.Addr().String(), Backend: &recordingBackend{}, Timeout: 2 * time.Second})
			if err == nil {
				f.Close()
				t.Error("the follower started")
			}
			<-done
		})
	}
}
