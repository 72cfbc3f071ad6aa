package client

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/proto"
)

// This file is the follower half of cross-process replication: a
// FollowSession subscribes to a primary's committed op stream
// (MsgFollowRequest) and feeds every record — and any
// catch-up snapshot the primary decides to ship — to a FollowHandler. The
// session deduplicates by sequence, so the primary is free to hand it
// overlapping ranges (the WAL tail re-read after a reconnect), and
// acknowledges its applied offset back both as flow control for the
// primary's send window and as its half of the idle-stream heartbeat.

// FollowHandler consumes a primary's replication stream: ops through the
// op.Replicator interface, plus whole-state snapshots when the follower
// is too far behind the primary's log retention.
type FollowHandler interface {
	op.Replicator
	// RestoreSnapshot replaces the local state with the snapshot in r,
	// which covers every op up to and including seq.
	RestoreSnapshot(seq uint64, r io.Reader) error
}

// FollowConfig tunes a FollowSession.
type FollowConfig struct {
	// After is the last sequence already applied locally; the stream
	// resumes strictly after it.
	After uint64
	// Timeout bounds the dial and each frame read (default 15s). The
	// primary heartbeats idle streams well inside it.
	Timeout time.Duration
	// OnHead, when set, observes every head announcement from the
	// primary — the lag denominator.
	OnHead func(head uint64)
}

// followReqID is the request ID of the follow subscription; every stream
// frame in both directions carries it.
const followReqID = 1

// followHeartbeat is how often an idle follower re-acks its applied
// offset so the primary's read deadline stays fed.
const followHeartbeat = 2 * time.Second

// FollowSession is one live subscription to a primary's op stream.
type FollowSession struct {
	cfg  FollowConfig
	conn net.Conn
	br   io.Reader

	applied atomic.Uint64
	head    atomic.Uint64

	wmu       sync.Mutex
	closeOnce sync.Once
	closed    chan struct{}
}

// Follow dials the primary, opens the session, and subscribes to its
// committed op stream after cfg.After. Run must be called to consume
// the stream.
func Follow(addr string, cfg FollowConfig) (*FollowSession, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 15 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("client: follow dial %s: %w", addr, err)
	}
	s := &FollowSession{cfg: cfg, conn: conn, br: bufio.NewReaderSize(conn, 16<<10), closed: make(chan struct{})}
	s.applied.Store(cfg.After)
	if err := s.negotiate(); err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// negotiate opens the session (see hello) and sends the follow
// subscription.
func (s *FollowSession) negotiate() error {
	if _, err := hello(s.conn, s.br, s.cfg.Timeout); err != nil {
		return fmt.Errorf("client: follow: %w", err)
	}
	req := proto.EncodeFollowRequest(&proto.FollowRequest{After: s.cfg.After})
	if err := proto.WriteFrameID(s.conn, proto.MsgFollowRequest, followReqID, req); err != nil {
		return fmt.Errorf("client: follow subscribe: %w", err)
	}
	// The primary's first answer is its committed head — or a rejection
	// (no durable log, a replica node). Reading it here makes a refused
	// subscription fail at Follow time instead of surfacing mid-Run.
	rtyp, _, rpayload, err := proto.ReadFrameID(s.br)
	if err != nil {
		return fmt.Errorf("client: follow subscribe response: %w", err)
	}
	defer proto.PutBuf(rpayload)
	switch rtyp {
	case proto.MsgFollowHead:
		m, err := proto.DecodeFollowHead(rpayload)
		if err != nil {
			return err
		}
		s.noteHead(m.Head)
	case proto.MsgError:
		werr, derr := proto.DecodeError(rpayload)
		if derr != nil {
			return fmt.Errorf("client: undecodable error response: %w", derr)
		}
		return werr
	default:
		return fmt.Errorf("client: unexpected follow response type %d", rtyp)
	}
	return s.conn.SetDeadline(time.Time{})
}

// Applied reports the last sequence applied through this session.
func (s *FollowSession) Applied() uint64 { return s.applied.Load() }

// Head reports the primary's last announced committed head.
func (s *FollowSession) Head() uint64 { return s.head.Load() }

// Close tears the session down; a blocked Run returns.
func (s *FollowSession) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	return s.conn.Close()
}

// noteHead advances the head-watermark monotonically.
func (s *FollowSession) noteHead(head uint64) {
	for {
		cur := s.head.Load()
		if head <= cur || s.head.CompareAndSwap(cur, head) {
			break
		}
	}
	if head > 0 && s.cfg.OnHead != nil {
		s.cfg.OnHead(s.head.Load())
	}
}

// sendAck reports the applied offset to the primary.
func (s *FollowSession) sendAck() error {
	payload := proto.EncodeOpAck(&proto.OpAck{Seq: s.applied.Load()})
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.conn.SetWriteDeadline(time.Now().Add(s.cfg.Timeout)); err != nil {
		return err
	}
	return proto.WriteFrameID(s.conn, proto.MsgOpAck, followReqID, payload)
}

// Run consumes the stream until the connection dies or Close is called,
// applying every new record through h. It returns the terminating error
// (net.ErrClosed after a plain Close); the caller owns the reconnect
// policy — a new Follow with After set to Applied resumes exactly where
// this session stopped.
func (s *FollowSession) Run(h FollowHandler) error {
	// The heartbeat goroutine keeps the primary's read deadline fed while
	// the local apply loop is between frames.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(followHeartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.sendAck(); err != nil {
					return
				}
			case <-hbStop:
				return
			case <-s.closed:
				return
			}
		}
	}()
	defer func() {
		close(hbStop)
		hbWG.Wait()
	}()

	var (
		opChunk    []byte // partial oversized op, keyed by opChunkSeq
		opChunkSeq uint64
		snapChunk  bytes.Buffer // partial snapshot
	)
	for {
		if err := s.conn.SetReadDeadline(time.Now().Add(s.cfg.Timeout)); err != nil {
			return err
		}
		typ, _, payload, err := proto.ReadFrameID(s.br)
		if err != nil {
			select {
			case <-s.closed:
				return net.ErrClosed
			default:
			}
			return fmt.Errorf("client: follow receive: %w", err)
		}
		switch typ {
		case proto.MsgFollowHead:
			m, derr := proto.DecodeFollowHead(payload)
			proto.PutBuf(payload)
			if derr != nil {
				return derr
			}
			s.noteHead(m.Head)
			// Heartbeat ping-pong: answering every head announcement with
			// an ack keeps the follower's send cadence inside whatever
			// read deadline the primary runs, without either side having
			// to know the other's configuration.
			if err := s.sendAck(); err != nil {
				return err
			}

		case proto.MsgOpRecords:
			m, derr := proto.DecodeOpRecords(payload)
			proto.PutBuf(payload)
			if derr != nil {
				return derr
			}
			for i := range m.Records {
				if err := s.applyRecord(h, m.Records[i].Seq, m.Records[i].Data); err != nil {
					return err
				}
			}
			if err := s.sendAck(); err != nil {
				return err
			}

		case proto.MsgOpChunk:
			m, derr := proto.DecodeStreamChunk(payload)
			proto.PutBuf(payload)
			if derr != nil {
				return derr
			}
			if m.Seq != opChunkSeq {
				opChunk, opChunkSeq = nil, m.Seq
			}
			if len(opChunk)+len(m.Data) > op.MaxEncodedSize {
				return fmt.Errorf("client: fragmented op %d exceeds %d bytes", m.Seq, op.MaxEncodedSize)
			}
			opChunk = append(opChunk, m.Data...)
			if m.Final {
				data := opChunk
				opChunk, opChunkSeq = nil, 0
				if err := s.applyRecord(h, m.Seq, data); err != nil {
					return err
				}
				if err := s.sendAck(); err != nil {
					return err
				}
			}

		case proto.MsgSnapshotChunk:
			m, derr := proto.DecodeStreamChunk(payload)
			proto.PutBuf(payload)
			if derr != nil {
				return derr
			}
			snapChunk.Write(m.Data)
			if m.Final {
				data := append([]byte(nil), snapChunk.Bytes()...)
				snapChunk.Reset()
				if m.Seq > s.applied.Load() {
					if err := h.RestoreSnapshot(m.Seq, bytes.NewReader(data)); err != nil {
						return fmt.Errorf("client: follow snapshot restore: %w", err)
					}
					s.applied.Store(m.Seq)
				}
				s.noteHead(m.Seq)
				if err := s.sendAck(); err != nil {
					return err
				}
			}

		case proto.MsgError:
			werr, derr := proto.DecodeError(payload)
			proto.PutBuf(payload)
			if derr != nil {
				return fmt.Errorf("client: undecodable error response: %w", derr)
			}
			return werr

		default:
			proto.PutBuf(payload)
			return fmt.Errorf("client: unexpected stream frame type %d", typ)
		}
	}
}

// applyRecord decodes one committed record and applies it through the
// handler, skipping sequences already applied (the overlap a catch-up
// re-read produces).
func (s *FollowSession) applyRecord(h FollowHandler, seq uint64, data []byte) error {
	if seq <= s.applied.Load() {
		return nil
	}
	o, err := op.Decode(data)
	if err != nil {
		return fmt.Errorf("client: stream record %d: %w", seq, err)
	}
	if err := h.ReplicateOp(seq, o); err != nil {
		return fmt.Errorf("client: apply record %d: %w", seq, err)
	}
	s.applied.Store(seq)
	s.noteHead(seq)
	return nil
}
