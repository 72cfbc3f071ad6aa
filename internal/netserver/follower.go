package netserver

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/op"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
)

// This file is the follower role, the one way a shard's state is
// replicated. A cluster keeps exactly one copy of every shard in its
// process; further copies live in other processes as followers
// (StartFollower, or proxdisc-server -follow ADDR). A durable primary's
// write-ahead log doubles as the replication stream: every mutation is one
// canonically encoded op with one sequence number, so shipping the log is
// shipping the state. A follower consumes the primary's committed op stream
// over TCP (MsgFollowRequest) and applies every record through the copy's
// single Apply door — the door WAL recovery uses: one door, two consumers,
// zero drift. StartFollower fails against a server that does not
// acknowledge the hello at version 2 (TestStartFollowerRefusesNonV2Server).
//
// There is one kind of copy: a cluster.Cluster over the primary's landmarks
// (proxdisc-server refuses to start a follower with other -landmarks), of
// any shard count. No record and no checkpoint names a shard, so the copy
// deals the landmarks over its own shards, and a 1-shard follower of a
// 2-shard primary writes the primary's snapshot bytes
// (TestOneShardFollowerOfTwoShardPrimary, TestFollowerCatchupAfterKill).
//
// What a follower guarantees: it applies the primary's committed op stream
// — joins, batch joins, leaves, refreshes, super-peer flags, TTL expiry
// sweeps (one op per sweep) — in commit order, so once it has applied up to
// the primary's head its state serializes to a byte-identical snapshot (a
// snapshot is a function of the state alone). Replication is asynchronous:
// the primary acknowledges a write when its own write-ahead log has it, not
// when a follower does, so a follower's reads may lag the primary's by its
// reported lag (proto.Status: Head − Applied) and are not read-your-writes.
// The other way round never happens: a follower, like a subscription, is
// sent an op only once it is durable on the primary, so none can apply an
// op a crash of the primary would lose (TestCommitTapSeesOnlyDurableRecords).
//
// The primary serves the stream from its WAL (follow.go): live records
// reach each follower's bounded buffer from the commit tap, a follower that
// lags is fed by reading the log's files, and one behind the log's
// retention floor — it reconnected after the primary compacted — receives
// the latest on-disk checkpoint, shipped as the file it is, plus the
// tail after it. The primary sends at most a bounded window beyond the
// follower's last acknowledged sequence, so a stalled follower exerts
// backpressure on its own stream instead of ballooning the primary. Acks
// double as the idle stream's heartbeat: an idle primary announces its
// head, which is also how a follower knows its lag, and the follower acks
// every announcement.
//
// Catch-up. A follower that disconnects — crash, partition, restart —
// redials with its applied sequence and resumes exactly there: from the
// WAL tail when the primary still retains it, from snapshot + tail when it
// does not. The stream is deduplicated by sequence, so the primary is free
// to hand it overlapping ranges (the WAL tail re-read after a reconnect).
// A shipped checkpoint is restored by the road a durable open loads its
// own (cluster.Cluster.ResetFromSnapshot): the shard-parallel pass, the
// serial one when the pass cannot vouch for its state, then one
// publication. The restore replaces the copy rather than merging, so peers
// that departed during the outage disappear from the follower too — and
// only once the whole shipped stream, end frame included, has read
// cleanly; until then the follower keeps what it had.
//
// The replica. A NetServer whose Config.Replication is the Follower serves
// reads from the copy and names the primary — the address the Follower
// dials — in its answer to every write: a redirect for a join, a
// not-primary error carrying the address for anything else, both of which
// package client follows. Promotion is manual: nothing elects a follower
// when the primary is lost for good — an operator restarts a node over the
// follower's state as the new primary and repoints the others.
//
// Monitoring. A node's status (Client.Status, proto.Status) carries its
// last snapshot sequence, WAL tail length and recovery replay time, and on
// a follower the applied/head pair whose difference is the replication
// lag; proxdisc-server logs lag and group-commit batching on a live node.

// FollowerBackend is what a Follower calls on the copy it maintains: the
// op door and whole-state restore for snapshot catch-up. *cluster.Cluster
// implements it, and so does *server.Server.
type FollowerBackend interface {
	// Apply applies one committed op.
	Apply(o op.Op) error
	// ResetFromSnapshot replaces the entire local state with the
	// snapshot's. A cluster's restore may read the snapshot twice (its
	// serial fallback starts again from the top), so the reader seeks.
	ResetFromSnapshot(r io.ReadSeeker) error
}

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Telemetry, when set, receives the follower's applied/head/lag gauges
	// (proxdisc_follow_applied_seq, proxdisc_follow_head_seq,
	// proxdisc_follow_lag) and a reconnect counter
	// (proxdisc_follow_reconnects_total).
	Telemetry *telemetry.Registry
	// Logger receives diagnostics; nil silences them.
	Logger func(format string, args ...any)
	// PrimaryAddr is the primary node's TCP address: the follower dials
	// it, and a NetServer replicating through this follower points writes
	// at it.
	PrimaryAddr string
	// Backend is the local copy the stream is applied to.
	Backend FollowerBackend
	// After resumes the stream after an already-applied sequence (0 =
	// from scratch; the primary then typically ships snapshot + tail).
	After uint64
	// Timeout bounds the dial, the session's opening exchange and each
	// frame read (default 15s). The primary heartbeats idle streams well
	// inside it.
	Timeout time.Duration
}

// followReqID is the request ID of the follow subscription; every stream
// frame in both directions carries it.
const followReqID = 1

// followHeartbeat is the longest the follower goes without an ack while
// frames that ask for none (snapshot fragments) keep arriving, so the
// primary's read deadline stays fed.
const followHeartbeat = 2 * time.Second

// Follower maintains a local copy of a primary's state from its op
// stream, reconnecting (and catching up) across stream failures until
// closed. One goroutine owns the stream: it dials, opens the session,
// subscribes, applies and acks. A replica NetServer reports Applied and
// Head in MsgStatusResponse.
type Follower struct {
	cfg FollowerConfig

	applied atomic.Uint64
	head    atomic.Uint64

	errMu   sync.Mutex
	lastErr error

	// connMu guards conn, the connection that is live or being opened,
	// and orders Close against publishing it.
	connMu sync.Mutex
	conn   net.Conn

	// tapMu guards the optional observation hooks: a replica node's
	// subscription plane feeds from them.
	tapMu      sync.Mutex
	applyTap   func(seq uint64, o op.Op)
	restoreTap func()

	reconnects *telemetry.Counter

	// ctx is cancelled by Close: it aborts a dial in progress and stops
	// the stream goroutine.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartFollower dials the primary and starts consuming its op stream in
// the background. The first session is opened synchronously, so a bad
// address or a primary without a durable log fails here rather than
// silently retrying.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Backend == nil {
		return nil, errors.New("netserver: follower needs a backend")
	}
	if cfg.PrimaryAddr == "" {
		return nil, errors.New("netserver: follower needs a primary address")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 15 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = func(string, ...any) {}
	}
	f := &Follower{cfg: cfg}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.applied.Store(cfg.After)
	f.reconnects = cfg.Telemetry.Counter("proxdisc_follow_reconnects_total")
	cfg.Telemetry.GaugeFunc("proxdisc_follow_applied_seq", func() float64 { return float64(f.Applied()) })
	cfg.Telemetry.GaugeFunc("proxdisc_follow_head_seq", func() float64 { return float64(f.Head()) })
	cfg.Telemetry.GaugeFunc("proxdisc_follow_lag", func() float64 { return float64(f.Lag()) })
	conn, br, err := f.open()
	if err != nil {
		f.cancel()
		return nil, err
	}
	f.wg.Add(1)
	go f.run(conn, br)
	return f, nil
}

// run consumes sessions until Close. It redials a dead stream after
// client.BackoffDelay(attempt), where attempt is 1 plus the dials that
// failed since the last session ran. The resumed session picks up exactly
// where the last one stopped: catch-up runs from the acknowledged offset,
// via the primary's WAL tail — or its latest snapshot when the tail has
// been compacted away.
func (f *Follower) run(conn net.Conn, br *bufio.Reader) {
	defer f.wg.Done()
	attempt := 1
	for {
		if conn != nil {
			err := f.stream(conn, br)
			f.dropConn()
			if f.ctx.Err() != nil {
				return
			}
			f.noteErr(err)
			f.cfg.Logger("netserver: follower stream to %s ended: %v (resuming after seq %d)",
				f.cfg.PrimaryAddr, err, f.applied.Load())
			attempt = 1 // the session ran; start backoff afresh
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(client.BackoffDelay(attempt)):
		}
		f.reconnects.Inc()
		var err error
		if conn, br, err = f.open(); err != nil {
			if f.ctx.Err() != nil {
				return
			}
			f.noteErr(err)
			f.cfg.Logger("netserver: follower redial %s: %v", f.cfg.PrimaryAddr, err)
			attempt++
		}
	}
}

// open dials the primary and subscribes to its op stream after everything
// already applied: the session's hello, the follow request, and the
// primary's first answer — its committed head, or a refusal (no durable
// log, a replica node), which fails the open instead of the stream. The
// connection is published before its first byte is written, so a Close
// racing the open tears it down instead of waiting it out. A head answer
// clears the last stream failure: the follower is healthy again.
func (f *Follower) open() (net.Conn, *bufio.Reader, error) {
	d := net.Dialer{Timeout: f.cfg.Timeout}
	conn, err := d.DialContext(f.ctx, "tcp", f.cfg.PrimaryAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("netserver: follow dial %s: %w", f.cfg.PrimaryAddr, err)
	}
	f.connMu.Lock()
	if f.ctx.Err() != nil {
		f.connMu.Unlock()
		conn.Close()
		return nil, nil, net.ErrClosed
	}
	f.conn = conn
	f.connMu.Unlock()
	br := bufio.NewReaderSize(conn, 16<<10)
	head, err := f.subscribe(conn, br)
	if err != nil {
		f.dropConn()
		return nil, nil, err
	}
	f.noteErr(nil)
	f.noteHead(head)
	return conn, br, nil
}

// subscribe runs the session's opening exchange on a fresh connection
// and returns the primary's committed head.
func (f *Follower) subscribe(conn net.Conn, br *bufio.Reader) (uint64, error) {
	if _, err := client.Hello(conn, br, f.cfg.Timeout); err != nil {
		return 0, fmt.Errorf("netserver: follow: %w", err)
	}
	req := proto.EncodeFollowRequest(&proto.FollowRequest{After: f.applied.Load()})
	if err := proto.WriteFrameID(conn, proto.MsgFollowRequest, followReqID, req); err != nil {
		return 0, fmt.Errorf("netserver: follow subscribe: %w", err)
	}
	typ, _, payload, err := proto.ReadFrameID(br)
	if err != nil {
		return 0, fmt.Errorf("netserver: follow subscribe response: %w", err)
	}
	defer proto.PutBuf(payload)
	switch typ {
	case proto.MsgFollowHead:
		m, err := proto.DecodeFollowHead(payload)
		if err != nil {
			return 0, err
		}
		return m.Head, conn.SetDeadline(time.Time{})
	case proto.MsgError:
		return 0, wireError(payload)
	default:
		return 0, fmt.Errorf("netserver: unexpected follow response type %d", typ)
	}
}

// wireError is the error a MsgError payload carries.
func wireError(payload []byte) error {
	werr, err := proto.DecodeError(payload)
	if err != nil {
		return fmt.Errorf("netserver: undecodable error response: %w", err)
	}
	return werr
}

// dropConn closes the published connection and unpublishes it.
func (f *Follower) dropConn() {
	f.connMu.Lock()
	f.conn.Close()
	f.conn = nil
	f.connMu.Unlock()
}

// assembly holds one session's partly received fragments.
type assembly struct {
	op    []byte // oversized op, keyed by opSeq
	opSeq uint64
	snap  bytes.Buffer
}

// stream consumes one session until the connection dies, the primary
// ends it, or Close. Every frame that applied something or announced a
// head is acked at once; the rest at least every followHeartbeat.
func (f *Follower) stream(conn net.Conn, br *bufio.Reader) error {
	var a assembly
	lastAck := time.Now()
	for {
		if err := conn.SetReadDeadline(time.Now().Add(f.cfg.Timeout)); err != nil {
			return err
		}
		typ, _, payload, err := proto.ReadFrameID(br)
		if err != nil {
			return fmt.Errorf("netserver: follow receive: %w", err)
		}
		ack, err := f.handle(typ, payload, &a)
		if err != nil {
			return err
		}
		if ack || time.Since(lastAck) >= followHeartbeat {
			if err := conn.SetWriteDeadline(time.Now().Add(f.cfg.Timeout)); err != nil {
				return err
			}
			payload := proto.EncodeOpAck(&proto.OpAck{Seq: f.applied.Load()})
			if err := proto.WriteFrameID(conn, proto.MsgOpAck, followReqID, payload); err != nil {
				return err
			}
			lastAck = time.Now()
		}
	}
}

// handle serves one stream frame and reports whether it asks for an ack.
func (f *Follower) handle(typ proto.MsgType, payload []byte, a *assembly) (ack bool, err error) {
	defer proto.PutBuf(payload)
	switch typ {
	case proto.MsgFollowHead:
		// Heartbeat ping-pong: answering every head announcement with an
		// ack keeps the follower's send cadence inside whatever read
		// deadline the primary runs, without either side having to know
		// the other's configuration.
		m, err := proto.DecodeFollowHead(payload)
		if err != nil {
			return false, err
		}
		f.noteHead(m.Head)
		return true, nil

	case proto.MsgOpRecords:
		m, err := proto.DecodeOpRecords(payload)
		if err != nil {
			return false, err
		}
		for i := range m.Records {
			if err := f.apply(m.Records[i].Seq, m.Records[i].Data); err != nil {
				return false, err
			}
		}
		return true, nil

	case proto.MsgOpChunk:
		m, err := proto.DecodeStreamChunk(payload)
		if err != nil {
			return false, err
		}
		if m.Seq != a.opSeq {
			a.op, a.opSeq = nil, m.Seq
		}
		if len(a.op)+len(m.Data) > op.MaxEncodedSize {
			return false, fmt.Errorf("netserver: fragmented op %d exceeds %d bytes", m.Seq, op.MaxEncodedSize)
		}
		a.op = append(a.op, m.Data...)
		if !m.Final {
			return false, nil
		}
		data := a.op
		a.op, a.opSeq = nil, 0
		return true, f.apply(m.Seq, data)

	case proto.MsgSnapshotChunk:
		m, err := proto.DecodeStreamChunk(payload)
		if err != nil {
			return false, err
		}
		a.snap.Write(m.Data)
		if !m.Final {
			return false, nil
		}
		err = f.restore(m.Seq, bytes.NewReader(a.snap.Bytes()))
		// ResetFromSnapshot keeps no reference to its reader: the
		// assembled snapshot is held once, and only until here.
		a.snap = bytes.Buffer{}
		return true, err

	case proto.MsgError:
		return false, wireError(payload)

	default:
		return false, fmt.Errorf("netserver: unexpected stream frame type %d", typ)
	}
}

// apply decodes one committed record and applies it through the backend's
// single mutation door, skipping sequences already applied (the overlap a
// catch-up re-read produces). An unknown-peer error is tolerated, as in WAL
// recovery: a record can name a peer a catch-up snapshot taken past its
// sequence already dropped. The copy is exact only while each peer has one
// writer at a time (ROADMAP item 16): two writes racing on one peer can log
// in the opposite order to the one the primary applied them in, and the copy
// then holds the logged order, not the one the primary answered from. Every
// other failure ends the session loudly (the copy would silently diverge
// otherwise).
func (f *Follower) apply(seq uint64, data []byte) error {
	if seq <= f.applied.Load() {
		return nil
	}
	o, err := op.Decode(data)
	if err != nil {
		return fmt.Errorf("netserver: stream record %d: %w", seq, err)
	}
	if err := f.cfg.Backend.Apply(o); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
		return fmt.Errorf("netserver: follower apply seq %d: %w", seq, err)
	}
	f.applied.Store(seq)
	f.noteHead(seq)
	f.tapMu.Lock()
	tap := f.applyTap
	f.tapMu.Unlock()
	if tap != nil {
		tap(seq, o)
	}
	return nil
}

// restore replaces the local copy with the shipped snapshot covering seq,
// unless the stream is already past it.
func (f *Follower) restore(seq uint64, r io.ReadSeeker) error {
	if seq > f.applied.Load() {
		if err := f.cfg.Backend.ResetFromSnapshot(r); err != nil {
			return fmt.Errorf("netserver: follow snapshot restore: %w", err)
		}
		f.applied.Store(seq)
		f.tapMu.Lock()
		tap := f.restoreTap
		f.tapMu.Unlock()
		if tap != nil {
			tap()
		}
	}
	f.noteHead(seq)
	return nil
}

func (f *Follower) noteErr(err error) {
	f.errMu.Lock()
	f.lastErr = err
	f.errMu.Unlock()
}

// noteHead tracks the primary's committed head monotonically.
func (f *Follower) noteHead(head uint64) {
	for {
		cur := f.head.Load()
		if head <= cur || f.head.CompareAndSwap(cur, head) {
			return
		}
	}
}

// SetApplyTap installs a callback invoked after each replicated op is
// applied to the local copy, in sequence order. Nil detaches.
func (f *Follower) SetApplyTap(tap func(seq uint64, o op.Op)) {
	f.tapMu.Lock()
	f.applyTap = tap
	f.tapMu.Unlock()
}

// SetRestoreTap installs a callback invoked after a full snapshot restore
// replaced the local copy (incremental deltas no longer describe it). Nil
// detaches.
func (f *Follower) SetRestoreTap(fn func()) {
	f.tapMu.Lock()
	f.restoreTap = fn
	f.tapMu.Unlock()
}

// Applied reports the last op sequence applied to the local copy.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Head reports the primary's last announced committed head.
func (f *Follower) Head() uint64 { return f.head.Load() }

// Lag reports how many committed ops the local copy is behind the
// primary's last announced head.
func (f *Follower) Lag() uint64 {
	head, applied := f.head.Load(), f.applied.Load()
	if head <= applied {
		return 0
	}
	return head - applied
}

// Err reports the last stream failure, until the primary answers a fresh
// session (nil while everything is healthy) — the operational signal for
// a follower that keeps reconnecting.
func (f *Follower) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.lastErr
}

// Close stops following: it cancels a dial in progress and closes the
// connection that is live or being opened, then waits for the stream
// goroutine. The local backend keeps serving whatever state it reached.
func (f *Follower) Close() error {
	f.connMu.Lock()
	f.cancel()
	if f.conn != nil {
		f.conn.Close()
	}
	f.connMu.Unlock()
	f.wg.Wait()
	return nil
}
