package netserver

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/conf"
	"proxdisc/internal/op"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
)

// This file is the follower role: a process that keeps a local copy of a
// primary's management state by consuming its committed op stream over
// TCP, applying every record through the copy's single Apply door — the
// same door WAL recovery uses — and restoring from a shipped checkpoint
// when it reconnects too far behind. The copy is a cluster.Cluster of the
// primary's shard count, so the stream's move ops and the checkpoint's
// Move records put every landmark on the primary's shard. A NetServer
// configured with Role RoleReplica in front of the same cluster then serves
// reads from the copy and points writes at the primary: together they are
// the replica deployment, and the one way a shard's state is replicated.

// FollowerBackend is what a Follower calls on the copy it maintains: the
// op door and whole-state restore for snapshot catch-up. *cluster.Cluster
// implements it, and so does *server.Server.
type FollowerBackend interface {
	// Apply applies one committed op.
	Apply(o op.Op) error
	// ResetFromSnapshot replaces the entire local state with the
	// snapshot's.
	ResetFromSnapshot(r io.Reader) error
}

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Common holds the knobs shared with the other networked components
	// (conf.Common). Common.Telemetry, when set, receives the follower's
	// applied/head/lag gauges (proxdisc_follow_applied_seq,
	// proxdisc_follow_head_seq, proxdisc_follow_lag) and a reconnect
	// counter (proxdisc_follow_reconnects_total). Common.Logger receives
	// diagnostics; nil silences them. Common.Backoff is the initial pause
	// before redialling a dead stream (default 50ms, doubling per failure
	// up to 2s). The resumed session picks up exactly where the last one
	// stopped: catch-up runs from the acknowledged offset, via the
	// primary's WAL tail — or its latest snapshot when the tail has been
	// compacted away.
	conf.Common
	// PrimaryAddr is the primary node's TCP address.
	PrimaryAddr string
	// Backend is the local copy the stream is applied to.
	Backend FollowerBackend
	// After resumes the stream after an already-applied sequence (0 =
	// from scratch; the primary then typically ships snapshot + tail).
	After uint64
	// Timeout bounds the dial and each frame read (default 15s).
	Timeout time.Duration
}

// Follower maintains a local copy of a primary's state from its op
// stream, reconnecting (and catching up) across stream failures until
// closed. It implements op.Replicator and the replication-status surface
// a NetServer reports in MsgStatusResponse.
type Follower struct {
	cfg FollowerConfig

	applied atomic.Uint64
	head    atomic.Uint64

	errMu   sync.Mutex
	lastErr error

	sessMu sync.Mutex
	sess   *client.FollowSession

	// tapMu guards the optional observation hooks: a replica node's
	// subscription plane feeds from them.
	tapMu      sync.Mutex
	applyTap   func(seq uint64, o op.Op)
	restoreTap func()

	reconnects *telemetry.Counter

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// StartFollower dials the primary and starts consuming its op stream in
// the background. The first dial is synchronous, so a bad address or a
// primary without a durable log fails here rather than silently retrying.
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
	cfg.Logger = cfg.ResolveLogger()
	cfg.Backoff = cfg.ResolveBackoff(50 * time.Millisecond)
	f := &Follower{cfg: cfg, closed: make(chan struct{})}
	f.applied.Store(cfg.After)
	f.reconnects = cfg.Telemetry.Counter("proxdisc_follow_reconnects_total")
	cfg.Telemetry.GaugeFunc("proxdisc_follow_applied_seq", func() float64 { return float64(f.Applied()) })
	cfg.Telemetry.GaugeFunc("proxdisc_follow_head_seq", func() float64 { return float64(f.Head()) })
	cfg.Telemetry.GaugeFunc("proxdisc_follow_lag", func() float64 { return float64(f.Lag()) })
	sess, err := client.Follow(cfg.PrimaryAddr, f.sessionConfig())
	if err != nil {
		return nil, err
	}
	f.wg.Add(1)
	go f.run(sess)
	return f, nil
}

// sessionConfig builds the stream subscription resuming after everything
// already applied.
func (f *Follower) sessionConfig() client.FollowConfig {
	return client.FollowConfig{
		After:   f.applied.Load(),
		Timeout: f.cfg.Timeout,
		OnHead:  f.noteHead,
	}
}

// run consumes sessions until Close, redialling with bounded backoff.
func (f *Follower) run(sess *client.FollowSession) {
	defer f.wg.Done()
	backoff := f.cfg.Backoff
	for {
		if sess != nil {
			f.setSess(sess)
			err := sess.Run(f)
			sess.Close()
			f.setSess(nil)
			select {
			case <-f.closed:
				return
			default:
			}
			f.noteErr(err)
			f.cfg.Logger("netserver: follower stream to %s ended: %v (resuming after seq %d)",
				f.cfg.PrimaryAddr, err, f.applied.Load())
			backoff = f.cfg.Backoff // the session ran; start backoff afresh
			sess = nil
		}
		select {
		case <-f.closed:
			return
		case <-time.After(backoff):
		}
		var err error
		f.reconnects.Inc()
		sess, err = client.Follow(f.cfg.PrimaryAddr, f.sessionConfig())
		if err != nil {
			f.noteErr(err)
			f.cfg.Logger("netserver: follower redial %s: %v", f.cfg.PrimaryAddr, err)
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
	}
}

// setSess publishes the live session so Close can tear it down.
func (f *Follower) setSess(s *client.FollowSession) {
	f.sessMu.Lock()
	f.sess = s
	f.sessMu.Unlock()
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

// ReplicateOp implements op.Replicator: one committed op applied through
// the backend's single mutation door. An unknown-peer error is tolerated
// — commit order can differ from apply order for operations racing on the
// same peer, exactly as in WAL recovery — every other failure aborts the
// session loudly (the stream would silently diverge otherwise).
func (f *Follower) ReplicateOp(seq uint64, o op.Op) error {
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

// RestoreSnapshot implements client.FollowHandler: replace the local copy
// with the shipped snapshot covering seq.
func (f *Follower) RestoreSnapshot(seq uint64, r io.Reader) error {
	if err := f.cfg.Backend.ResetFromSnapshot(r); err != nil {
		return err
	}
	f.applied.Store(seq)
	f.noteHead(seq)
	f.tapMu.Lock()
	tap := f.restoreTap
	f.tapMu.Unlock()
	if tap != nil {
		tap()
	}
	return nil
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

// Err reports the last stream failure (nil while everything is healthy) —
// the operational signal for a follower that keeps reconnecting.
func (f *Follower) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.lastErr
}

// Close stops following. The local backend keeps serving whatever state
// it reached.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	f.sessMu.Lock()
	if f.sess != nil {
		f.sess.Close()
	}
	f.sessMu.Unlock()
	f.wg.Wait()
	return nil
}
