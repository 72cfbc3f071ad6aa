package cluster

import (
	"bytes"
	"fmt"
	"io"

	"proxdisc/internal/op"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// handoff is the in-flight transfer of one landmark between shards. Joins
// for the landmark wait on done and replay once the new owner is live.
type handoff struct {
	done chan struct{}
}

// moveStage names the observable points of a landmark handoff, in order.
// Tests install Cluster.moveHook to inject crashes (copy the data
// directory, open a second cluster from the copy) at each stage and assert
// that recovery lands on exactly one owner with zero lost peers.
type moveStage int

const (
	// moveStageSnapshot: the landmark's tree has been serialized from the
	// source; nothing has changed yet.
	moveStageSnapshot moveStage = iota
	// moveStageAbsorb: the destination has absorbed the tree — both shards
	// briefly hold it, with the source still the table owner.
	moveStageAbsorb
	// moveStageDrop: the source has dropped the tree; the table still
	// points at the source.
	moveStageDrop
	// moveStageFlip: the in-memory table and epoch have flipped to the
	// destination; the move op is not yet in the write-ahead log.
	moveStageFlip
	// moveStageCommit: the move op is durably logged; the handoff is
	// complete from recovery's point of view.
	moveStageCommit
)

// hook invokes the test-only move observer, if installed.
func (c *Cluster) hook(s moveStage) {
	if c.moveHook != nil {
		c.moveHook(s)
	}
}

// MoveLandmark transfers ownership of landmark lm (and every peer
// registered under it) to shard dst without dropping joins:
//
//  1. the landmark is flagged as moving, so new joins for it buffer;
//  2. the source and destination shards' operation gates are taken in
//     write mode (ascending shard order), draining in-flight mutations on
//     those two shards and excluding membership changes for the duration
//     of the copy — every OTHER shard keeps serving writes throughout;
//  3. the landmark's tree is serialized with the server snapshot machinery,
//     absorbed by the destination shard, and dropped from the source;
//  4. the assignment table flips, the landmark's fencing epoch increments,
//     and a KindMoveLandmark op is committed to the write-ahead log (and
//     the replication/op stream), so a restarted node re-derives the new
//     ownership instead of silently reverting to the configured table;
//  5. the buffered joins replay against the new owner and the peer index
//     follows the moved records.
//
// Because the copy excludes membership changes, no registered peer is lost
// and no Leave, Refresh, or SetSuperPeer update can fall between the
// snapshot and the drop. The narrow window between the copy and the index
// update is reconciled: a record the destination absorbed is retired if
// the peer meanwhile left or re-registered elsewhere.
//
// The epoch increment fences the deposed owner: a shard-routed write
// carrying the pre-move epoch is rejected with server.ErrStaleEpoch
// instead of silently landing on a tree that no longer answers queries.
//
// Handoffs are serialized; moving a landmark to its current owner is a
// no-op.
func (c *Cluster) MoveLandmark(lm topology.NodeID, dst int) error {
	if dst < 0 || dst >= len(c.shards) {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", dst, len(c.shards))
	}
	c.hoMu.Lock()
	defer c.hoMu.Unlock()

	c.mu.Lock()
	src, ok := c.table[lm]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown landmark %d", lm)
	}
	if src == dst {
		c.mu.Unlock()
		return nil
	}
	newEpoch := c.epochs[lm] + 1
	ho := &handoff{done: make(chan struct{})}
	c.moving[lm] = ho
	c.mu.Unlock()

	// From here the moving flag must always be cleared, or buffered joins
	// would wait forever.
	finish := func() {
		c.mu.Lock()
		delete(c.moving, lm)
		c.mu.Unlock()
		close(ho.done)
	}

	// Drain and freeze the two shards the move touches: in-flight
	// mutations hold the shard's gate in read mode, so the write locks
	// both wait them out and keep new membership changes away from the
	// source and destination while the tree is in flight. Gates are taken
	// in ascending shard order (the cluster-wide multi-lock order) and
	// released before touching c.mu (the table) — Join acquires mu then a
	// gate, so holding a gate across a mu acquisition would invert that
	// order.
	lo, hi := src, dst
	if lo > hi {
		lo, hi = hi, lo
	}
	c.shards[lo].opMu.Lock()
	c.shards[hi].opMu.Lock()
	unlock := func() {
		c.shards[hi].opMu.Unlock()
		c.shards[lo].opMu.Unlock()
	}
	var buf bytes.Buffer
	if err := c.shards[src].srv.SnapshotLandmarks(&buf, lm); err != nil {
		unlock()
		finish()
		return fmt.Errorf("cluster: handoff snapshot: %w", err)
	}
	c.hook(moveStageSnapshot)
	moved, err := c.shards[dst].srv.Absorb(&buf)
	if err != nil {
		unlock()
		finish()
		return fmt.Errorf("cluster: handoff absorb: %w", err)
	}
	c.hook(moveStageAbsorb)
	// Apply the move op to the destination shard: it raises the
	// destination's landmark epoch, and (once committed below) rides the
	// follower op stream, so every copy of the new owner fences at the
	// post-move epoch.
	mv := op.MoveLandmark(lm, src, dst, newEpoch)
	if _, err := c.shards[dst].applyOp(mv, true); err != nil {
		unlock()
		finish()
		return fmt.Errorf("cluster: handoff epoch apply: %w", err)
	}
	c.shards[src].srv.DropLandmark(lm)
	c.hook(moveStageDrop)
	unlock()

	c.mu.Lock()
	c.table[lm] = dst
	c.epochs[lm] = newEpoch
	c.mu.Unlock()
	c.hook(moveStageFlip)

	// Durably log the completed move. Everything before this line is
	// in-memory only, so a crash anywhere earlier recovers the pre-move
	// ownership from the last checkpoint plus WAL; a crash after it
	// recovers the post-move ownership by replaying this op.
	if err := c.commit(mv); err != nil {
		finish()
		return fmt.Errorf("cluster: handoff commit: %w", err)
	}
	c.hook(moveStageCommit)

	c.met.handoffs.Inc()
	for _, p := range moved {
		if c.idx.compareAndSwap(p, src, dst) {
			continue
		}
		// The peer left or re-registered elsewhere in the brief window
		// after the copy; the absorbed record is stale unless the re-join
		// itself landed on the destination (then the live record, under
		// its new landmark, wins and must not be touched).
		c.shards[dst].reconcileMoved(p, lm, c.idx, dst)
	}
	finish()
	return nil
}

// Snapshot serializes the whole cluster's durable state as one standard
// server snapshot (restorable by server.Restore or absorbable by any
// shard), byte-identical to the one a single server holding the same state
// would write. It is consistent with respect to handoffs.
func (c *Cluster) Snapshot(w io.Writer) error {
	c.hoMu.Lock()
	defer c.hoMu.Unlock()
	return c.snapshotLocked(w, false)
}

// snapshotLocked writes every shard's state as one snapshot; the caller
// holds hoMu. placed selects the checkpoint form, whose Move records name
// the owning shards (see writeCheckpoint).
func (c *Cluster) snapshotLocked(w io.Writer, placed bool) error {
	srvs := make([]*server.Server, len(c.shards))
	for i, g := range c.shards {
		srvs[i] = g.srv
	}
	return server.WriteSnapshot(w, placed, srvs...)
}

// replayMove re-applies a recovered KindMoveLandmark op: the recovery-path
// twin of MoveLandmark. Replay is single-threaded (the cluster is not yet
// serving), so no gates or buffering are needed — the tree copy, table
// flip, epoch raise, and index repoint happen back to back. A checkpoint's
// Move records (Src = Dst = owner) arrive here too, ahead of any join: the
// destination is all that is read, so they place each still-empty tree on
// its recorded owner, or only raise its epoch when it is already there.
func (c *Cluster) replayMove(o op.Op) error {
	lm, dst := o.Move.Landmark, o.Move.Dst
	if dst < 0 || dst >= len(c.shards) {
		return fmt.Errorf("cluster: recovered move of landmark %d to shard %d of %d", lm, dst, len(c.shards))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.table[lm]
	if !ok {
		return fmt.Errorf("cluster: recovered move of unknown landmark %d", lm)
	}
	mv := op.MoveLandmark(lm, src, dst, o.Move.Epoch)
	if src == dst {
		// The landmark is already where the op puts it (a checkpoint
		// record, or a logged move the checkpoint already reflected); only
		// the epoch may lag.
		if _, err := c.shards[dst].applyOp(mv, true); err != nil {
			return fmt.Errorf("cluster: recovered move epoch apply: %w", err)
		}
	} else {
		var buf bytes.Buffer
		if err := c.shards[src].srv.SnapshotLandmarks(&buf, lm); err != nil {
			return fmt.Errorf("cluster: recovered move snapshot: %w", err)
		}
		moved, err := c.shards[dst].srv.Absorb(&buf)
		if err != nil {
			return fmt.Errorf("cluster: recovered move absorb: %w", err)
		}
		if _, err := c.shards[dst].applyOp(mv, true); err != nil {
			return fmt.Errorf("cluster: recovered move epoch apply: %w", err)
		}
		c.shards[src].srv.DropLandmark(lm)
		c.table[lm] = dst
		for _, p := range moved {
			c.idx.swap(p, dst)
		}
	}
	if o.Move.Epoch > c.epochs[lm] {
		c.epochs[lm] = o.Move.Epoch
	}
	return nil
}
