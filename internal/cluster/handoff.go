package cluster

import (
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
	// moveStageHandoff: the tree is on the destination server; the table
	// still points at the source, and requests for the landmark wait.
	moveStageHandoff moveStage = iota
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
//  1. the landmark is flagged as moving, so requests for it — joins by
//     their path, everything else by the landmark the peer's index entry
//     names — wait;
//  2. the tree changes hands: server.Handoff takes the source's and the
//     destination's writer mutexes, so the writes in flight on either
//     finish first, detaches the landmark's pathtree.Core from the source
//     server and attaches it, with the new fencing epoch, to the
//     destination. No record is copied and no index entry is touched — an
//     entry names (landmark, slot), which is as true on the new owner as
//     on the old — so the move costs the same whatever the landmark holds;
//     the two servers' writes to their other landmarks wait for that
//     instant only, and every other shard's not at all;
//  3. the assignment table flips, the landmark's fencing epoch increments,
//     and a KindMoveLandmark op is committed to the write-ahead log (and
//     the replication/op stream), so a restarted node re-derives the new
//     ownership instead of silently reverting to the configured table;
//  4. the flag is cleared and the waiting requests resolve the new owner.
//
// Nothing pins a landmark's owner between a request's routing and its
// apply. A write that routed to the source before step 1 either applies
// there before step 2, and its record moves with the tree, or finds the
// tree gone — the server answers ErrUnknownLandmark or ErrUnknownPeer —
// and routes again, waiting out the flag: it applies once, on the
// destination, so no registered peer is lost and no Leave, Refresh, or
// SetSuperPeer update falls between the servers. A lookup does the same.
//
// The epoch increment fences the deposed owner: a shard-routed write
// carrying the pre-move epoch is rejected with server.ErrStaleEpoch
// instead of silently landing on a tree that no longer answers queries.
//
// Handoffs are serialized; moving a landmark to its current owner is a
// no-op.
func (c *Cluster) MoveLandmark(lm topology.NodeID, dst int) error {
	return c.move(op.MoveEntry{Landmark: lm, Dst: dst}, true)
}

// move is the one road by which a landmark changes shards: MoveLandmark's,
// and that of a recorded move op, which a follower applies from its
// primary's stream and recovery replays from a checkpoint or the log. A live
// move takes the landmark's next epoch and is logged before the requests
// waiting on the landmark resolve its new owner; a recorded one carries its
// epoch, and its caller logs it or not. A recorded move that puts the
// landmark where it already is — a checkpoint's Move record (Src = Dst =
// owner), or a logged move the checkpoint already reflected — only raises
// the epoch, if it lags. Either way the shard's epoch and the table's stay
// one number.
func (c *Cluster) move(m op.MoveEntry, live bool) error {
	lm, dst := m.Landmark, m.Dst
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
	epoch := max(m.Epoch, c.epochs[lm]) // a recorded move never lowers the epoch
	switch {
	case src == dst && live:
		c.mu.Unlock()
		return nil
	case src == dst:
		defer c.mu.Unlock()
		if _, err := c.shards[dst].applyOp(op.Op{Kind: op.KindMoveLandmark, Move: m}, true); err != nil {
			return fmt.Errorf("cluster: move epoch apply: %w", err)
		}
		c.epochs[lm] = epoch
		return nil
	case live:
		epoch = c.epochs[lm] + 1
	}
	ho := &handoff{done: make(chan struct{})}
	c.moving[lm] = ho
	c.mu.Unlock()

	// From here the moving flag must always be cleared, or the requests
	// waiting on it would wait forever.
	finish := func() {
		c.mu.Lock()
		delete(c.moving, lm)
		c.mu.Unlock()
		close(ho.done)
	}

	// The handoff holds both servers' writer mutexes, which hoMu makes
	// safe (see the package comment), and no cluster lock: a write that
	// routed to the source before the flag went up applies before it, or
	// finds the tree gone and routes again.
	if err := server.Handoff(c.shards[src].srv, c.shards[dst].srv, lm, epoch); err != nil {
		finish()
		return fmt.Errorf("cluster: handoff: %w", err)
	}
	c.hook(moveStageHandoff)

	c.mu.Lock()
	c.table[lm] = dst
	c.epochs[lm] = epoch
	c.mu.Unlock()
	c.hook(moveStageFlip)

	// Durably log a live move. Everything before this line is in-memory
	// only, so a crash anywhere earlier recovers the pre-move ownership from
	// the last checkpoint plus WAL; a crash after it recovers the post-move
	// ownership by replaying this op.
	if live {
		if err := c.commit(op.MoveLandmark(lm, src, dst, epoch)); err != nil {
			finish()
			return fmt.Errorf("cluster: handoff commit: %w", err)
		}
		c.hook(moveStageCommit)
	}
	c.met.handoffs.Inc()
	finish()
	return nil
}

// Snapshot serializes the whole cluster's durable state as one standard
// server snapshot (restorable by ResetFromSnapshot), byte-identical to the one
// a single server holding the same state would write. It is consistent
// with respect to handoffs.
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
