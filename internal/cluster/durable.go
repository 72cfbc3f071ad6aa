package cluster

import (
	"errors"
	"fmt"
	"io"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/wal"
)

// Snapshot serializes the whole cluster's durable state as one standard
// server snapshot (restorable by ResetFromSnapshot), byte-identical to the
// one a single server holding the same state would write: it is the
// checkpoint file, the catch-up image a primary ships, and the form copies
// are compared by. It names no owner — the table is New's. The trees are
// walked one at a time, each under its shard's writer mutex, into a buffer
// that holds that tree alone, which is written out with no lock held, so
// writes go on while a checkpoint reaches the disk (server.WriteSnapshot).
// One adoptMu hold covers the whole snapshot, so no restore lands between
// two trees' walks.
func (c *Cluster) Snapshot(w io.Writer) error {
	c.adoptMu.Lock()
	defer c.adoptMu.Unlock()
	return server.WriteSnapshot(w, c.servers()...)
}

// servers lists the shards' servers, in shard order.
func (c *Cluster) servers() []*server.Server {
	srvs := make([]*server.Server, len(c.shards))
	for i, g := range c.shards {
		srvs[i] = g.srv
	}
	return srvs
}

// defaultSnapshotEvery is the op-count fallback between automatic
// checkpoints; defaultSnapshotBytes is the adaptive byte trigger
// (accumulated WAL record bytes since the last checkpoint).
const (
	defaultSnapshotEvery = 8192
	defaultSnapshotBytes = 4 << 20
)

// Durable reports whether the node persists its writes (Config.DataDir).
func (c *Cluster) Durable() bool { return c.log != nil }

// openDurable opens the data directory, rebuilds the shards from the
// latest checkpoint plus the write-ahead log tail, and arms the background
// checkpointer. Called by New before the cluster is visible to anyone.
//
// The checkpoint is read before the log is opened and must be good to its
// end frame: a truncated or corrupt file, one in the op-stream or gob
// format that preceded tree sections, or one that names a landmark this
// configuration lacks fails the open with nothing on disk touched. Each
// shard's builder loads the checkpoint's sections of its landmarks (restore,
// the step ResetFromSnapshot takes too); then one shardLoader reads the
// tail: batch joins of peers the index does not hold apply shard-parallel,
// every other record serially between them. When either pass cannot vouch
// for its state — a peer in two sections, or named twice among the
// appliers' entries — the state is discarded (the shards' counters keep
// what it counted) and the whole open goes through the serial road, which
// is the reference the parallel one must equal: loadCheckpoint, then the
// tail record by record. The log reads its records from the files, so the
// tail can be replayed twice.
func (c *Cluster) openDurable() error {
	snap, snapSeq, hasSnap, err := wal.OpenLatestSnapshot(c.cfg.DataDir)
	if err != nil {
		return err
	}
	var ckpt io.ReadSeeker // nil when there is no checkpoint
	if hasSnap {
		defer snap.Close()
		ckpt = snap
	}
	l := &shardLoader{c: c}
	defer l.stop()
	exact := !c.cfg.serialLoad // the parallel pass vouches for the state so far
	if ckpt != nil {
		loadStart := time.Now()
		if exact, err = c.restore(l, ckpt); err != nil {
			return fmt.Errorf("cluster: checkpoint %d: %w", snapSeq, err)
		}
		c.loadNanos.Store(int64(time.Since(loadStart)))
		c.lastSnapSeq.Store(snapSeq)
	}
	// One WAL stream for every shard: commits share fsyncs through its group
	// commit. A data directory still holding a segment of an older log
	// format — one stream per shard, or the bare single-stream segments
	// before that — is refused, untouched.
	log, err := wal.OpenSharded(c.cfg.DataDir, 1, wal.Options{
		NoSync:       c.cfg.NoSync,
		MaxSyncDelay: c.cfg.MaxSyncDelay,
		SegmentBytes: c.cfg.SegmentBytes,
		Telemetry:    c.cfg.Telemetry,
	})
	if err != nil {
		return err
	}
	// The log can never fall behind its snapshot's sequence (possible only
	// when segment files were removed out from under it).
	if err := log.EnsureSeq(snapSeq); err != nil {
		log.Close()
		return err
	}
	// On a fallback from the tail, the replay time covers the checkpoint's
	// serial reload too.
	replayStart := time.Now()
	if exact {
		if exact, err = l.replay(log, snapSeq); err == nil && !exact {
			err = c.reload(ckpt)
		}
	}
	if err == nil && !exact {
		err = replayTail(log, snapSeq, func(o *op.Op) error {
			c.serialRecords.Add(1)
			return c.applyRecovered(*o)
		})
	}
	if err != nil {
		log.Close()
		return err
	}
	c.replayNanos.Store(int64(time.Since(replayStart)))
	c.log = log
	if c.cfg.SnapshotEvery <= 0 {
		c.cfg.SnapshotEvery = defaultSnapshotEvery
	}
	if c.cfg.SnapshotBytes == 0 {
		c.cfg.SnapshotBytes = defaultSnapshotBytes
	}
	c.snapCh = make(chan struct{}, 1)
	c.snapStop = make(chan struct{})
	c.snapWG.Add(1)
	go c.checkpointLoop()
	return nil
}

// replayTail decodes the log's records past after, in order, and hands each
// to apply. The op is reused between calls: apply must copy what it keeps,
// or take the slices outright.
func replayTail(log *wal.Sharded, after uint64, apply func(o *op.Op) error) error {
	var o op.Op
	return log.Replay(after, func(seq uint64, rec []byte) error {
		if err := op.DecodeInto(&o, rec); err != nil {
			return fmt.Errorf("cluster: wal record %d: %w", seq, err)
		}
		if err := apply(&o); err != nil {
			return fmt.Errorf("cluster: replay record %d: %w", seq, err)
		}
		return nil
	})
}

// restore loads a checkpoint, good to its end frame, into c, which holds no
// state yet: the first step of a durable open and ResetFromSnapshot's
// loader. The shard-parallel pass builds each shard's trees on a goroutine
// of its own and tells l every peer it loads, so the tail's pass knows them;
// when the pass cannot vouch for its state, or Config.serialLoad asks for
// the reference road, reload reads the checkpoint again from its start
// through the serial road. exact reports whether the parallel pass vouched
// for the state, which a log tail read through l may then extend.
func (c *Cluster) restore(l *shardLoader, ckpt io.ReadSeeker) (exact bool, err error) {
	if exact = !c.cfg.serialLoad; exact {
		exact, err = server.LoadSnapshot(ckpt, c.servers(), c.shardOf, true, l.named.addShared())
	}
	if err == nil && !exact {
		err = c.reload(ckpt)
	}
	return exact, err
}

// reload discards the state a parallel pass built — the shards' counters
// keep what it counted — and loads the checkpoint, if there is one, again
// from its start through the serial road.
func (c *Cluster) reload(ckpt io.ReadSeeker) error {
	empty, err := New(c.sideConfig())
	if err != nil {
		return err
	}
	c.adopt(empty)
	for _, g := range c.shards {
		g.srv.TakeOrphans() // records of the discarded state
	}
	if ckpt == nil {
		return nil
	}
	if _, err := ckpt.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return c.loadCheckpoint(ckpt)
}

// loadCheckpoint builds the shards' trees from a checkpoint, good to its end
// frame, one section after another (server.LoadSnapshot without its
// parallel pass): the serial road, the reference the shard-parallel pass is
// held to, and its fallback. Every landmark the checkpoint holds must be one
// the cluster serves, and stays on the shard New dealt it.
func (c *Cluster) loadCheckpoint(r io.ReadSeeker) error {
	_, err := server.LoadSnapshot(r, c.servers(), c.shardOf, false, nil)
	return err
}

// applyRecovered replays one record of the log's tail through the normal
// routing, silently (no answers, no re-logging). A leave, refresh, or
// super-flag whose peer is gone is tolerated: a write takes its log sequence
// after it applies, so two writes racing on one peer can log in the opposite
// order to the one they applied in, and recovery then holds the logged
// order, not the one the live node answered from. That is outside what
// recovery guarantees, which is the exact state only while each peer has one
// writer at a time (ROADMAP item 16); under that, a record naming a gone
// peer is one whose peer a checkpoint walked past its mark had already
// dropped.
func (c *Cluster) applyRecovered(o op.Op) error {
	if err := c.applyRouted(o); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
		return err
	}
	return nil
}

// ResetFromSnapshot replaces the cluster's whole state — trees and peer
// index — with a checkpoint's: a follower's catch-up restore. The checkpoint
// is loaded into a cluster built off to the side by the durable open's own
// step (restore: the shard-parallel pass, and the serial road when the pass
// cannot vouch for its state, which reads r a second time), and published
// (adopt) only once all of it, end frame included, has applied; a bad one
// leaves the previous state. A durable cluster refuses: its log would no
// longer describe it.
func (c *Cluster) ResetFromSnapshot(r io.ReadSeeker) error {
	if c.log != nil {
		return errors.New("cluster: ResetFromSnapshot on a durable cluster")
	}
	fresh, err := New(c.sideConfig())
	if err != nil {
		return err
	}
	l := &shardLoader{c: fresh}
	_, err = fresh.restore(l, r)
	l.stop()
	if err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	c.adopt(fresh)
	return nil
}

// sideConfig configures a cluster built off to the side of c, for c to
// adopt: it registers no series over c's and keeps no log; only its shards'
// states are kept.
func (c *Cluster) sideConfig() Config {
	cfg := c.cfg
	cfg.Telemetry, cfg.DataDir = nil, ""
	return cfg
}

// adopt publishes fresh's state — trees and peer index — as c's, in one
// critical section under every lock a write or a lookup takes
// (server.Adopt takes every server's), so each sees the old state or the
// new, never a mix. fresh was built from c's config, so its table is c's.
// fresh must not be used afterwards.
func (c *Cluster) adopt(fresh *Cluster) {
	c.adoptMu.Lock()
	defer c.adoptMu.Unlock()
	dst, src := make([]*server.Server, len(c.shards)), make([]*server.Server, len(c.shards))
	for i, g := range c.shards {
		dst[i], src[i] = g.srv, fresh.shards[i].srv
	}
	server.Adopt(dst, src)
	c.idx.Store(fresh.idx.Load())
}

// commit makes one applied op durable: it is encoded with the canonical
// op codec and appended to the write-ahead log, returning once the record
// is on disk (group commit batches concurrent writers into shared
// fsyncs). Batches wider than the codec's cap are split. Non-durable
// nodes commit for free.
func (c *Cluster) commit(o op.Op) error {
	if c.log == nil {
		return nil
	}
	// Encode into the frame buffer pool's buffers: the WAL copies each
	// record into its own write buffer and hands it to the commit tap,
	// which must not retain it, before Append returns, so every buffer
	// recycles as soon as Append comes back — the encode side of a
	// committed op is allocation-free in steady state. The one-record common case keeps
	// the record slice itself on the stack too.
	var recsArr [1][]byte
	recs := recsArr[:0]
	if o.Kind == op.KindBatchJoin && len(o.Batch) > op.MaxBatch {
		for start := 0; start < len(o.Batch); start += op.MaxBatch {
			end := min(start+op.MaxBatch, len(o.Batch))
			rec, err := op.Append(proto.GetBuf(0), op.BatchJoin(o.Batch[start:end], o.Time))
			if err != nil {
				for _, r := range recs {
					proto.PutBuf(r)
				}
				return fmt.Errorf("cluster: encode op: %w", err)
			}
			recs = append(recs, rec)
		}
	} else {
		rec, err := op.Append(proto.GetBuf(0), o)
		if err != nil {
			return fmt.Errorf("cluster: encode op: %w", err)
		}
		recs = append(recs, rec)
	}
	var nbytes int64
	for _, rec := range recs {
		nbytes += int64(len(rec))
	}
	_, err := c.log.Append(0, recs...)
	for _, rec := range recs {
		proto.PutBuf(rec)
	}
	if err != nil {
		return fmt.Errorf("cluster: wal append: %w", err)
	}
	// Two checkpoint triggers, byte-based first (it tracks the actual
	// recovery-replay cost) with the op count as the fallback for
	// workloads of tiny records; whichever fires resets its own counter
	// and nudges the checkpointer.
	trigger := false
	if b := c.bytesSinceSnap.Add(nbytes); c.cfg.SnapshotBytes > 0 && b >= c.cfg.SnapshotBytes &&
		c.bytesSinceSnap.CompareAndSwap(b, 0) {
		trigger = true
	}
	if m := c.opsSinceSnap.Add(int64(len(recs))); m >= int64(c.cfg.SnapshotEvery) &&
		c.opsSinceSnap.CompareAndSwap(m, 0) {
		trigger = true
	}
	if trigger {
		select {
		case c.snapCh <- struct{}{}:
		default: // a checkpoint is already pending
		}
	}
	return nil
}

// noteDurableErr records a durability failure that could not be returned
// to its caller (a background checkpoint, an Expire sweep's commit); Close
// surfaces the last one.
func (c *Cluster) noteDurableErr(err error) {
	c.snapErrMu.Lock()
	c.snapErr = err
	c.snapErrMu.Unlock()
}

// checkpointLoop runs automatic checkpoints off the write path.
func (c *Cluster) checkpointLoop() {
	defer c.snapWG.Done()
	for {
		select {
		case <-c.snapCh:
			if err := c.Checkpoint(); err != nil {
				c.noteDurableErr(err)
			}
		case <-c.snapStop:
			return
		}
	}
}

// Checkpoint writes a point-in-time snapshot of the whole cluster to the
// data directory, retires older snapshots, and truncates the write-ahead
// log below the new snapshot's sequence. The sequence is captured before
// the state is serialized, so the snapshot covers at least every logged
// op up to it; writes that land during serialization may additionally be
// included, and replaying the tail over them converges because every op
// is a deterministic, timestamp-carrying overwrite.
func (c *Cluster) Checkpoint() error {
	if c.log == nil {
		return errors.New("cluster: Checkpoint on a non-durable cluster (no DataDir)")
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	start := time.Now()
	defer func() { c.met.checkpoints.Observe(time.Since(start)) }()
	seq := c.log.LastSeq()
	if err := wal.WriteSnapshot(c.cfg.DataDir, seq, c.Snapshot); err != nil {
		return fmt.Errorf("cluster: checkpoint: %w", err)
	}
	c.lastSnapSeq.Store(seq)
	c.opsSinceSnap.Store(0)
	c.bytesSinceSnap.Store(0)
	if err := wal.RemoveSnapshotsBefore(c.cfg.DataDir, seq); err != nil {
		return err
	}
	return c.log.TruncateBefore(seq + 1)
}

// errNotDurable rejects replication-stream operations on a cluster with
// no write-ahead log to serve them from.
var errNotDurable = errors.New("cluster: not durable (no DataDir): no op log to serve followers from")

// SetCommitTap installs tap as the observer of the committed op stream:
// it is called for every WAL record once the record is durable — by the
// group commit's sync leader, before the write that logged it returns —
// in contiguous sequence order, with the record's canonical op encoding
// (which the tap must not retain). So no follower or subscriber fed by it
// can see an op a crash of this node would lose. The returned head is the
// last sequence sent to the previous tap, read under the lock that sends
// to it: every record above it reaches the tap, and those at or below it are
// the tap's blind spot, served by ReadCommitted instead. ok is false on a
// non-durable cluster, which has no committed stream. A nil tap
// uninstalls; once SetCommitTap returns, the old tap is not called again.
func (c *Cluster) SetCommitTap(tap func(seq uint64, rec []byte)) (head uint64, ok bool) {
	if c.log == nil {
		return 0, false
	}
	return c.log.SetOnAppend(tap), true
}

// ReadCommitted streams durable records with sequence strictly greater
// than after, up to the committed head as it stands when the call starts,
// out of the write-ahead log — the follower catch-up read. It is safe
// concurrently with writes; a concurrent checkpoint's truncation surfaces
// as an error, and the caller restarts from CatchupSnapshot.
func (c *Cluster) ReadCommitted(after uint64, fn func(seq uint64, rec []byte) error) error {
	if c.log == nil {
		return errNotDurable
	}
	return c.log.ReadAfter(after, fn)
}

// CommittedFloor reports the earliest sequence ReadCommitted can still
// serve; a follower whose ack is below it must catch up from a snapshot.
func (c *Cluster) CommittedFloor() (uint64, error) {
	if c.log == nil {
		return 0, errNotDurable
	}
	return c.log.FirstSeq()
}

// CommittedHead reports the last committed sequence: the WAL's durable
// mark, at or below which every record is on stable storage. Every write
// that has returned is at or below it.
func (c *Cluster) CommittedHead() uint64 {
	if c.log == nil {
		return 0
	}
	return c.log.LastSeq()
}

// CatchupSnapshot opens the latest on-disk checkpoint and the sequence it
// covers, writing a fresh one first if none exists yet — the bulk half of
// follower catch-up when the WAL no longer retains the follower's tail.
// The file ships as it is: it names no shard, so a follower over the same
// landmarks loads it whatever its shard count.
func (c *Cluster) CatchupSnapshot() (io.ReadCloser, uint64, error) {
	if c.log == nil {
		return nil, 0, errNotDurable
	}
	r, seq, ok, err := wal.OpenLatestSnapshot(c.cfg.DataDir)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		if err := c.Checkpoint(); err != nil {
			return nil, 0, err
		}
		if r, seq, ok, err = wal.OpenLatestSnapshot(c.cfg.DataDir); err != nil {
			return nil, 0, err
		} else if !ok {
			return nil, 0, errors.New("cluster: checkpoint left no snapshot on disk")
		}
	}
	return r, seq, nil
}

// DurabilityStats reports the durable node's operational surface: last
// snapshot sequence, WAL tail length, recovery load and replay times, and
// the group-commit counters. Zero on a non-durable cluster.
func (c *Cluster) DurabilityStats() wal.DurabilityStats {
	if c.log == nil {
		return wal.DurabilityStats{}
	}
	head := c.log.LastSeq()
	snap := c.lastSnapSeq.Load()
	return wal.DurabilityStats{
		SnapshotSeq:   snap,
		TailRecords:   head - snap,
		Head:          head,
		LoadTime:      time.Duration(c.loadNanos.Load()),
		ReplayTime:    time.Duration(c.replayNanos.Load()),
		SerialRecords: uint64(c.serialRecords.Load()),
		Log:           c.log.Metrics(),
	}
}

// Close makes the node's shutdown clean: it stops the background
// checkpointer, flushes a final snapshot (so the next Open replays an empty
// tail), and closes the write-ahead log. Writes after Close fail. On a
// non-durable cluster it does nothing. It also surfaces the last background
// checkpoint failure, if any.
func (c *Cluster) Close() error {
	if c.log == nil {
		return nil
	}
	var err error
	c.closeOnce.Do(func() {
		close(c.snapStop)
		c.snapWG.Wait()
		err = c.Checkpoint()
		if cerr := c.log.Close(); err == nil {
			err = cerr
		}
		c.snapErrMu.Lock()
		if err == nil {
			err = c.snapErr
		}
		c.snapErrMu.Unlock()
	})
	return err
}
