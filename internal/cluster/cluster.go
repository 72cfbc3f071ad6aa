// Package cluster shards the management server by landmark.
//
// The paper's management server keeps one prefix tree per landmark, and no
// operation ever relates two trees — every join and every closest-peers
// query touches exactly one landmark's tree. The state therefore partitions
// cleanly: a Cluster runs N server.Server shards, each owning a subset of
// the landmarks, and routes every request itself:
//
//   - it maps a join to the shard owning its path's landmark via an
//     assignment table, dealt round-robin by New and never changed after;
//   - it routes peer-keyed requests (Lookup, Leave, Refresh) through the
//     node's one peer index, which the shards' servers share and maintain
//     (server.Index): an entry names the peer's landmark, the table that
//     landmark's owner; and
//   - it answers operations that span landmarks (Peers, Expire) with a
//     scatter-gather fan-out, one goroutine per shard.
//
// Because shards never share tree state, a Cluster returns byte-identical
// candidate sets to a single server.Server over the same peer population —
// sharding changes capacity, not answers.
//
// A shard is one server.Server; the cluster keeps no second copy of it, and
// no per-peer state of its own. Copies live in other processes, fed by the
// committed op stream (netserver.StartFollower): each is a Cluster over the
// primary's landmarks, of any shard count, since no record names a shard,
// and it applies the stream (Apply) as recovery replays a log and catch-up
// checkpoints (ResetFromSnapshot) as a durable open loads its own.
//
// # A static landmark table
//
// New deals the landmarks, in ascending ID order, round-robin over the
// shards, and the table never changes after: every operation touches one
// landmark's tree, so a fixed deal is all that sharding needs, and routing
// a request is a read of the table with no lock. Builds that moved
// landmarks between shards logged each move; such a log still replays, and
// no checkpoint names a shard: whatever servers wrote one, every landmark
// it holds lands on the shard this table deals it, with every peer it holds
// (TestCheckpointNamingOtherOwnersLoads).
//
// # Durability and recovery
//
// Config.DataDir makes a node durable: every write is one op (package op),
// applied to the owning shard and appended to the node's one write-ahead
// log (package wal) before the call returns. A batched join commits as
// exactly one log record, which fits one frame of the follower stream
// (TestBatchJoinOneRecordOneFrame). The state is checkpointed to the same
// directory in the background (Config.SnapshotBytes, with SnapshotEvery as
// the op-count fallback) and again on Close, after which the log is
// truncated at the checkpoint boundary, so the disk footprint is bounded by
// the checkpoint cadence. Config.MaxSyncDelay shapes the group commit, and
// DurabilityStats has its counters. Expiry sweeps are logged as a single
// deadline-carrying op, not as per-peer leaves, so logs stay compact and
// every copy re-derives the identical expiry set.
//
// A checkpoint is a snapshot (package server, snapshot.go): not ops but the
// trees themselves, a header of the held landmarks and then one section per
// landmark, ascending, each the tree's nodes depth-first with the peers
// attached at each node after it (package pathtree, section.go), the whole
// framed and closed by an end frame that carries the total nodes and peers
// (package op, stream.go). It is written tree by tree, each encoded under
// its shard's writer mutex into a buffer that holds that tree alone and
// written out with no lock held.
//
// New on a populated directory recovers before returning. One goroutine per
// shard builds its trees straight from their sections — no path is
// descended, no endpoint parsed, the peer index reserved once for the end
// frame's total — while the calling goroutine reads the file; then one pass
// reads the log tail with one applier per shard, each taking its shard's
// entries of batch joins of new peers in log order through the normal apply
// path; every other record — a move record, a flag, a leave or refresh, a
// re-homing join, a single-join record of an older log, an expiry sweep —
// waits for the appliers to drain and applies serially between them. When
// each peer has one writer at a time, a restarted node serves the exact
// peer set (and, for joins that arrived over the wire, the exact overlay
// addresses) it acknowledged before the crash (TestCrashRecoveryExactState,
// TestCheckpointUnderWriters, TestParallelTailMatchesSerialTail), and a
// node killed with writers on every shard recovers what an uninterrupted
// run holds (TestShardedWALKillDashNineRecovery). Two writers racing on one
// peer can log in the opposite order to the one they applied in, and
// recovery then holds the logged order.
//
// A checkpoint can name one peer in two sections: it walks one tree at a
// time while the others take writes, so a peer re-homed between two trees'
// walks is written under both. The builders count the peers they register;
// a count short of the end frame's total means the pass cannot vouch for
// its state, and the whole open goes again through the serial road, which
// builds the sections one after another and keeps the record with the
// later refresh time (the later section's on a tie), retiring the other;
// the log tail settles the rest (TestParallelLoadRepeatedPeerFallsBack,
// TestResetFromDuplicateNamingSnapshot; TestCheckpointUnderWriters crashes
// a node checkpointing beside writers and expiry sweeps, and logs how many
// of its recoveries fell back). The tail's pass counts the same way at every
// serial record and at the end. The load checks structure, not paths: a
// section deeper than the trie's one-byte depth, with a router repeated on
// a path from the landmark or anonymous, siblings out of order, counts other
// than the header's, or a peer repeated within it fails the open before
// anything is published (TestRefusedLoadLeavesNoApplier), and so does a
// section of a landmark the node does not serve. The log's tail can only be
// torn, and recovered state is a prefix of the committed order (package
// wal); a checkpoint, which is only ever renamed into place whole, gets no
// such tolerance — one that is truncated, fails a CRC, or is in the
// op-stream format or the gob format that preceded tree sections (no reader
// is kept for either; TestOpStreamCheckpointRefused) fails New with the
// directory untouched.
//
// # Locks on the hot paths
//
// Cluster.Lookup takes, in order: the peer index stripe's RLock, for the
// peer's landmark, released before the shard is touched; then, inside
// server.Server.Lookup, the server's state lock, read-held, and under it the
// stripe's RLock again — the trees below take no lock of their own. The
// table is read-only after New, so reading the landmark's owner takes no
// lock at all. A shard that turns out not to hold the peer — it re-joined
// under a landmark of another shard in between — sends the lookup round
// again.
//
// Every write takes, inside the owning server, the writer mutex for the whole
// op and, under it, the state lock exclusively around each single mutation
// (one per batch entry), the index stripe's lock innermost — writer mutex →
// state lock → stripe, one order for every write, and nothing above the
// server serialises a shard's writers (TestConcurrentJoinsMatchSerial). The
// server's join writes the index entry; the cluster writes none of its own.
//
// After the apply a durable cluster appends to the write-ahead log: the log's
// one mutex, under which the record takes its sequence and is copied into
// the active buffer, then the group commit — a brief hold of wal.Sharded's
// syncMu to lead a sync cycle or wait for the running one; the cycle's
// leader takes the log's mutex once, to swap the buffers, writes and fsyncs
// with no lock held, and takes the tap lock while it feeds the commit tap.
//
// Restoring a state (adopt) takes every server's writer mutex and then every
// state lock (server.Adopt); a write or a whole-state walk holds one writer
// mutex at a time, so neither can deadlock against it. A walk over every
// shard — a snapshot, Peers, an expiry sweep — takes one server's
// writer mutex after another, and adoptMu keeps it and adopt apart, so the
// walk never reads some shards before a restore and the rest after it.
package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// Config parameterizes a cluster.
type Config struct {
	// Landmarks lists every landmark router served by the cluster.
	Landmarks []topology.NodeID
	// Shards is the number of management-server shards (default 1). New
	// deals the landmarks, in ascending ID order, one per shard in turn, so
	// shard loads differ by at most one landmark, and the table never
	// changes after. The landmark is the unit of sharding, so New refuses
	// more shards than landmarks: a shard dealt none would stay empty.
	Shards int

	// DataDir, when set, makes the node durable: every acknowledged write
	// is appended as a typed op to a write-ahead log under the directory
	// (group-commit fsync) before the call returns, and the cluster's
	// state is periodically snapshotted there. New opens the directory
	// first and rebuilds the shards from snapshot plus log tail. When each
	// peer has one writer at a time, a restarted node serves exactly the
	// peer set it acknowledged; two writers racing on one peer can log in
	// the opposite order to the one they applied in, and recovery holds the
	// logged order.
	DataDir string
	// SnapshotEvery is the number of logged ops between automatic
	// background snapshots (and the WAL truncation that follows them).
	// Default 8192; ignored without DataDir. It is the op-count fallback
	// of the adaptive byte trigger below: whichever fires first wins.
	SnapshotEvery int
	// SnapshotBytes triggers a background snapshot once that many bytes
	// of op records have accumulated in the write-ahead log since the
	// last checkpoint — the adaptive compaction trigger, which tracks the
	// actual recovery-replay cost (bytes to re-read) instead of an op
	// count blind to op size. Default 4 MiB; negative disables the byte
	// trigger, leaving SnapshotEvery alone in charge.
	SnapshotBytes int64
	// MaxSyncDelay holds each WAL group-commit fsync open for up to this
	// long so concurrent writers share the sync (see
	// wal.Options.MaxSyncDelay). Zero fsyncs immediately.
	MaxSyncDelay time.Duration
	// SegmentBytes is the WAL segment rotation size (see
	// wal.Options.SegmentBytes; default 8 MiB). Compaction retires whole
	// segments, so smaller segments mean a tighter retention floor.
	SegmentBytes int64
	// NoSync skips fsync on the write-ahead log. It trades machine-crash
	// durability for speed (process crashes lose nothing); benchmarks and
	// tests that model process kills use it.
	NoSync bool

	// Telemetry, when set, registers the cluster's metrics (per-shard
	// apply counters and peer gauges, scatter fan-out, checkpoint
	// durations, the path trees' pool bytes, and the
	// write-ahead log's proxdisc_wal_* series) with the registry. The
	// instrumentation runs either way; the registry only decides whether
	// anyone can read it.
	Telemetry *telemetry.Registry

	// NeighborCount, PeerTTL, and Clock are passed through to every shard;
	// see server.Config.
	NeighborCount int
	PeerTTL       time.Duration
	Clock         func() time.Time

	// serialLoad makes a durable open load its checkpoint and replay its
	// log tail through the serial road alone (loadCheckpoint, then the tail
	// record by record): the reference the shard-parallel pass is compared
	// against in tests.
	serialLoad bool
}

// Cluster is a landmark-sharded management service. It exposes the same
// API as server.Server and is safe for concurrent use.
type Cluster struct {
	cfg    Config
	shards []*shard

	// table maps each landmark to the shard that owns it. New deals it and
	// nothing writes it after, so it is read with no lock.
	table map[topology.NodeID]int

	// adoptMu keeps adopt and the walks over every shard apart (see the
	// package comment); nothing else needs it.
	adoptMu sync.Mutex

	// idx is the node's one peer index, which every shard's server reads
	// and writes; the cluster itself only reads it, to route a request that
	// names a peer and no path to the owner of the landmark the entry names.
	// ResetFromSnapshot replaces it together with the shards' states.
	idx atomic.Pointer[server.Index]

	// log is the node's write-ahead log, one stream for every shard; nil
	// when the cluster is not durable. See durable.go.
	log            *wal.Sharded
	opsSinceSnap   atomic.Int64
	bytesSinceSnap atomic.Int64
	lastSnapSeq    atomic.Uint64 // covering seq of the latest on-disk snapshot
	snapMu         sync.Mutex    // one checkpoint at a time
	snapCh         chan struct{}
	snapStop       chan struct{}
	snapWG         sync.WaitGroup
	snapErrMu      sync.Mutex
	snapErr        error // last background checkpoint failure
	closeOnce      sync.Once

	// The last open's recovery split, which a scrape may read while the
	// open runs: checkpoint load and tail replay in nanoseconds, and the
	// tail records applied serially (DurabilityStats.SerialRecords).
	loadNanos, replayNanos, serialRecords atomic.Int64

	met clusterMetrics
}

// clusterMetrics holds the cluster's pre-resolved metric handles; see
// initMetrics.
type clusterMetrics struct {
	scatter     *telemetry.Counter   // scatter-gather shard calls launched
	checkpoints *telemetry.Histogram // checkpoint (snapshot+truncate) duration
}

// initMetrics resolves the cluster's metric handles, registering them
// when Config.Telemetry is set. Called by New before the cluster is
// visible, so the per-shard hot-path counters are plain pointer loads
// afterwards.
func (c *Cluster) initMetrics() {
	r := c.cfg.Telemetry
	c.met.scatter = r.Counter("proxdisc_scatter_fanout_total")
	c.met.checkpoints = r.Histogram("proxdisc_checkpoint_duration_seconds")
	r.GaugeFunc("proxdisc_peers", func() float64 { return float64(c.NumPeers()) })
	if c.cfg.DataDir != "" {
		r.GaugeFunc("proxdisc_recovery_load_seconds", func() float64 { return time.Duration(c.loadNanos.Load()).Seconds() })
		r.GaugeFunc("proxdisc_recovery_replay_seconds", func() float64 { return time.Duration(c.replayNanos.Load()).Seconds() })
		r.GaugeFunc("proxdisc_recovery_serial_records", func() float64 { return float64(c.serialRecords.Load()) })
	}
	for i, g := range c.shards {
		shard := strconv.Itoa(i)
		g.applies = r.Counter(`proxdisc_shard_apply_total{shard="` + shard + `"}`)
		r.GaugeFunc(`proxdisc_shard_peers{shard="`+shard+`"}`, func() float64 {
			return float64(g.srv.NumPeers())
		})
	}
	// The trees' pools in bytes, live and free: one read of each shard's
	// counters per scrape, nothing on the write path.
	for _, series := range []struct {
		pool, state string
		bytes       func(pathtree.ArenaStats) int
	}{
		{"nodes", "live", func(a pathtree.ArenaStats) int { return a.Live * pathtree.NodeBytes }},
		{"nodes", "free", func(a pathtree.ArenaStats) int { return a.Free * pathtree.NodeBytes }},
		{"records", "live", func(a pathtree.ArenaStats) int { return (a.Records - a.FreeRecords) * pathtree.RecordBytes }},
		{"records", "free", func(a pathtree.ArenaStats) int { return a.FreeRecords * pathtree.RecordBytes }},
		{"addrs", "live", func(a pathtree.ArenaStats) int { return a.AddrBytes - a.FreeAddrBytes }},
		{"addrs", "free", func(a pathtree.ArenaStats) int { return a.FreeAddrBytes }},
	} {
		r.GaugeFunc(`proxdisc_arena_bytes{pool="`+series.pool+`",state="`+series.state+`"}`, func() float64 {
			n := 0
			for _, g := range c.shards {
				n += series.bytes(g.srv.ArenaStats())
			}
			return float64(n)
		})
	}
	// The peer index's tables, slots in use and empty: one read of each
	// stripe's count per scrape.
	r.GaugeFunc(`proxdisc_arena_bytes{pool="index",state="live"}`, func() float64 {
		used, _ := c.idx.Load().Slots()
		return float64(used * server.IndexSlotBytes)
	})
	r.GaugeFunc(`proxdisc_arena_bytes{pool="index",state="free"}`, func() float64 {
		used, total := c.idx.Load().Slots()
		return float64((total - used) * server.IndexSlotBytes)
	})
}

// now reads the cluster clock.
func (c *Cluster) now() time.Time {
	if c.cfg.Clock != nil {
		return c.cfg.Clock()
	}
	return time.Now()
}

// stamp fills a zero op timestamp from the cluster clock, so the shard,
// the write-ahead log, and every follower all see the same instant.
func (c *Cluster) stamp(o op.Op) op.Op {
	if o.Time == 0 {
		switch o.Kind {
		case op.KindJoin, op.KindBatchJoin, op.KindRefresh:
			o.Time = c.now().UnixNano()
		}
	}
	return o
}

// New builds a cluster of cfg.Shards management-server shards.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Landmarks) == 0 {
		return nil, errors.New("cluster: at least one landmark required")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards > len(cfg.Landmarks) {
		return nil, fmt.Errorf("cluster: %d shards for %d landmarks: a shard holds whole landmarks, so at most %d can hold any",
			cfg.Shards, len(cfg.Landmarks), len(cfg.Landmarks))
	}
	table := make(map[topology.NodeID]int, len(cfg.Landmarks))
	for i, lm := range slices.Sorted(slices.Values(cfg.Landmarks)) {
		table[lm] = i % cfg.Shards
	}
	perShard := make([][]topology.NodeID, cfg.Shards)
	for _, lm := range cfg.Landmarks {
		perShard[table[lm]] = append(perShard[table[lm]], lm)
	}
	c := &Cluster{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		table:  table,
	}
	c.idx.Store(server.NewIndex())
	for i, lms := range perShard {
		g, err := newShard(lms, cfg, c.idx.Load())
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		c.shards[i] = g
	}
	c.initMetrics()
	if cfg.DataDir != "" {
		if err := c.openDurable(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// NumShards reports the number of shards.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Landmarks returns every landmark served by the cluster in ascending
// order.
func (c *Cluster) Landmarks() []topology.NodeID {
	return slices.Sorted(maps.Keys(c.table))
}

// NeighborCount reports the configured answer size.
func (c *Cluster) NeighborCount() int { return c.shards[0].srv.NeighborCount() }

// Join routes the peer's join to the shard owning its path's landmark and
// returns the closest-peer answer, exactly as the shard's JoinOp would.
func (c *Cluster) Join(p pathtree.PeerID, path []topology.NodeID) ([]pathtree.Candidate, error) {
	return c.JoinOp(op.Join(p, path, "", 0))
}

// JoinOp answers and applies a KindJoin op as a batch of one
// (JoinBatchInto), its answer copied out of a pooled block: Join's
// op-native form, whose op may carry an overlay address.
func (c *Cluster) JoinOp(o op.Op) ([]pathtree.Candidate, error) {
	return pathtree.Answered(func(ans *pathtree.Answers) (pathtree.Answer, error) {
		c.JoinBatchInto(op.BatchJoin([]op.JoinEntry{o.Join}, o.Time), ans)
		return ans.Entries[0], ans.Entries[0].Err
	})
}

// shardOf resolves the shard that owns landmark lm.
func (c *Cluster) shardOf(lm topology.NodeID) (int, error) {
	if shard, ok := c.table[lm]; ok {
		return shard, nil
	}
	return 0, fmt.Errorf("%w (router %d)", server.ErrUnknownLandmark, lm)
}

// route is a cluster's one check of a join entry, and resolves the shard
// that owns the landmark its path ends at. Every road of a join visits each
// entry here once, before any lock: an answered join or batch and Apply's
// (batchRoute), a follower's records and the log's tail, on the serial road
// (Apply and applyRecovered, through batchRoute) and on the parallel pass
// (shardLoader.split). The entry must pass server.ValidateJoin — the op
// format's caps, a non-empty path, no anonymous or repeated router — and
// end at a landmark served here; the servers behind trust every entry
// routed to them (TestOversizeJoinRefusedAtTheDoor,
// TestApplyRefusesBatchWithABadEntry, TestRefusedTailLeavesNoApplier). A
// checkpoint holds trees, not joins, and is checked by the shards' section
// builders instead (server.LoadSnapshot).
func (c *Cluster) route(e *op.JoinEntry) (int, error) {
	if err := server.ValidateJoin(e); err != nil {
		return 0, err
	}
	return c.shardOf(e.Path[len(e.Path)-1])
}

// enterPeer resolves the shard of a request that names a peer and no path:
// the index entry names the landmark, the table its owner.
func (c *Cluster) enterPeer(p pathtree.PeerID) (*shard, error) {
	lm, _, ok := c.idx.Load().Place(p)
	if !ok {
		return nil, fmt.Errorf("%w: %d", server.ErrUnknownPeer, p)
	}
	shard, err := c.shardOf(lm)
	if err != nil {
		return nil, err
	}
	return c.shards[shard], nil
}

// retireOrphans retires the records that joins on g left behind in trees of
// other shards: a re-join under a landmark owned elsewhere replaces the
// peer's record, as on a single server, instead of duplicating it. Each goes
// by (landmark, slot) to the shard that owns the landmark, whose server's
// own rule decides whether it is still an orphan (server.Retire).
func (c *Cluster) retireOrphans(g *shard) {
	for _, o := range g.srv.TakeOrphans() {
		// The owner holds the orphan's tree, so Retire refuses nothing, and
		// whether it found the record still there changes nothing here.
		if owner, err := c.shardOf(o.Landmark); err == nil {
			_, _ = c.shards[owner].srv.Retire(o)
		}
	}
}

// JoinBatchInto registers a batch of peers, grouping entries by the shard
// owning each path's landmark so every shard is hit with one
// single-lock-acquisition batch apply instead of per-join locking. It
// empties ans and answers into it positionally: ans.Entries[i] answers
// o.Batch[i]. It is the one road of every answered join: a single join is a
// batch of one (JoinOp). On a durable node the accepted entries are
// committed to the write-ahead log, as one record, before it returns.
func (c *Cluster) JoinBatchInto(o op.Op, ans *pathtree.Answers) {
	o = c.stamp(o)
	ans.Reset(len(o.Batch))
	r := routePool.Get().(*route)
	defer r.release()
	accepted, _ := c.batchRoute(o, r, ans)
	if len(accepted) == 0 {
		return
	}
	if err := c.commit(op.BatchJoin(accepted, o.Time)); err != nil {
		// The entries applied but are not durable: withdraw the
		// acknowledgement so no client treats them as committed.
		for i := range ans.Entries {
			if ans.Entries[i].Err == nil {
				ans.Entries[i] = pathtree.Answer{Err: err}
			}
		}
	}
}

// JoinBatchOp is JoinBatchInto into a pooled block, of which it keeps each
// entry's outcome.
func (c *Cluster) JoinBatchOp(o op.Op) []server.BatchResult {
	ans := pathtree.GetAnswers()
	defer ans.Release()
	c.JoinBatchInto(o, ans)
	return server.Results(ans)
}

// batchRoute routes every entry (route) and applies one batch per shard
// group: the shared road of JoinBatchInto, which answers into ans, and of a
// join or batch applied silently — Apply's, replayed or replicated (a nil
// ans, which computes no answers and so accepts nothing). refused is the
// first entry route refused. With ans, that entry's error is its answer and
// the others apply; without, the whole op is refused before any group
// applies, so a silent road never applies part of a record. r.owner marks,
// in batch order, the entries whose peer the batch repeats, which apply
// after the grouped ones. The accepted entries are views into r, in the
// order they applied.
func (c *Cluster) batchRoute(o op.Op, r *route, ans *pathtree.Answers) (accepted []op.JoinEntry, refused error) {
	items := o.Batch
	// A peer appearing more than once in the batch must end up registered
	// by its LAST entry, exactly as sequential joins would leave it; the
	// per-shard groups below run in shard order, not batch order, so
	// duplicate-peer entries apply after them, one at a time in batch order.
	// Wire batches are short, so a quadratic scan beats building a count
	// map — it allocates nothing on the hot path; a wider batch (an
	// in-process JoinBatchOp, a recorded batch of up to op.MaxBatch entries)
	// looks its peers up among the few it repeats.
	var reps []pathtree.PeerID
	if len(items) > dupScanMax {
		reps = repeatedPeers(items)
	}
	dup := func(p pathtree.PeerID, self int) bool {
		if len(items) > dupScanMax {
			_, found := slices.BinarySearch(reps, p)
			return found
		}
		for i := range items {
			if i != self && items[i].Peer == p {
				return true
			}
		}
		return false
	}
	r.reset(len(c.shards))
	for i := range items {
		shard, err := c.route(&items[i])
		switch {
		case err != nil:
			shard = unrouted
			if refused == nil {
				refused = err
			}
			if ans != nil {
				ans.Entries[i].Err = err
			}
		case dup(items[i].Peer, i):
			shard = repeated
		}
		r.owner = append(r.owner, shard)
	}
	if ans == nil && refused != nil {
		return nil, refused
	}
	r.sorted = r.sort(items, r.sorted)
	for shard, n := range r.count {
		if end := r.next[shard]; n > 0 {
			c.applyRun(shard, o.Time, r.sorted[end-n:end:end], r.at[end-n:end], ans)
		}
	}
	// The repeated peers' entries follow the groups, each a batch of one on
	// its shard. route passed them above, so their landmarks are served here.
	for k := r.next[len(r.next)-1]; k < len(r.sorted); k++ {
		path := r.sorted[k].Path
		shard, _ := c.shardOf(path[len(path)-1])
		c.applyRun(shard, o.Time, r.sorted[k:k+1:k+1], r.at[k:k+1], ans)
	}
	if ans == nil {
		return nil, refused
	}
	accepted = r.sorted[:0]
	for k := range r.sorted {
		if ans.Entries[r.at[k]].Err == nil {
			accepted = append(accepted, r.sorted[k])
		}
	}
	return accepted, refused
}

// applyRun applies entries of a batch, all routed to one shard, to that
// shard as one batch: answered into ans at positions at, or silently with a
// nil ans.
func (c *Cluster) applyRun(shard int, t int64, entries []op.JoinEntry, at []int32, ans *pathtree.Answers) {
	sh := c.shards[shard]
	sh.applies.Inc()
	if b := op.BatchJoin(entries, t); ans == nil {
		_ = sh.srv.Apply(b) // answers nothing; route refused what the shard would
	} else {
		sh.srv.JoinBatchInto(b, at, ans)
	}
	c.retireOrphans(sh)
}

// The marks of shardSort.owner for an entry that joins no group.
const (
	unrouted = -1 // route refused it
	repeated = -2 // its peer appears again in the batch
)

// shardSort groups a batch's entries by owning shard with a stable counting
// sort: one pass counts the groups, one places every entry, so the groups
// are runs of one array, in shard order, each in batch order, and the
// entries of a repeated peer follow them, in batch order. It serves both
// batch roads: batchRoute, and the recovery pass's split.
type shardSort struct {
	owner []int   // each entry's shard, or a mark that it joins no group
	count []int   // entries per shard
	next  []int   // after sort, the end of each shard's run
	at    []int32 // after sort, the batch position of each sorted entry
}

// reset readies s for a batch over the given number of shards.
func (s *shardSort) reset(shards int) {
	s.owner = s.owner[:0]
	if len(s.count) != shards {
		s.count, s.next = make([]int, shards), make([]int, shards)
	}
}

// sort places the entries of batch that s.owner routes or marks repeated
// into sorted, grown to their number, and returns it: shard g's group is
// sorted[next[g]-count[g]:next[g]], and the repeated entries are
// sorted[next[len(next)-1]:].
func (s *shardSort) sort(batch, sorted []op.JoinEntry) []op.JoinEntry {
	clear(s.count)
	n := 0
	for _, shard := range s.owner {
		if shard >= 0 {
			s.count[shard]++
		}
		if shard != unrouted {
			n++
		}
	}
	sorted = slices.Grow(sorted[:0], n)[:n]
	s.at = slices.Grow(s.at[:0], n)[:n]
	at := 0
	for shard, k := range s.count {
		s.next[shard] = at
		at += k
	}
	for i, shard := range s.owner {
		k := at // a repeated entry's place, after the groups
		switch {
		case shard >= 0:
			k = s.next[shard]
			s.next[shard]++
		case shard == repeated:
			at++
		default:
			continue
		}
		sorted[k] = batch[i]
		s.at[k] = int32(i)
	}
	return sorted
}

// route is batchRoute's working memory: the sort and the array it sorts
// into. It comes from routePool, so a batch allocates none of it.
type route struct {
	shardSort
	sorted []op.JoinEntry
}

var routePool = sync.Pool{New: func() any { return new(route) }}

// release returns r to the pool, dropping its views of the batch's entries.
func (r *route) release() {
	clear(r.sorted)
	routePool.Put(r)
}

// dupScanMax is the widest batch batchRoute scans pairwise for repeated
// peers: the wire's cap, the width of almost every batch on the hot path.
const dupScanMax = 32

// repeatedPeers returns the peers that appear more than once in items,
// ascending, read off a sorted copy of the IDs.
func repeatedPeers(items []op.JoinEntry) []pathtree.PeerID {
	ids := make([]pathtree.PeerID, len(items))
	for i := range items {
		ids[i] = items[i].Peer
	}
	slices.Sort(ids)
	var reps []pathtree.PeerID
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] && (len(reps) == 0 || reps[len(reps)-1] != ids[i]) {
			reps = append(reps, ids[i])
		}
	}
	return reps
}

// LookupInto re-answers the closest-peers query for a registered peer,
// delegating to the shard that holds it, and appends the answer to ans.
func (c *Cluster) LookupInto(p pathtree.PeerID, ans *pathtree.Answers) (pathtree.Answer, error) {
	return atPeer(c, p, func(g *shard, p pathtree.PeerID) (pathtree.Answer, error) { return g.srv.LookupInto(p, ans) })
}

// Lookup is LookupInto with its answer copied out of a pooled block.
func (c *Cluster) Lookup(p pathtree.PeerID) ([]pathtree.Candidate, error) {
	return pathtree.Answered(func(ans *pathtree.Answers) (pathtree.Answer, error) { return c.LookupInto(p, ans) })
}

// atPeer runs a peer-keyed read or write on the shard that holds the peer's
// record. A shard that no longer knows the peer — it left, or re-joined
// under a landmark of another shard, since the index was read — sends the
// request round again.
func atPeer[T any](c *Cluster, p pathtree.PeerID, f func(*shard, pathtree.PeerID) (T, error)) (T, error) {
	for {
		g, err := c.enterPeer(p)
		if err != nil {
			var none T
			return none, err
		}
		if v, err := f(g, p); !errors.Is(err, server.ErrUnknownPeer) {
			return v, err
		}
	}
}

// Refresh updates a peer's liveness timestamp.
func (c *Cluster) Refresh(p pathtree.PeerID) error {
	return c.Apply(op.Refresh(p, 0))
}

// SetSuperPeer marks or unmarks peer p as a super-peer.
func (c *Cluster) SetSuperPeer(p pathtree.PeerID, super bool) error {
	return c.Apply(op.SetSuperPeer(p, super))
}

// Apply routes one typed op — a leave, refresh, super-peer flag, expiry
// sweep, recorded landmark move, or a join or batch applied silently,
// without computing an answer — through the same shard machinery the
// answering entry points use, and commits it to the write-ahead log on
// durable nodes. It is the write door of front ends that have already
// decoded a wire request into an op, and of a follower applying its
// primary's committed stream. Leave of an unknown peer returns
// server.ErrUnknownPeer. A join or batch with an entry route refuses is
// refused whole, with that entry's error, and nothing applied or logged
// (TestApplyRefusesMalformedJoin, TestApplyRefusesBatchWithABadEntry).
func (c *Cluster) Apply(o op.Op) error {
	o = c.stamp(o)
	if err := c.applyRouted(o); err != nil {
		return err
	}
	return c.commit(o)
}

// applyRouted dispatches an op to the shard(s) it concerns, silently and
// without logging it: the shared body of Apply and WAL replay.
func (c *Cluster) applyRouted(o op.Op) error {
	switch o.Kind {
	case op.KindJoin, op.KindBatchJoin:
		// A join applies the way the answering road applied it, a single
		// one (a record of an older log, or an in-process Apply) as a batch
		// of one.
		if o.Kind == op.KindJoin {
			o = op.BatchJoin([]op.JoinEntry{o.Join}, o.Time)
		}
		r := routePool.Get().(*route)
		defer r.release()
		_, err := c.batchRoute(o, r, nil)
		return err
	case op.KindLeave, op.KindRefresh, op.KindSetSuperPeer:
		_, err := atPeer(c, o.Peer, func(g *shard, _ pathtree.PeerID) (struct{}, error) {
			g.applies.Inc()
			return struct{}{}, g.srv.Apply(o)
		})
		return err
	case op.KindExpire:
		c.expireRouted(o)
		return nil
	case op.KindMoveLandmark:
		// Builds that moved landmarks between shards logged each move and
		// named every landmark's owner in their checkpoints. The table is
		// New's whatever such a record says, so a landmark it serves is all
		// that is checked.
		if _, ok := c.table[o.Move.Landmark]; !ok {
			return fmt.Errorf("cluster: move of unknown landmark %d", o.Move.Landmark)
		}
		return nil
	default:
		return fmt.Errorf("cluster: cannot apply op kind %d", o.Kind)
	}
}

// PeerInfo returns a copy of the record for peer p.
func (c *Cluster) PeerInfo(p pathtree.PeerID) (server.PeerInfo, error) {
	return atPeer(c, p, func(g *shard, p pathtree.PeerID) (server.PeerInfo, error) { return g.srv.PeerInfo(p) })
}

// Leave removes peer p; it reports whether the peer was registered (and,
// on a durable node, whether the removal was committed to the log).
func (c *Cluster) Leave(p pathtree.PeerID) bool {
	return c.Apply(op.Leave(p)) == nil
}

// NumPeers reports the number of registered peers across all shards.
func (c *Cluster) NumPeers() int { return c.idx.Load().Len() }

// Peers scatter-gathers the registered peer IDs of every shard and returns
// them merged in ascending order, all from one state (adoptMu).
func (c *Cluster) Peers() []pathtree.PeerID {
	c.adoptMu.Lock()
	defer c.adoptMu.Unlock()
	per := make([][]pathtree.PeerID, len(c.shards))
	c.scatter(func(i int, s *server.Server) { per[i] = s.Peers() })
	var out []pathtree.PeerID
	for _, ps := range per {
		out = append(out, ps...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Expire sweeps every shard for peers past their TTL, returning the merged
// expired IDs in ascending order. The sweep is logged and shipped to
// followers as a single ExpireOp carrying the deadline — not as per-peer
// leaves — so the WAL stays compact and byte-comparable, and every
// follower (or a restarted node) re-derives the identical expiry set from
// the deadline and the op-carried refresh timestamps. A zero PeerTTL
// disables expiry.
func (c *Cluster) Expire() []pathtree.PeerID {
	if c.cfg.PeerTTL <= 0 {
		return nil
	}
	o := op.Expire(c.now().Add(-c.cfg.PeerTTL).UnixNano())
	out := c.expireRouted(o)
	if len(out) > 0 {
		if err := c.commit(o); err != nil {
			// The sweep already applied but is not durable, and this
			// signature cannot carry an error. Record it for Close (and
			// note the WAL's failure is sticky: every later write will
			// fail loudly, so the node cannot silently keep acking).
			c.noteDurableErr(err)
		}
	}
	return out
}

// expireRouted fans an ExpireOp out to every shard, each swept under its
// own writer mutex while the others take writes, all of them in one state
// (adoptMu). The expired set is not one instant's: each peer goes or stays by
// its refresh time against the op's deadline when its shard is swept, which
// is what a replay of the op re-derives.
func (c *Cluster) expireRouted(o op.Op) []pathtree.PeerID {
	c.adoptMu.Lock()
	defer c.adoptMu.Unlock()
	per := make([][]pathtree.PeerID, len(c.shards))
	c.scatter(func(i int, s *server.Server) {
		c.shards[i].applies.Inc()
		per[i] = s.ExpireOp(o)
	})
	var out []pathtree.PeerID
	for _, ps := range per {
		out = append(out, ps...)
	}
	if out == nil {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats sums every shard's counters.
func (c *Cluster) Stats() server.Stats {
	var merged server.Stats
	for _, sh := range c.shards {
		st := sh.srv.Stats()
		merged.Peers += st.Peers
		merged.Joins += st.Joins
		merged.Leaves += st.Leaves
		merged.Expiries += st.Expiries
		merged.Queries += st.Queries
		merged.SuperPeerDelegations += st.SuperPeerDelegations
	}
	return merged
}
