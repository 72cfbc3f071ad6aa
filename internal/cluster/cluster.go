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
// landmarks between shards logged each move and wrote every landmark's
// owning shard and fencing epoch into their checkpoints; such a log or
// checkpoint still loads, and every landmark lands on the shard this table
// deals it, with every peer it holds (TestCheckpointNamingOtherOwnersLoads).
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
// the checkpoint cadence; a checkpoint is a snapshot (package server,
// snapshot.go). Config.MaxSyncDelay shapes the group commit, and
// DurabilityStats has its counters. Expiry sweeps are logged as a single
// deadline-carrying op, not as per-peer leaves, so logs stay compact and
// every copy re-derives the identical expiry set.
//
// New on a populated directory recovers before returning: one pass reads
// the latest checkpoint and then the log tail with one applier per shard,
// each taking its shard's entries of batch joins of new peers in file order
// through the normal apply path; every other record — a move record, a
// flag, a leave or refresh, a single or re-homing join, an expiry sweep —
// waits for the appliers to drain and applies serially between them. When
// each peer has one writer at a time, a restarted node serves the exact
// peer set (and, for joins that arrived over the wire, the exact overlay
// addresses) it acknowledged before the crash (TestCrashRecoveryExactState,
// TestCheckpointUnderWriters, TestParallelTailMatchesSerialTail), and a
// node killed with writers on every shard recovers what an uninterrupted
// run holds (TestShardedWALKillDashNineRecovery). Two writers racing on one
// peer can log in the opposite order to the one they applied in, and
// recovery then holds the logged order. The appliers' order decides nothing
// unless two batches between the same two serial records name one peer,
// which a checkpoint of this build can: it walks one shard at a time while
// the others take writes, so a peer re-homed between two shards' walks is
// written under both. The pass counts the peers at every serial record and
// at the end, and a count short of the entries handed out sends the whole
// open again through the serial road, where the later entry wins and the
// log tail settles the rest (TestCheckpointUnderWriters crashes a node
// checkpointing beside writers and expiry sweeps, and logs how many of its
// recoveries fell back). The log's tail can only be torn, and recovered
// state is a prefix of the committed order (package wal); a checkpoint,
// which is only ever renamed into place whole, gets no such tolerance — one
// that is truncated, fails a CRC, or is in the gob format that preceded op
// streams (no reader for it is kept) fails New with the directory
// untouched.
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

// JoinOp answers and applies a KindJoin op: Join's op-native form, used by
// front ends whose joins carry overlay addresses. The op is committed to
// the write-ahead log (when the node is durable) before the answer is
// returned, so an acknowledged join survives a crash.
func (c *Cluster) JoinOp(o op.Op) ([]pathtree.Candidate, error) {
	o = c.stamp(o)
	cands, err := c.joinRoute(o, false)
	if err != nil {
		return nil, err
	}
	if err := c.commit(o); err != nil {
		return nil, err
	}
	return cands, nil
}

// enter resolves the shard that owns landmark lm.
func (c *Cluster) enter(lm topology.NodeID) (*shard, error) {
	shard, ok := c.table[lm]
	if !ok {
		return nil, fmt.Errorf("%w (router %d)", server.ErrUnknownLandmark, lm)
	}
	return c.shards[shard], nil
}

// enterPeer is enter for a request that names a peer and no path: the index
// entry names the landmark, the table its owner.
func (c *Cluster) enterPeer(p pathtree.PeerID) (*shard, error) {
	lm, _, ok := c.idx.Load().Place(p)
	if !ok {
		return nil, fmt.Errorf("%w: %d", server.ErrUnknownPeer, p)
	}
	return c.enter(lm)
}

// joinRoute routes a join op to the shard owning its path's landmark. It is
// the shared road of answering joins (quiet=false) and silent ones
// (quiet=true: Apply and WAL recovery).
func (c *Cluster) joinRoute(o op.Op, quiet bool) ([]pathtree.Candidate, error) {
	if len(o.Join.Path) == 0 {
		return nil, errors.New("server: empty path")
	}
	g, err := c.enter(o.Join.Path[len(o.Join.Path)-1])
	if err != nil {
		return nil, err
	}
	g.applies.Inc()
	var cands []pathtree.Candidate
	if quiet {
		err = g.srv.Apply(o)
	} else {
		cands, err = g.srv.JoinOp(o)
	}
	c.retireOrphans(g)
	return cands, err
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
		if owner, err := c.enter(o.Landmark); err == nil {
			_, _ = owner.srv.Retire(o)
		}
	}
}

// JoinBatchOp registers a batch of peers, grouping entries by the shard
// owning each path's landmark so every shard is hit with one
// single-lock-acquisition batch apply instead of per-join locking. Results
// are positional: out[i] answers o.Batch[i]. On a durable node the accepted
// entries are committed to the write-ahead log before the answers are
// returned.
func (c *Cluster) JoinBatchOp(o op.Op) []server.BatchResult {
	o = c.stamp(o)
	out, accepted, deferred := c.batchRoute(o, false)
	if len(accepted) > 0 {
		if err := c.commit(op.BatchJoin(accepted, o.Time)); err != nil {
			// The entries applied but are not durable: withdraw the
			// acknowledgement so no client treats them as committed.
			for i := range out {
				if out[i].Err == nil {
					out[i] = server.BatchResult{Err: err}
				}
			}
			return out
		}
	}
	// Duplicate-peer entries, which need batch order, take the singular
	// path, in batch order; they are rare, so the flash-crowd case loses
	// nothing.
	for _, i := range deferred {
		out[i].Neighbors, out[i].Err = c.JoinOp(op.Op{Kind: op.KindJoin, Time: o.Time, Join: o.Batch[i]})
	}
	return out
}

// batchRoute resolves every entry's shard and applies one batch per shard
// group: the shared road of JoinBatchOp and of a recorded batch, replayed or
// replicated (quiet, which computes no answers and so lists nothing as
// accepted).
// out holds the answers and the entries refused; deferred lists, in batch
// order, the entries whose peer the batch repeats, which the caller takes
// through the singular road once it is done with the grouped ones.
func (c *Cluster) batchRoute(o op.Op, quiet bool) (out []server.BatchResult, accepted []op.JoinEntry, deferred []int) {
	items := o.Batch
	out = make([]server.BatchResult, len(items))
	if len(items) == 0 {
		return out, nil, nil
	}
	// A peer appearing more than once in the batch must end up registered
	// by its LAST entry, exactly as sequential joins would leave it; the
	// per-shard groups below run in shard order, not batch order, so
	// duplicate-peer entries go through the in-order singular path.
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
	// Resolve every entry's shard. Groups are a slice indexed by shard,
	// whose count is small and fixed.
	groups := make([]batchGroup, len(c.shards))
	for i := range items {
		it := &items[i]
		if len(it.Path) == 0 {
			out[i].Err = errors.New("server: empty path")
			continue
		}
		lm := it.Path[len(it.Path)-1]
		shard, ok := c.table[lm]
		if !ok {
			out[i].Err = fmt.Errorf("%w (router %d)", server.ErrUnknownLandmark, lm)
			continue
		}
		if dup(it.Peer, i) {
			deferred = append(deferred, i)
			continue
		}
		g := &groups[shard]
		g.idxs = append(g.idxs, i)
		g.entries = append(g.entries, *it)
	}
	for shard, g := range groups {
		if len(g.idxs) == 0 {
			continue
		}
		sh := c.shards[shard]
		sh.applies.Inc()
		b := op.BatchJoin(g.entries, o.Time)
		var res []server.BatchResult
		if quiet {
			_ = sh.srv.Apply(b) // answers nothing, and refuses no batch
		} else {
			res = sh.srv.JoinBatchOp(b)
		}
		for k, r := range res {
			i := g.idxs[k]
			out[i] = r
			if r.Err == nil {
				accepted = append(accepted, items[i])
			}
		}
		c.retireOrphans(sh)
	}
	return out, accepted, deferred
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

// batchGroup collects the batch entries bound for one shard and their
// positions in the caller's slice.
type batchGroup struct {
	idxs    []int
	entries []op.JoinEntry
}

// Lookup re-answers the closest-peers query for a registered peer,
// delegating to the shard that holds it.
func (c *Cluster) Lookup(p pathtree.PeerID) ([]pathtree.Candidate, error) {
	return atPeer(c, p, func(g *shard, p pathtree.PeerID) ([]pathtree.Candidate, error) { return g.srv.Lookup(p) })
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
// server.ErrUnknownPeer.
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
	const quiet = true
	switch o.Kind {
	case op.KindJoin:
		_, err := c.joinRoute(o, quiet)
		return err
	case op.KindBatchJoin:
		// A batch applies the way the answering road applied it: one group
		// per shard, then the singular road for what the grouping left.
		out, _, deferred := c.batchRoute(o, quiet)
		for i := range out {
			if out[i].Err != nil {
				return out[i].Err
			}
		}
		for _, i := range deferred {
			if _, err := c.joinRoute(op.Op{Kind: op.KindJoin, Time: o.Time, Join: o.Batch[i]}, quiet); err != nil {
				return err
			}
		}
		return nil
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
