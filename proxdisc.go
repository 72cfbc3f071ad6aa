// Package proxdisc is a library for quick discovery of nearby peers,
// reproducing "A Quicker Way to Discover Nearby Peers" (Simon, Chen,
// Boudani, Straub — ACM CoNEXT 2007).
//
// A newcomer in a peer-to-peer system traceroutes to its closest landmark
// and reports the router path to a management server. The server organizes
// all reported paths in per-landmark prefix trees; the deepest common router
// between two paths yields the inferred distance
//
//	dtree(p,q) = depth(p) + depth(q) − 2·depth(dca(p,q)),
//
// which tracks the true hop distance closely on heavy-tailed router
// topologies. One traceroute is enough for a good answer — no multi-round
// coordinate convergence (Vivaldi/GNP) is needed.
//
// The package offers four levels of entry:
//
//   - the core data structure (NewPathTree) for embedding in other systems;
//   - the management-server logic (NewServer), one shard's worth;
//   - a landmark-sharded management cluster (NewCluster) that runs N
//     server shards behind one router, with scatter-gather fan-out for
//     cross-landmark operations and live landmark handoff between shards —
//     the same answers as a single server at a multiple of the capacity —
//     and the deployable TCP/UDP front end that serves one (ListenAndServe,
//     Dial, Agent); every node runs a cluster, of one shard or more;
//   - a full simulation environment (NewSimulation) that generates an
//     Internet-like router topology and runs the complete two-round
//     protocol — over a cluster of one shard or of SimulationConfig.Shards
//     — used by the examples and the
//     paper-reproduction harness.
//
// # The wire protocol and pipelining
//
// Every TCP connection opens with a hello/acknowledge exchange — done by
// Dial — and from then on every frame carries a request ID, so a single
// connection carries many concurrent requests and responses are matched by
// ID as they complete. The protocol has one version, 2, and no fallback: a
// server answers a connection that opens any other way with one error
// naming that version and closes it (TestFirstFrameMustBeHello), and Dial
// and Follow fail against a server that does not acknowledge the hello at
// version 2 (TestDialersRefuseNonV2Server). The handshake's bytes
// are pinned (TestHandshakeBytesUnchanged), so any two builds that speak
// version 2 interoperate.
//
// A request is served on one of two roads, chosen by what it can
// wait on. Reads, which can never wait on the disk — lookups, status,
// landmarks — run on the connection's own reader goroutine and are
// appended to its write buffer, which is flushed right before the reader
// would block on the socket: N lookups that arrived together leave in one
// write. Everything else — joins, batches, leave, refresh —
// goes to a bounded worker pool (NetServerConfig.Workers) and comes back
// through a per-connection queue, so a worker never blocks on a socket and
// a client that stops reading harms only its own connection, which is
// dropped within the read timeout. The client coalesces the same way:
// callers that become runnable together share one write. Two contracts
// follow: pipelined requests on one connection are unordered with respect
// to each other (wait for a response before sending a request that must
// see its effect), and one connection's reads are served serially — a
// connection's read throughput is one core; open more connections to
// scale. In the front end a lookup takes only its connection's write
// mutex; below it, the backend's read-side locks (package netserver lists
// them exactly). A join for a landmark another cluster node owns is redirected
// there, and the client remembers each peer's home node, so the front end
// keeps no per-peer state. Answers carry each candidate's overlay
// address straight from the peer's record in the backend; the front end
// keeps no address table of its own.
// proxdisc_response_frames_total over proxdisc_response_flushes_total is
// the server's frames per write syscall.
//
// Joins can be batched: Client.JoinBatch packs up to the server's
// advertised limit (at most 32, the wire cap) of joins into one frame, and
// the management plane applies each group under a single lock acquisition
// — the fast path for a flash crowd of newcomers arriving behind one NAT or
// agent. ClientConfig.MaxInFlight bounds a connection's outstanding
// requests; SimulationConfig.BatchSize routes simulated arrivals through
// the same batched path. Capacity numbers come from the repository
// benchmark, bench/ (its README defines the workloads and how two builds
// are compared); cmd/proxdisc-loadgen drives the four traffic shapes (one
// request at a time or pipelined, singular or batched) against a live
// server for a quick look.
//
// # Replication and failover
//
// A shard is one server: a cluster keeps exactly one copy of every shard's
// state in its process, and further copies live in other processes as
// followers (StartFollower, or proxdisc-server -follow ADDR; see
// "Cross-process replication" below). There is one replication road, and
// one kind of copy: a follower's is a Cluster of its primary's shard count
// (proxdisc-server reads it from the primary's status answer), so the
// stream's move ops and a catch-up checkpoint's records put every landmark
// on the primary's shard at the primary's epoch
// (TestFollowerByteIdenticalAcrossMidStreamMove, TestFollowerCatchupAfterKill).
//
// What a follower guarantees: it applies the primary's committed op
// stream — joins, batch joins, leaves, refreshes, super-peer flags, TTL
// expiry sweeps (one op per sweep), landmark moves — in commit order
// through the same Apply door crash recovery uses, so once it has applied
// up to the primary's head its state serializes to a byte-identical
// snapshot. Replication is asynchronous: the primary acknowledges a write
// when its own write-ahead log has it, not when a follower does, so a
// follower's reads may lag the primary's by its reported lag
// (NodeStatus.Head − NodeStatus.Applied) and are not read-your-writes. The
// other way round never happens: a follower, like a subscription, is sent
// an op only once it is durable on the primary, so none can apply an op a
// crash of the primary would lose (TestCommitTapSeesOnlyDurableRecords).
//
// The client-side half: a NetServer fronting a follower's copy runs in
// RoleReplica — it serves reads locally and answers writes with a redirect
// to the primary (joins) or its address (everything else), which Client
// follows. A Client keeps one session per node address, and a request
// whose session died is sent once more on a fresh dial, so a client of a
// restarted primary (same address, same data directory), or of a server
// that dropped an idle connection, resumes without caller involvement; a
// learned primary that cannot be reached is forgotten for the dialled
// address. Promotion is still manual: nothing elects a follower when the
// primary is lost for good — an operator restarts a node over the
// follower's state as the new primary and repoints the others.
//
// # Durability and recovery
//
// Every mutation of the management plane — a join, a batched join, a
// leave, a refresh, a super-peer flag, a TTL expiry sweep — is one typed
// operation with one canonical binary encoding. The same op value is
// applied to the owning shard, persisted (on durable nodes), and shipped
// to followers, so the replication stream and the on-disk stream can never
// disagree. Ops are deterministic: joins and refreshes carry their apply
// timestamp and an expiry sweep carries its deadline, which is why a
// replayed stream reproduces the original state exactly, TTL bookkeeping
// included.
//
// Setting ClusterConfig.DataDir makes a node durable. Acknowledged writes
// are appended to a segmented, CRC-framed write-ahead log before the call
// returns; concurrent writers share fsyncs through group commit, so the
// durability cost amortizes under load. One sync cycle runs at a time: it
// fsyncs everything appended before it began, advances the log's durable
// mark, feeds the committed op stream up to that mark, and releases every
// writer it covered at once. The cluster's state is periodically
// checkpointed to the same directory (every ClusterConfig.SnapshotEvery
// ops, in the background, and again on Cluster.Close), after which the log
// is truncated at the checkpoint boundary — the disk footprint is bounded
// by the checkpoint cadence. A checkpoint is a compacted op log, written in
// the same op codec as the log it replaces: one move op per landmark (its
// owning shard and fencing epoch), every peer as an entry of a batch-join
// op stamped with its last refresh, one flag op per super-peer — each
// record length-bounded and CRC-framed, the file closed by a counted end
// frame. NewCluster on a populated directory recovers before returning: it
// replays the latest checkpoint and then the log tail through the one
// normal apply path, so a restarted node serves the exact peer set (and,
// for joins that arrived over the wire, the exact overlay addresses) it
// acknowledged before the crash. A log record torn by the crash itself was
// never acknowledged and is dropped by CRC, and so is every record past the
// first sequence that no shard's stream holds: a crash between two streams'
// fsyncs can keep a record whose predecessor was lost, and a write is
// acknowledged only once everything before it is durable, so recovery ends
// the history at the hole and cuts the orphans off the disk
// (TestRecoveryStopsAtFirstGlobalHole). Recovered state is therefore always
// a prefix of the committed order. A checkpoint, which is only ever renamed
// into place whole, gets no such tolerance — one that is truncated, fails a
// CRC, or is in the gob format that preceded op streams (no reader for it
// is kept) fails NewCluster with the directory untouched. Expiry sweeps are
// logged as a single deadline-carrying op, not as per-peer leaves, so logs
// stay compact and every copy re-derives the identical expiry set.
//
// The TCP front end has no durable state of its own: -data-dir is the
// cluster's. cmd/proxdisc-server keeps it under DIR/cluster (a DIR/front
// left by an older build is never opened) and shuts down cleanly on
// SIGINT/SIGTERM: connections drain, a final snapshot lands, and the WAL
// closes, leaving an empty tail for the next start.
//
// Group commit can additionally be latency-shaped: ClusterConfig.
// MaxSyncDelay holds each fsync open for a sub-millisecond window so that
// writers arriving during it share the sync — under light load this
// trades a bounded latency bump for far fewer fsyncs (the counters are in
// the cluster's DurabilityStats). Checkpoint cadence is adaptive:
// ClusterConfig.SnapshotBytes triggers a snapshot once that many log
// bytes accumulate — tracking the actual recovery-replay cost — with
// SnapshotEvery as the op-count fallback.
//
// # Cross-process replication
//
// A durable node's write-ahead log doubles as a replication stream:
// because every mutation is one canonically encoded op with one sequence
// number, shipping the log IS shipping the state. A follower process
// (StartFollower, or proxdisc-server -follow ADDR) subscribes to a
// primary's committed op stream over the wire and applies every record to
// a local copy through the same single Apply door crash recovery uses — one door, two consumers (follower replication through
// the op.Replicator interface, and WAL replay), zero drift.
//
// Roles. The primary serves the stream from its WAL: live records flow
// from the commit tap — which the WAL's sync leader feeds once they are
// durable, before their writers return — into each follower's bounded
// buffer, a follower that
// lags is fed by reading the log's files (the WAL is the retention
// buffer — a slow follower costs a file read, not memory), and a follower
// behind the log's retention floor — it reconnected after the primary
// compacted — receives the latest on-disk checkpoint, shipped as the op
// stream it is, plus the tail after it. The follower node fronts its copy with a replica-role NetServer:
// reads are served locally, writes redirect to the primary.
//
// Acknowledged offsets and flow control. Followers acknowledge their
// applied sequence; the primary sends at most a bounded window beyond the
// last ack, so a stalled follower exerts backpressure on its own stream
// instead of ballooning the primary. Acks double as the idle stream's
// heartbeat (the primary answers with head announcements), which is also
// how a follower knows its lag.
//
// Catch-up. A follower that disconnects — crash, partition, restart —
// redials with its applied sequence and resumes exactly there: from the
// WAL tail when the primary still retains it, from snapshot + tail when
// it does not. Snapshot restore replaces the local copy rather than
// merging, so peers that departed during the outage disappear from the
// follower too — and only once the whole shipped stream, end frame
// included, has read cleanly; until then the follower keeps what it had.
// Convergence is exact: a snapshot is a function of the state alone, so
// a follower that has applied the primary's head serializes to a
// byte-identical one.
//
// Monitoring. Status responses (Client.Status) carry the durable
// telemetry: last snapshot sequence, WAL tail length, recovery replay
// time, and — on follower nodes — the applied/head pair whose difference
// is the replication lag. Telemetry-aware nodes additionally report their
// peer count, worker-queue depth, served-request total, and WAL fsync
// count in the same response; the decoder tolerates older nodes that omit
// them. proxdisc-server logs lag and group-commit batching on a live
// node.
//
// # Elastic resharding
//
// Landmark ownership is not fixed at construction. Cluster.MoveLandmark
// transfers one landmark's path tree between shards while the cluster
// keeps serving: the tree changes servers whole — no peer is copied and no
// index entry rewritten, so a move costs the same for a thousand peers as
// for a hundred thousand (TestMoveLandmarkMovesNoPeers). Only the
// source/destination shard pair freezes, for that instant — every other
// shard accepts writes throughout — and requests for the moving landmark
// wait until the move is logged, then go to the new owner. A move is a
// first-class logged operation in the same canonical op stream as joins
// and leaves: it is committed to the write-ahead log, shipped to
// followers, and replayed by crash recovery, so a restarted node
// reconstructs the exact post-move ownership no matter where a crash
// landed — after the tree changed hands, between that and the table flip,
// or between the flip and the commit — with exactly one shard owning the
// landmark and zero peers lost (TestMoveLandmarkCrashAtEveryStage).
//
// Each move increments the landmark's fencing epoch, a monotonic counter
// carried by the move op — in the log and, one per landmark, in every
// snapshot. Writers that route
// by a cached ownership table can stamp their ops with the epoch they
// observed (redirects carry the current epoch for this purpose); a
// mutation carrying a stale epoch is rejected loudly with a
// stale-epoch error instead of being applied to the wrong shard — the
// classic lost-update window between "looked up the owner" and "applied
// the write" closes. Unstamped ops remain valid: fencing is opt-in per
// write, not a wire break.
//
// ClusterConfig.Shards may exceed the landmark count: surplus shards
// start empty and become useful the moment a landmark moves onto them.
// Setting ClusterConfig.RebalanceInterval starts a load-driven
// rebalancer that periodically compares per-shard peer populations and
// issues fenced moves — largest movable landmark first, fullest shard to
// emptiest — until shard loads are within RebalanceMinGap of each other;
// Cluster.Rebalance runs one such pass on demand. Scaling out is
// therefore: restart (or build) the cluster with more shards and let the
// rebalancer fill them, or aim MoveLandmark by hand. The handoff counter
// is proxdisc_handoffs_total.
//
// # Live subscriptions
//
// The op stream also drives a push-based read plane. Instead of polling
// Client.Lookup, a peer registers a live Query with Client.Subscribe: the
// server evaluates every committed op against the subscription's filter
// and pushes only the deltas — a peer entering the answer set
// (EventEnter), leaving it (EventLeave), or changing inside it
// (EventUpdate). Three filters exist, built with KClosestQuery, PeerQuery,
// and LandmarkQuery: a registered peer's k-closest answer set (the push
// form of Lookup, re-evaluated incrementally through the same path trees),
// one peer's registration, and a whole landmark tree's membership.
//
// The subscription maintains a coherent local cache of the current answer.
// Client.CachedLookup answers a k-closest query from that cache when a
// covering subscription is live — zero round trips, zero server work — and
// falls back to the wire transparently when none is. Pushed candidates
// carry the address the peer's record holds, as pull answers do, so at any
// quiescent point the cache is byte-identical to what a fresh Lookup would
// return.
//
// Delivery is bounded end to end: each subscription has a fixed server-
// side queue; a consumer that falls behind first has same-peer events
// coalesced, then has its backlog dropped and replaced by one EventResync
// carrying the full refreshed answer — the commit path never blocks on a
// slow subscriber.
//
// A subscription rides the client's session to the primary, beside its
// requests, with no connection, hello or heartbeat goroutine of its own:
// a client holds one connection however many subscriptions it runs
// (TestSubscriptionsShareTheSession), and Close frees the server's side
// while the session stays up (TestSubscriptionCloseUnsubscribes). The
// subscription's heartbeat keeps an idle session inside the server's read
// timeout (TestIdleSubscriptionKeepsItsSession). The session's reader
// never waits on a subscription: one that falls so far behind that a
// frame is dropped re-subscribes (TestFullSubscriptionDoesNotStallCalls).
// A resync is also how a re-subscribed subscription rebuilds: after its
// session dies or a primary failover the client re-subscribes on the road
// every request takes (following CodeNotPrimary, with bounded backoff)
// and installs the new snapshot. Consumers therefore handle exactly one
// degraded mode: replace state on resync, apply deltas otherwise. Follower
// nodes serve subscriptions from their applied stream, scaling the push
// read plane out with the replication tree. The plane's series are
// proxdisc_sub_active, proxdisc_sub_events_total,
// proxdisc_sub_coalesced_total, proxdisc_sub_dropped_total, and
// proxdisc_sub_resyncs_total.
//
// # Context-first API
//
// Every Client request method has a context-first form — JoinContext,
// LookupContext, StatusContext, LandmarksContext, LeaveContext,
// RefreshContext, JoinBatchContext, Subscribe — that accepts a
// context.Context as the cancellation and deadline primitive: the
// effective bound of each exchange is the tighter of ClientConfig.Timeout
// and the context's deadline, a request whose context ended is not sent
// again, and a subscription's context scopes its whole lifetime, its
// resubscribe backoff included. The original methods
// (Join, Lookup, Status, ...) remain as thin compatibility wrappers over
// context.Background(). The configuration knobs the networked components
// share (telemetry registry, logger, reconnect backoff) live in one
// embedded CommonConfig on ClientConfig, NetServerConfig, and
// FollowerConfig.
//
// # Observability
//
// Every layer instruments itself into a telemetry registry — a
// dependency-free metric store whose hot path is a couple of atomic
// operations on pre-resolved handles (zero allocations, no locks, no
// lookups per request). Components accept a *TelemetryRegistry in their
// configs (ClusterConfig.Telemetry, and CommonConfig.Telemetry embedded in
// NetServerConfig, FollowerConfig and ClientConfig); pass the process
// default from Telemetry() to aggregate one process's layers into one
// scrape, or a fresh registry to keep planes separate. A nil registry
// costs nothing and records nothing.
//
// The registry serves the Prometheus text exposition. MetricsHandler
// wraps a registry for embedding into any HTTP mux;
// cmd/proxdisc-server -metrics-addr ADDR serves a full operational
// endpoint — /metrics, expvar at /debug/vars, and net/http/pprof under
// /debug/pprof/ — next to the node. The server binary also logs
// structured records via log/slog (-log-level picks the floor) and, with
// -slow-op DURATION, warns about every request served slower than the
// threshold, tagged with its request ID, message type and whether it was
// served inline on its connection's goroutine or by the worker pool
// (NetServerConfig.SlowOpThreshold and .SlowOp are the library-level
// hooks).
//
// The exported series, by layer:
//
//   - Front end: proxdisc_requests_total{type=...} and
//     proxdisc_request_duration_seconds{type=...} per message type;
//     proxdisc_requests_by_road_total{road="inline"|"pool"} for which
//     road served them; proxdisc_response_frames_total and
//     proxdisc_response_flushes_total for pipelined responses and the
//     write syscalls that carried them; proxdisc_worker_queue_depth,
//     proxdisc_worker_pool_size, and
//     proxdisc_worker_queue_saturation_total for the worker pool.
//   - Replication, primary side: proxdisc_followers_connected;
//     proxdisc_follower_acked_seq{follower=ADDR} and
//     proxdisc_follower_lag{follower=ADDR} per connected follower
//     (unregistered when it departs);
//     proxdisc_follower_send_window_stalls_total and
//     proxdisc_follower_snapshot_catchups_total.
//   - Replication, follower side: proxdisc_follow_applied_seq,
//     proxdisc_follow_head_seq, proxdisc_follow_lag, and
//     proxdisc_follow_reconnects_total.
//   - Cluster: proxdisc_peers; proxdisc_shard_peers{shard=N} and
//     proxdisc_shard_apply_total{shard=N} per shard;
//     proxdisc_scatter_fanout_total, proxdisc_handoffs_total,
//     proxdisc_checkpoint_duration_seconds, and
//     proxdisc_arena_bytes{pool=nodes|records|kids|addrs|index,state=live|free},
//     what the path trees' pools hold in use and parked on free lists, and
//     the peer index's slots in use and empty.
//   - Write-ahead log: proxdisc_wal_appends_total,
//     proxdisc_wal_fsyncs_total, proxdisc_wal_synced_records_total,
//     proxdisc_wal_append_duration_seconds, and
//     proxdisc_wal_fsync_duration_seconds, the fsync wait: one observation
//     per sync cycle, covering all of that cycle's fsync calls.
//   - Client: proxdisc_client_inflight, proxdisc_client_retries_total,
//     proxdisc_client_redirects_total, and
//     proxdisc_client_failovers_total.
//   - Go runtime (via telemetry.RegisterGoMetrics, on by default in
//     proxdisc-server): go_goroutines, go_memstats_* heap and GC gauges,
//     and go_gc_* cycle and pause counters.
//
// Histograms use power-of-two latency buckets from 1µs to ~69s and export
// cumulative _bucket/_sum/_count series; quantiles (Histogram.Quantile)
// interpolate within the covering bucket, accurate to within a factor of
// two anywhere in the range.
//
// # Performance
//
// The serving hot path is engineered around four properties, each pinned
// by a benchmark gate in CI.
//
// Zero-allocation codecs. Encoding an op for the WAL or the replication
// stream, framing op records for followers, and the full client-side join
// request/response round trip (AppendJoinRequest/DecodeJoinRequestInto
// and friends in the wire layer) run at 0 allocs/op: buffers come from
// internal freelists and return to them when the connection writer is
// done, so a node at steady state produces no codec garbage for the GC to
// chase. The allocs/op gate in CI fails if any of these paths ever
// allocates again.
//
// Reads wait for at most one join. Each server shard keeps one copy of
// its state behind two locks: a writer mutex that serialises mutators and
// that snapshots, checkpoints and every other whole-state walk hold, and a
// state lock that lookups read-hold and a writer takes exclusively around
// one single mutation — per entry of a batch, never per batch. A burst of
// joins adds at most one join's length to a concurrent lookup, a snapshot
// adds nothing, and every write applies once (package server has the
// measurement against the two-copy arrangement this replaced).
//
// Writes are batch-amortized end to end. A batched join travels as one
// wire frame, applies under one writer-mutex acquisition per touched shard,
// commits as exactly ONE write-ahead-log record, and shares its fsync
// with concurrent batches through the group-commit window — so the
// per-join cost of durability shrinks with load instead of growing.
// Checkpoints are shaped the same way: the op stream is encoded to memory
// under the cluster's handoff lock (fast), then streams to disk lock-free;
// ClusterConfig.CheckpointBytesPerSec caps that background write rate so
// a multi-gigabyte snapshot cannot monopolize the disk the WAL's fsyncs
// are latency-bound on.
//
// The write plane scales with cores. Three structures remove the
// serial bottlenecks a many-core run exposes:
//
//   - Sharded write-ahead log. A durable cluster keeps one segment stream
//     per shard (files named wal-<shard>-<seq>.seg), each with its own
//     append mutex, so commits to different shards never queue on a single
//     log lock. Records still carry one global sequence, and a
//     cross-stream group commit shares fsyncs: one sync cycle at a time,
//     its leader flushes every dirty stream's buffer, fsyncs them, and
//     releases all the cycle's waiters together once every record up to
//     the captured sequence is durable — concurrent committers on
//     different shards ride one disk sync. Recovery
//     merge-replays the streams by global sequence (a k-way merge over
//     per-stream cursors), so the op stream, follower catch-up, and
//     subscription planes see exactly the order a single log would have
//     produced; a directory still holding a segment of the old
//     single-stream log is refused at open, untouched
//     (TestShardedRefusesLegacySegments).
//
//   - One record per resident peer, in pointer-free slabs. Each tree
//     carves four pools from fixed-size chunks and links them by int32
//     index: 24-byte trie nodes, runs of {router, node} child pairs, one
//     32-byte record per peer (ID, refresh time, super-peer flag, where its
//     address lies) chained to the router its path ends at, and the
//     addresses' bytes. A peer's path is not stored — it is that router's
//     parent chain — and a node keeps one table, peer ID to (landmark,
//     slot): a lone server's own, or the one index all the shards of a
//     cluster share and route by. A management server, or a whole cluster,
//     holds about 116 B per resident peer, its address included (package
//     server has the table; TestResidentBytesPerPeer and
//     TestNodeResidentBytesPerPeer pin it). No pool holds a pointer, so no
//     peer is a heap object of its own: the collector marks one chunk per
//     few hundred peers and scans none. Freed slots are recycled through free lists
//     (the lifetime rule: a slot is freed only by a writer holding the
//     state lock exclusively, so no query ever observes a recycled slot), and
//     steady-state churn retires NO tree memory to the garbage collector —
//     pathtree's TestChurnAllocs pins a join-and-leave cycle at 0
//     allocations, TestChurnRecyclesSlots pins the pools' high-water marks.
//
//   - Padded telemetry. Hot counters and gauges are cache-line padded so
//     adjacent metrics updated from different cores do not false-share
//     (telemetry's BenchmarkTelemetryHotPathParallel is the probe), and
//     one request's metrics allocate nothing (TestHotPathAllocs).
//
// Throughput has one ruler, the repository benchmark in bench/ (see its
// README): flash_crowd's ops_per_s counts batched joins per second, wire to
// fsync, on a durable 4-shard node, and BENCHMARK.json bounds how far a
// change may walk it back; what the instrumentation adds to a join is its
// telemetry.join_overhead_ns. netserver's BenchmarkMillionPeerNode fills
// one durable node to a million resident peers over TCP and measures
// batched joins and lookup p99 there; nothing gates it.
package proxdisc

import (
	"context"
	"net/http"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/conf"
	"proxdisc/internal/experiment"
	"proxdisc/internal/netserver"
	"proxdisc/internal/overlay"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/routing"
	"proxdisc/internal/server"
	"proxdisc/internal/streaming"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
	"proxdisc/internal/traceroute"
)

// PeerID identifies a peer.
type PeerID = pathtree.PeerID

// RouterID identifies a router in a topology.
type RouterID = topology.NodeID

// Candidate is one closest-peer answer entry: the peer, its inferred
// path-tree distance in router hops and, in a management server's answers,
// the overlay address the peer advertised.
type Candidate = pathtree.Candidate

// PathTree is the paper's core data structure: a per-landmark prefix tree
// of router paths supporting O(path length) insertion and exact k-closest
// queries whose cost follows the routers near the query point, not the
// population. Safe for concurrent use.
type PathTree = pathtree.Tree

// PathTreeOptions tunes a PathTree; it currently carries nothing.
type PathTreeOptions = pathtree.Options

// NewPathTree returns an empty path tree rooted at the given landmark
// router.
func NewPathTree(landmark RouterID) *PathTree {
	return pathtree.New(landmark, pathtree.Options{})
}

// ServerConfig configures the management server. See server.Config for
// field documentation.
type ServerConfig = server.Config

// Server is the management server: it stores peer paths in per-landmark
// trees and answers closest-peer queries. Safe for concurrent use.
type Server = server.Server

// NewServer builds a management server for a set of landmark routers.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ClusterConfig configures a landmark-sharded management cluster. See
// cluster.Config for field documentation.
type ClusterConfig = cluster.Config

// Cluster is a landmark-sharded management service: N server shards behind
// a router that assigns each landmark to a shard, scatter-gathers
// cross-landmark operations, and supports live landmark handoff between
// shards (MoveLandmark). Each shard is one Server; copies live in other
// processes as followers (see "Replication and failover" above). With
// ClusterConfig.DataDir it is durable: writes commit to a write-ahead
// log, snapshots land on disk (Checkpoint), restarts recover exactly (see
// "Durability and recovery" above), and Close shuts it down cleanly. It
// exposes the same API as Server and returns identical answers. Safe for
// concurrent use.
type Cluster = cluster.Cluster

// ClusterAssigner chooses the initial landmark→shard assignment of a
// cluster; see cluster.RoundRobin and cluster.HashMod.
type ClusterAssigner = cluster.Assigner

// NewCluster builds a sharded management cluster for a set of landmark
// routers.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NetServerConfig configures the TCP front end.
type NetServerConfig = netserver.Config

// NetServer is a running TCP management-server front end.
type NetServer = netserver.NetServer

// ListenAndServe exposes a management cluster over TCP. Close the returned
// NetServer to stop.
func ListenAndServe(cfg NetServerConfig) (*NetServer, error) { return netserver.Listen(cfg) }

// Follower maintains a local copy of a durable primary's state by
// streaming its committed op log over TCP, reconnecting and catching up
// (WAL tail, or snapshot + tail) across failures. See "Cross-process
// replication" above.
type Follower = netserver.Follower

// FollowerConfig configures a Follower: the primary's address, the local
// cluster receiving the stream, and the resume point.
type FollowerConfig = netserver.FollowerConfig

// StartFollower dials a durable primary and starts replicating its op
// stream into the configured local cluster.
func StartFollower(cfg FollowerConfig) (*Follower, error) { return netserver.StartFollower(cfg) }

// NodeStatus is a node's wire-reported status: replication role, shard
// count, durability telemetry (snapshot seq, WAL tail,
// replay time), and the applied/head replication position.
type NodeStatus = proto.Status

// TelemetryRegistry is a metric registry: counters, gauges, and latency
// histograms with an allocation-free update path, serialized on demand as
// the Prometheus text exposition. See "Observability" above for the
// series the built-in components export.
type TelemetryRegistry = telemetry.Registry

// Telemetry returns the process-default metric registry — the one
// cmd/proxdisc-server exports and the natural choice for
// ClusterConfig.Telemetry and the networked components'
// CommonConfig.Telemetry when one process hosts one node.
func Telemetry() *TelemetryRegistry { return telemetry.Default() }

// MetricsHandler serves a registry's metrics in the Prometheus text
// exposition, for embedding in an existing HTTP mux. (proxdisc-server's
// -metrics-addr serves this plus expvar and pprof.)
func MetricsHandler(r *TelemetryRegistry) http.Handler { return telemetry.Handler(r) }

// LandmarkResponder answers UDP RTT probes for one landmark.
type LandmarkResponder = netserver.LandmarkResponder

// ListenLandmark starts a landmark probe responder on a UDP address.
func ListenLandmark(addr string) (*LandmarkResponder, error) {
	return netserver.ListenLandmark(addr)
}

// Client talks to a management server over one TCP session per node it
// has reached, redialing a session that died. It is safe for concurrent
// use: concurrent requests are pipelined over a session without
// serializing behind each other.
type Client = client.Client

// ClientConfig tunes a management-server client: the request timeout, the
// in-flight pipelining cap per session, and (CommonConfig.Backoff) the
// pause before a subscription resubscribes.
type ClientConfig = client.Config

// CommonConfig holds the configuration knobs shared by the networked
// components — a telemetry registry, a diagnostic logger, a reconnect/
// retry backoff. It is embedded in ClientConfig, NetServerConfig, and
// FollowerConfig.
type CommonConfig = conf.Common

// BatchJoinItem is one entry of a Client.JoinBatch call.
type BatchJoinItem = client.BatchItem

// BatchJoinResult is the per-entry outcome of a Client.JoinBatch call.
type BatchJoinResult = client.BatchResult

// Query describes a read — which peers the caller cares about. One Query
// value drives both the pull path (Client.LookupContext) and the push
// path (Client.Subscribe). Build one with KClosestQuery, PeerQuery, or
// LandmarkQuery.
type Query = client.Query

// QueryKind selects what a Query watches.
type QueryKind = client.QueryKind

// Query kinds.
const (
	// QueryKClosest watches a registered peer's k-closest answer set.
	QueryKClosest = client.QueryKClosest
	// QueryPeer watches one peer's registration.
	QueryPeer = client.QueryPeer
	// QueryLandmark watches every peer under one landmark tree.
	QueryLandmark = client.QueryLandmark
)

// KClosestQuery is the query Lookup and Subscribe share: the k-closest
// answer set of a registered peer, at the server's configured size.
func KClosestQuery(peer PeerID) Query { return client.KClosest(int64(peer)) }

// PeerQuery watches one peer's registration (Subscribe only).
func PeerQuery(peer PeerID) Query { return client.PeerQuery(int64(peer)) }

// LandmarkQuery watches every peer under one landmark tree (Subscribe
// only).
func LandmarkQuery(landmark RouterID) Query { return client.LandmarkQuery(int32(landmark)) }

// Subscription is one live query against a management server, holding a
// coherent local cache of the query's current answer. See "Live
// subscriptions" above.
type Subscription = client.Subscription

// SubscriptionEvent is one pushed subscription delta.
type SubscriptionEvent = client.Event

// Subscription event kinds.
const (
	// EventEnter reports a peer entering the subscribed set.
	EventEnter = client.EventEnter
	// EventLeave reports a peer leaving the subscribed set; a k-closest
	// subscription whose subject itself deregistered reports the subject.
	EventLeave = client.EventLeave
	// EventUpdate reports a peer already in the set whose record changed.
	EventUpdate = client.EventUpdate
	// EventResync replaces the subscriber's whole cached set.
	EventResync = client.EventResync
)

// Subscribe registers a live query over c and returns once the server
// accepted it, with the initial answer already cached. Shorthand for
// c.Subscribe (see Client.Subscribe); the subscription runs until ctx
// ends or Close is called.
func Subscribe(ctx context.Context, c *Client, q Query) (*Subscription, error) {
	return c.Subscribe(ctx, q)
}

// Dial connects to a management server with default configuration: it
// opens the client's first session, whose hello must be acked at protocol
// version 2.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return client.Dial(addr, timeout)
}

// DialClient connects to a management server with explicit configuration.
func DialClient(addr string, cfg ClientConfig) (*Client, error) {
	return client.DialConfig(addr, cfg)
}

// Agent runs the complete newcomer protocol: probe landmarks over UDP,
// obtain the router path to the closest one from a PathProvider, and join
// through the management server.
type Agent = client.Agent

// PathProvider abstracts the traceroute-like tool.
type PathProvider = client.PathProvider

// PathProviderFunc adapts a function to PathProvider.
type PathProviderFunc = client.PathProviderFunc

// WireCandidate is a closest-peer answer received over the network; unlike
// Candidate it carries the peer's dialable overlay address.
type WireCandidate = proto.Candidate

// SimulationConfig configures a simulated deployment. See
// experiment.WorldConfig for field documentation.
type SimulationConfig = experiment.WorldConfig

// Simulation is a complete in-process deployment over a generated
// router-level topology: landmarks, tracer, and management server.
type Simulation = experiment.World

// NewSimulation builds a simulated deployment.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	return experiment.BuildWorld(cfg)
}

// HopDistances returns the hop distance from one router to every router of
// the simulation's topology (routing.Unreachable, −1, for disconnected
// routers). Examples and applications use it to score neighbour sets.
func HopDistances(sim *Simulation, from RouterID) ([]int32, error) {
	return routing.BFSDistances(sim.Graph, from)
}

// Overlay is the peer mesh built from closest-peer answers. Safe for
// concurrent use.
type Overlay = overlay.Overlay

// OverlayPeer describes one overlay participant.
type OverlayPeer = overlay.Peer

// NewOverlay returns an empty overlay mesh.
func NewOverlay() *Overlay { return overlay.New() }

// StreamConfig tunes a simulated live-streaming session.
type StreamConfig = streaming.Config

// StreamResult aggregates a finished streaming session.
type StreamResult = streaming.Result

// StreamSession is a mesh-based live-streaming broadcast simulation.
type StreamSession = streaming.Session

// HopFunc reports the underlay hop distance between two peers.
type HopFunc = streaming.HopFunc

// NewStreamSession prepares a broadcast from source over the mesh; hops
// supplies ground-truth hop distances (see HopDistances).
func NewStreamSession(mesh *Overlay, source PeerID, hops HopFunc, cfg StreamConfig) (*StreamSession, error) {
	return streaming.NewSession(mesh, source, hops, cfg)
}

// TopologyConfig configures topology generation for simulations.
type TopologyConfig = topology.Config

// TraceConfig tunes the simulated traceroute tool.
type TraceConfig = traceroute.Config

// DefaultTopology returns the paper-scale heavy-tailed router map
// configuration (~4000 routers, half of them degree-1 edge routers).
func DefaultTopology() TopologyConfig { return topology.DefaultConfig() }
