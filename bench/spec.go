package main

import "time"

// The benchmark's frozen shape: workloads, sizes and metric names. Names
// here are normative — BENCHMARK.json lists the same ones (checked by
// TestManifestMatchesSpec) and later issues quote them.

// Sizes at -seconds 12; phase lengths and op counts scale linearly with
// -seconds so the same seed always yields the same stream at a given length.
const (
	refSeconds    = 12
	rounds        = 3      // a run is this many rounds, each on a fresh node; every end-to-end metric is a median over them
	prefillPeers  = 50_000 // resident peers before any measured phase
	prefillBatch  = 256
	prefillFlight = 4 // in-flight prefill batches per connection
	openSeconds   = 4 // traced run: open-loop phase length at refSeconds
	closedChunks  = 40
	warmupChunks  = 4
	checkpoints   = 3 // traced run: Checkpoint() calls under closed-loop load
	oracleLookups = 2000
	oracleJoins   = 200
	leafSpace     = 200_000 // loadgen.TreePath leaf range
	neighborCount = 5       // server.DefaultNeighborCount
	ladderOwnReqs = 2000    // traced run: the workload's first requests
	ladderSyncOps = 300     // write requests replayed through fsync rungs
	openWorkers   = 64      // per connection; equals client.DefaultMaxInFlight
	// maxLateShare is the percentage of open-loop requests that may start
	// over 1ms late before the run is stamped invalid. The generator shares
	// two CPUs and one Go runtime with the server, so a few per cent lose a
	// scheduling quantum to a garbage collection; ten means it is starved.
	maxLateShare = 10
)

var landmarks = []int32{0, 100, 200, 300}

// syncDelay is the node's WAL group-commit window.
const syncDelay = 200 * time.Microsecond

// reqKind is a request type the generator emits.
type reqKind uint8

const (
	kindJoin reqKind = iota
	kindBatch
	kindLookup
	kindLeave
	kindRefresh
	numKinds
)

func (k reqKind) String() string {
	return [...]string{"join", "batch", "lookup", "leave", "refresh"}[k]
}

// isWrite reports whether the kind commits a WAL record.
func (k reqKind) isWrite() bool { return k != kindLookup }

// spec is one workload: a traffic mix run through the common round
// (setup → checkpoint → closed loop → memory → oracle → crash copy and
// recovery) and, in a traced run, through the diagnostic pass and ladder.
type spec struct {
	name string
	why  string
	// mix gives the weight of each primary request kind.
	mix [numKinds]int
	// batch is the joins per kindBatch request.
	batch int
	// openRate is the traced open-loop phase's primary request rate per
	// second over all connections.
	openRate int
	// bgWriteRate paces background writes (half Refresh, half re-Join of a
	// resident peer under another path) beside the primary stream.
	bgWriteRate int
	// inFlight is the closed-loop depth per connection.
	inFlight int
	// closedReqs is one round's closed-loop primary request count at
	// refSeconds.
	closedReqs int
}

var specs = []spec{
	{
		name:     "flash_crowd",
		why:      "JoinBatch of 32 new peers, 2 conns x 16 in flight: CPU-bound write path (codec, double apply, pathtree, op encode), fsync amortised, heap growing 3.5x under the collector; recovery replays a long tail",
		mix:      [numKinds]int{kindBatch: 1},
		batch:    32,
		openRate: 100, inFlight: 16, closedReqs: 4000,
	},
	{
		name:     "read_mostly",
		why:      "Lookups of random resident peers, 2 conns x 8 in flight, beside 200 paced writes/s: left-right read side, Closest, lookup codec, per-request netserver cost; WAL idle; recovery is snapshot load",
		mix:      [numKinds]int{kindLookup: 1},
		openRate: 1000, bgWriteRate: 200, inFlight: 8, closedReqs: 96000,
	},
}

// batchSize is the joins per batch request; workloads without batches of
// their own still meet some in the ladder's tail.
func (sp spec) batchSize() int {
	if sp.batch > 0 {
		return sp.batch
	}
	return 32
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
}

// endToEnd lists the metrics every workload reports from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"rtt_p50_us", "us", "lower", 0.25},
	{"bytes_per_peer", "B", "lower", 0.05},
	{"recovery_s", "s", "lower", 0.25},
}

// perLayer lists the metrics every workload reports from a traced run.
// Ladder numbers replay the workload's first requests (plus a small tail
// covering every request kind) single-threaded through a standalone
// instance of each layer; live numbers are deltas of exported stats over
// the untraced phases that precede the ladder in the same process.
var perLayer = []metricDef{
	// pathtree (ladder)
	{Name: "pathtree.join_ns", Unit: "ns", Better: "lower"},
	{Name: "pathtree.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "pathtree.remove_ns", Unit: "ns", Better: "lower"},
	{Name: "pathtree.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "pathtree.arena_live_nodes", Unit: "count", Better: "lower"},
	{Name: "pathtree.arena_free_nodes", Unit: "count", Better: "lower"},
	// server (ladder)
	{Name: "server.join_ns", Unit: "ns", Better: "lower"},
	{Name: "server.join_self_ns", Unit: "ns", Better: "lower"},
	{Name: "server.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "server.lookup_self_ns", Unit: "ns", Better: "lower"},
	{Name: "server.leave_ns", Unit: "ns", Better: "lower"},
	{Name: "server.refresh_ns", Unit: "ns", Better: "lower"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.bytes_per_peer", Unit: "B", Better: "lower"},
	// cluster (ladder + live)
	{Name: "cluster.join_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.join_self_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.lookup_self_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.durable_nosync_join_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.durable_join_us", Unit: "us", Better: "lower"},
	{Name: "cluster.durable_batch_us", Unit: "us", Better: "lower"},
	{Name: "cluster.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "cluster.checkpoint_loaded_s", Unit: "s", Better: "lower"},
	{Name: "cluster.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.replay_s", Unit: "s", Better: "lower"},
	{Name: "cluster.snapshot_load_s", Unit: "s", Better: "lower"},
	// op (ladder)
	{Name: "op.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "op.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "op.bytes_per_join", Unit: "B", Better: "lower"},
	// wal (ladder + live)
	{Name: "wal.append_nosync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.fsyncs_per_op", Unit: "count", Better: "lower"},
	// proto (ladder)
	{Name: "proto.join_req_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.join_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.batch_req_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.batch_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.bytes_per_join_req", Unit: "B", Better: "lower"},
	{Name: "proto.bytes_per_join_resp", Unit: "B", Better: "lower"},
	{Name: "proto.allocs_per_op", Unit: "count", Better: "lower"},
	// netserver + client (ladder root + live diagnostics)
	{Name: "client.join_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.batch_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.lookup_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netserver.join_rtt_self_us", Unit: "us", Better: "lower"},
	{Name: "netserver.lookup_rtt_self_us", Unit: "us", Better: "lower"},
	{Name: "client.chunk_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.rtt_p90_us", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.rtt_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ckpt_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_max_ms", Unit: "ms", Better: "lower"},
	{Name: "netserver.follow_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "netserver.follow_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "netserver.follow_max_lag_records", Unit: "count", Better: "lower"},
	{Name: "netserver.follow_catchup_s", Unit: "s", Better: "lower"},
	// sub (ladder + live)
	{Name: "sub.feed_ns", Unit: "ns", Better: "lower"},
	{Name: "sub.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sub.push_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sub.push_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sub.dropped", Unit: "count", Better: "lower"},
	// telemetry (ladder)
	{Name: "telemetry.join_overhead_ns", Unit: "ns", Better: "lower"},
	// loadgen: the benchmark's own open-loop generator
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_share", Unit: "%", Better: "lower"},
	{Name: "loadgen.achieved_rate", Unit: "1/s", Better: "higher"},
	// process: server and generator together, one process
	{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "process.cpu_busy_share", Unit: "%", Better: "higher"},
	{Name: "process.probe_pass_us", Unit: "us", Better: "lower"},
	// raw: the corrected end-to-end timings as the clock read them
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "raw.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "raw.recovery_s", Unit: "s", Better: "lower"},
	// trace
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "%", Better: "lower"},
	{Name: "trace.ladder_gap_share", Unit: "%", Better: "lower"},
}
