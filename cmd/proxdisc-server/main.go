// Command proxdisc-server runs a proxdisc management server over TCP,
// optionally hosting landmark UDP probe responders in the same process (for
// single-machine and testbed deployments).
//
// Usage:
//
//	proxdisc-server -addr 127.0.0.1:7470 -landmarks 10,20,30 -host-landmarks
//	proxdisc-server -landmarks 10,20,30,40 -shards 4
//	proxdisc-server -landmarks 10,20 -data-dir /var/lib/proxdisc            # durable primary
//	proxdisc-server -landmarks 10,20 -follow primary-host:7470              # follower
//	proxdisc-server -landmarks 10 -metrics-addr 127.0.0.1:7471             # + ops endpoint
//
// Each landmark is a router identifier; peers report traceroute paths that
// terminate at one of them. With -host-landmarks the process also answers
// UDP probes for each landmark and advertises those addresses to clients.
// The management plane is a landmark-sharded cluster behind one TCP front
// end, of one shard unless -shards says more; any node refuses more -shards
// than -landmarks. With -follow ADDR the process is a follower: it checks
// that its -landmarks are the durable primary's, streams the primary's
// committed op log over TCP and applies it to a copy of its own shard count
// (catching up from a shipped checkpoint when it is behind the log's
// retention). No record and no checkpoint names a shard, so the follower
// deals the landmarks over its own -shards as a primary does. It serves
// reads from the copy, redirects writes to the primary, and logs its
// replication lag. A follower keeps its copy in memory only, so -follow
// refuses -data-dir.
//
// With -metrics-addr the process serves its operational surface over HTTP:
// Prometheus metrics at /metrics, expvar at /debug/vars, and the pprof
// profiling handlers under /debug/pprof/. Logging is structured (log/slog,
// text to stderr); -log-level picks the floor and -slow-op reports every
// request served slower than the given threshold at warning level with its
// request ID, message type and whether it was served inline on its
// connection's goroutine or by the worker pool (netserver.Config's
// SlowOpThreshold and SlowOp are the library-level hooks).
//
// # Durable state
//
// The TCP front end has no durable state of its own: -data-dir is the
// cluster's. The server keeps it under DIR/cluster (a DIR/front left by an
// older build is never opened) and shuts down cleanly on SIGINT/SIGTERM:
// connections drain, a final snapshot lands, and the WAL closes, leaving an
// empty tail for the next start.
//
// # Metrics
//
// Every proxdisc series the module registers, by layer. /metrics carries
// all of them but the client's, which a process exports when it dials with
// client.Config.Telemetry set.
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
//     proxdisc_scatter_fanout_total,
//     proxdisc_checkpoint_duration_seconds, and
//     proxdisc_arena_bytes{pool=nodes|records|addrs|index,state=live|free},
//     what the path trees' pools hold in use and free (parked on free
//     lists, and for nodes the slack of child runs), and the peer index's
//     slots in use and empty; for the last durable open,
//     proxdisc_recovery_load_seconds (the checkpoint load),
//     proxdisc_recovery_replay_seconds (the log tail's replay), and
//     proxdisc_recovery_serial_records (the tail's records applied
//     serially).
//   - Write-ahead log: proxdisc_wal_appends_total,
//     proxdisc_wal_fsyncs_total, proxdisc_wal_synced_records_total,
//     proxdisc_wal_append_duration_seconds, and
//     proxdisc_wal_fsync_duration_seconds, the fsync wait: one observation
//     per sync cycle, covering all of that cycle's fsync calls.
//   - Subscriptions: proxdisc_sub_active, proxdisc_sub_events_total,
//     proxdisc_sub_coalesced_total, proxdisc_sub_dropped_total, and
//     proxdisc_sub_resyncs_total.
//   - Client: proxdisc_client_inflight, proxdisc_client_retries_total,
//     proxdisc_client_redirects_total, and
//     proxdisc_client_failovers_total.
//   - Go runtime (telemetry.RegisterGoMetrics): go_goroutines,
//     go_memstats_* heap and GC gauges, and go_gc_* cycle and pause
//     counters.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/netserver"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// die logs at error level and exits; the fatal path of a slog binary.
func die(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7470", "TCP listen address")
		landmarks   = flag.String("landmarks", "0", "comma-separated landmark router IDs")
		lmAddrsCSV  = flag.String("landmark-addrs", "", "comma-separated UDP probe addresses, one per landmark (advertised to clients)")
		hostLMs     = flag.Bool("host-landmarks", false, "run UDP probe responders for all landmarks in this process")
		neighbors   = flag.Int("neighbors", server.DefaultNeighborCount, "closest peers returned per query")
		ttl         = flag.Duration("peer-ttl", 0, "expire peers silent for this long (0 = never)")
		sweep       = flag.Duration("sweep-interval", 30*time.Second, "expiry sweep period when -peer-ttl is set")
		shards      = flag.Int("shards", 1, "run a landmark-sharded cluster of this many shards")
		workers     = flag.Int("workers", 0, "worker pool size for pipelined writes; reads are served on their connection's goroutine (0 = 4×GOMAXPROCS)")
		maxBatch    = flag.Int("max-batch", 0, "largest batch join accepted (0 = wire-format maximum)")
		dataDir     = flag.String("data-dir", "", "directory for durable state (WAL + snapshots, under DIR/cluster); restart recovers the acknowledged peer set. A DIR/front left by an older build is never opened and is left as it is")
		follow      = flag.String("follow", "", "run as a replica of the durable primary at this TCP address: stream its op log, apply it to a local copy, serve reads and point writes at this address")
		syncDelay   = flag.Duration("max-sync-delay", 0, "hold each WAL group-commit fsync open this long so light load batches syncs (e.g. 500us; 0 = sync immediately)")
		snapBytes   = flag.Int64("snapshot-bytes", 0, "checkpoint after this many WAL bytes accumulate (0 = 4 MiB default, negative = op-count trigger only)")
		metricsAddr = flag.String("metrics-addr", "", "HTTP listen address for the ops endpoint (/metrics, /debug/vars, /debug/pprof/); empty = disabled")
		logLevel    = flag.String("log-level", "info", "log floor: debug, info, warn, or error")
		slowOp      = flag.Duration("slow-op", 0, "warn about any request served slower than this (0 = disabled)")
	)
	flag.Parse()

	lvl := new(slog.LevelVar)
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "proxdisc-server: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	// Printf-style diagnostics from the libraries flow into slog at info.
	logf := func(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) }

	reg := telemetry.Default()
	telemetry.RegisterGoMetrics(reg)
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			die("metrics listener failed", "addr", *metricsAddr, "err", err)
		}
		srv := &http.Server{Handler: telemetry.NewOpsMux(reg)}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				slog.Error("metrics endpoint failed", "err", err)
			}
		}()
		defer srv.Close()
		slog.Info("ops endpoint listening", "addr", ln.Addr().String())
	}

	lmIDs, err := parseLandmarks(*landmarks)
	if err != nil {
		die("bad -landmarks", "err", err)
	}
	if *shards < 1 {
		die("-shards must be at least 1", "shards", *shards)
	}
	if err := shardsBeyondLandmarks(*shards, len(lmIDs)); err != nil {
		die(err.Error())
	}
	// Follower mode: a replica whose copy is fed by the primary's op
	// stream, over the primary's landmarks.
	if *follow != "" {
		if err := followConflict(*dataDir); err != nil {
			die(err.Error())
		}
		if err := primaryLandmarks(*follow, lmIDs, 15*time.Second); err != nil {
			die("landmark check failed", "primary", *follow, "err", err)
		}
	}
	// A follower's copy must expire peers only through the primary's
	// replicated ExpireOps — a locally clocked TTL sweep would race
	// in-flight refreshes and permanently diverge the copy (the leave is
	// local, the refresh arrives for a peer already gone).
	localTTL := *ttl
	if *follow != "" {
		localTTL = 0
	}
	// The cluster owns the WAL and the snapshot cadence.
	clusterDir := ""
	if *dataDir != "" {
		clusterDir = filepath.Join(*dataDir, "cluster")
	}
	clu, err := cluster.New(cluster.Config{
		Landmarks:     lmIDs,
		Shards:        *shards,
		NeighborCount: *neighbors,
		PeerTTL:       localTTL,
		DataDir:       clusterDir,
		MaxSyncDelay:  *syncDelay,
		SnapshotBytes: *snapBytes,
		Telemetry:     reg,
	})
	if err != nil {
		die("backend start failed", "err", err)
	}
	if clu.NumPeers() > 0 {
		slog.Info("recovered durable state", "peers", clu.NumPeers(), "dir", *dataDir)
		ds := clu.DurabilityStats()
		slog.Info("durable state",
			"snapshot_seq", ds.SnapshotSeq, "wal_tail", ds.TailRecords, "load", ds.LoadTime, "replay", ds.ReplayTime,
			"serial_records", ds.SerialRecords)
	}

	// Follower mode: feed the local copy from the primary's op stream and
	// log the replication position periodically.
	var follower *netserver.Follower
	if *follow != "" {
		follower, err = netserver.StartFollower(netserver.FollowerConfig{
			Telemetry:   reg,
			Logger:      logf,
			PrimaryAddr: *follow,
			Backend:     clu,
		})
		if err != nil {
			die("follow failed", "primary", *follow, "err", err)
		}
		defer follower.Close()
		go func() {
			t := time.NewTicker(10 * time.Second)
			defer t.Stop()
			for range t.C {
				slog.Info("replication",
					"applied", follower.Applied(), "head", follower.Head(), "lag", follower.Lag())
			}
		}()
	}

	lmAddrs := make(map[topology.NodeID]string)
	if *hostLMs {
		for _, lm := range lmIDs {
			resp, err := netserver.ListenLandmark("127.0.0.1:0")
			if err != nil {
				die("landmark responder failed", "landmark", lm, "err", err)
			}
			defer resp.Close()
			lmAddrs[lm] = resp.Addr()
			slog.Info("landmark probe responder", "landmark", lm, "addr", resp.Addr())
		}
	} else if *lmAddrsCSV != "" {
		parts := strings.Split(*lmAddrsCSV, ",")
		if len(parts) != len(lmIDs) {
			die("landmark address count mismatch", "addrs", len(parts), "landmarks", len(lmIDs))
		}
		for i, lm := range lmIDs {
			lmAddrs[lm] = strings.TrimSpace(parts[i])
		}
	}

	ns, err := netserver.Listen(netserver.Config{
		Telemetry:       reg,
		Logger:          logf,
		Addr:            *addr,
		Server:          clu,
		LandmarkAddrs:   lmAddrs,
		Workers:         *workers,
		MaxBatch:        *maxBatch,
		Replication:     follower,
		SlowOpThreshold: *slowOp,
		SlowOp: func(id uint64, typ proto.MsgType, d time.Duration, inline bool) {
			slog.Warn("slow request", "id", id, "type", typ.String(), "inline", inline, "took", d)
		},
	})
	if err != nil {
		die("listen failed", "addr", *addr, "err", err)
	}
	roleName := "primary"
	if *follow != "" {
		roleName = fmt.Sprintf("follower of %s", *follow)
	}
	slog.Info("management server listening",
		"addr", ns.Addr(), "landmarks", fmt.Sprint(lmIDs), "k", *neighbors,
		"shards", *shards, "role", roleName)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *ttl > 0 && *follow == "" {
		ticker := time.NewTicker(*sweep)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if expired := clu.Expire(); len(expired) > 0 {
					slog.Info("expired silent peers", "count", len(expired))
				}
			}
		}()
	}
	<-stop
	// Graceful shutdown: stop accepting and drain in-flight connections
	// first, then flush a final snapshot and close the WAL cleanly, so the
	// next start replays an empty log tail.
	slog.Info("shutting down: draining connections")
	if err := ns.Close(); err != nil {
		slog.Warn("close", "err", err)
	}
	if follower != nil {
		slog.Info("replication at shutdown",
			"applied", follower.Applied(), "head", follower.Head(), "lag", follower.Lag())
		follower.Close()
	}
	if clu.Durable() {
		ds := clu.DurabilityStats()
		slog.Info("durable state",
			"snapshot_seq", ds.SnapshotSeq, "wal_tail", ds.TailRecords,
			"fsyncs", ds.Log.Fsyncs, "records_per_sync", fmt.Sprintf("%.1f", avgBatch(ds.Log)))
		slog.Info("flushing final snapshot and closing WAL")
		if err := clu.Close(); err != nil {
			slog.Warn("durable close", "err", err)
		}
	}
	st := clu.Stats()
	fmt.Printf("final stats: peers=%d joins=%d leaves=%d expiries=%d queries=%d\n",
		st.Peers, st.Joins, st.Leaves, st.Expiries, st.Queries)
}

// followConflict reports why flags given with -follow cannot stand: a
// follower keeps its copy in memory.
func followConflict(dataDir string) error {
	if dataDir != "" {
		return errors.New("-follow keeps its copy in memory only (a durable follower is not supported); drop -data-dir")
	}
	return nil
}

// shardsBeyondLandmarks refuses more shards than landmarks. The landmark is
// the unit of sharding, and nothing in this process moves one, so a shard
// beyond the landmark count would stay empty for good.
func shardsBeyondLandmarks(shards, landmarks int) error {
	if shards > landmarks {
		return fmt.Errorf("-shards %d exceeds the %d landmarks of -landmarks: a shard holds whole landmarks, so at most %d can hold any", shards, landmarks, landmarks)
	}
	return nil
}

// primaryLandmarks asks the primary at addr for its landmarks and refuses a
// follower's that differ, naming both sets: every record the primary ships
// names one of its landmarks, and one the copy lacks fails the record.
func primaryLandmarks(addr string, lms []topology.NodeID, timeout time.Duration) error {
	c, err := client.Dial(addr, timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Landmarks()
	if err != nil {
		return err
	}
	primary := make([]topology.NodeID, len(resp.Routers))
	for i, r := range resp.Routers {
		primary[i] = topology.NodeID(r)
	}
	slices.Sort(primary)
	if own := slices.Sorted(slices.Values(lms)); !slices.Equal(own, primary) {
		return fmt.Errorf("-landmarks %v differ from the primary's %v", own, primary)
	}
	return nil
}

// avgBatch is the average group-commit batch: records per fsync.
func avgBatch(m wal.Metrics) float64 {
	if m.Fsyncs == 0 {
		return 0
	}
	return float64(m.SyncedRecords) / float64(m.Fsyncs)
}

func parseLandmarks(s string) ([]topology.NodeID, error) {
	var out []topology.NodeID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad landmark %q: %w", part, err)
		}
		out = append(out, topology.NodeID(id))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no landmarks in %q", s)
	}
	return out, nil
}
