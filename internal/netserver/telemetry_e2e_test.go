package netserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
)

// scrape fetches the Prometheus exposition and parses every sample line
// into series → value ("name{labels}" kept verbatim as the key).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue // +Inf etc. are irrelevant here
		}
		out[line[:sp]] = v
	}
	return out
}

// seriesWithPrefix returns the first series name matching the prefix (the
// way a dashboard matches a labeled family without knowing label values).
func seriesWithPrefix(samples map[string]float64, prefix string) (string, bool) {
	for name := range samples {
		if strings.HasPrefix(name, prefix) {
			return name, true
		}
	}
	return "", false
}

// TestMetricsEndpointEndToEnd is the observability acceptance test: a
// durable primary with a live follower serves /metrics over HTTP, and the
// series a deployment actually alerts on — request counts and latency per
// message type, WAL fsyncs and their wait, per-shard peer counts, the path
// trees' pool bytes and the peer index's, follower replication position —
// are present and move as traffic flows.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterGoMetrics(reg)

	clu, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100},
		Shards:    2,
		DataDir:   t.TempDir(),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	ns, err := Listen(Config{Telemetry: reg, Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	ops := httptest.NewServer(telemetry.NewOpsMux(reg))
	defer ops.Close()
	metricsURL := ops.URL + "/metrics"

	// A follower process (in-test: a 2-shard cluster copy) both makes
	// the primary register per-follower series and reports its own
	// position into the same registry.
	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	fol, err := StartFollower(FollowerConfig{
		Telemetry:   reg,
		Logger:      t.Logf,
		PrimaryAddr: ns.Addr(),
		Backend:     fsrv,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const joins = 20
	for p := int64(1); p <= joins; p++ {
		path := []int32{10, 0}
		if p%2 == 0 {
			path = []int32{210, 100}
		}
		if _, err := c.Join(p, "peer.one:41", path); err != nil {
			t.Fatalf("join %d: %v", p, err)
		}
	}
	if _, err := c.Lookup(1); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fol, clu)

	samples := scrape(t, metricsURL)

	// Request counts and latency per message type.
	if got := samples[`proxdisc_requests_total{type="join_request"}`]; got < joins {
		t.Fatalf("join_request count = %v, want >= %d", got, joins)
	}
	if got := samples[`proxdisc_requests_total{type="lookup_request"}`]; got < 1 {
		t.Fatalf("lookup_request count = %v, want >= 1", got)
	}
	if got := samples[`proxdisc_request_duration_seconds_count{type="join_request"}`]; got < joins {
		t.Fatalf("join_request latency observations = %v, want >= %d", got, joins)
	}
	if _, ok := seriesWithPrefix(samples, `proxdisc_request_duration_seconds_bucket{type="join_request"`); !ok {
		t.Fatal("no join_request latency buckets exported")
	}
	// Which road served them, and what the responses cost in writes.
	if in, pool := samples[`proxdisc_requests_by_road_total{road="inline"}`], samples[`proxdisc_requests_by_road_total{road="pool"}`]; in < 1 || pool < joins {
		t.Fatalf("requests by road: inline=%v pool=%v, want >= 1 and >= %d", in, pool, joins)
	}
	frames, flushes := samples["proxdisc_response_frames_total"], samples["proxdisc_response_flushes_total"]
	if frames < joins+1 || flushes < 1 || flushes > frames {
		t.Fatalf("response frames=%v flushes=%v, want frames >= %d and 1 <= flushes <= frames", frames, flushes, joins+1)
	}

	// Worker pool.
	if _, ok := samples["proxdisc_worker_queue_depth"]; !ok {
		t.Fatal("no worker queue depth gauge")
	}
	if samples["proxdisc_worker_pool_size"] <= 0 {
		t.Fatal("worker pool size gauge missing or zero")
	}

	// Durability: every acknowledged join fsynced the WAL.
	if got := samples["proxdisc_wal_fsyncs_total"]; got < 1 {
		t.Fatalf("wal fsyncs = %v, want >= 1", got)
	}
	if got := samples["proxdisc_wal_appends_total"]; got < joins {
		t.Fatalf("wal appends = %v, want >= %d", got, joins)
	}
	if got := samples["proxdisc_wal_append_duration_seconds_count"]; got < joins {
		t.Fatalf("wal append latency observations = %v, want >= %d", got, joins)
	}
	// One fsync-wait observation per sync cycle that fsynced: at least
	// one, and no more than the fsyncs they timed.
	if got := samples["proxdisc_wal_fsync_duration_seconds_count"]; got < 1 || got > samples["proxdisc_wal_fsyncs_total"] {
		t.Fatalf("wal fsync-wait observations = %v, want 1..%v", got, samples["proxdisc_wal_fsyncs_total"])
	}

	// Cluster plane: both shards hold peers and the totals agree.
	if got := samples[`proxdisc_shard_peers{shard="0"}`] + samples[`proxdisc_shard_peers{shard="1"}`]; got != joins {
		t.Fatalf("shard peer gauges sum to %v, want %d", got, joins)
	}
	if got := samples["proxdisc_peers"]; got != joins {
		t.Fatalf("proxdisc_peers = %v, want %d", got, joins)
	}
	if got := samples["proxdisc_shard_apply_total{shard=\"0\"}"] + samples["proxdisc_shard_apply_total{shard=\"1\"}"]; got < joins {
		t.Fatalf("shard applies sum to %v, want >= %d", got, joins)
	}
	// The trees' pools, in bytes: per landmark one router below the root,
	// alone in a one-node child run, one record per peer, and each 11-byte
	// text address in a 16-byte run (an IPv4 endpoint would take none). No
	// peer has left and no run has slack, so nothing is free.
	for series, want := range map[string]int{
		"nodes":   2 * pathtree.NodeBytes,
		"records": joins * pathtree.RecordBytes,
		"addrs":   joins * 16,
	} {
		live, free := `proxdisc_arena_bytes{pool="`+series+`",state="live"}`, `proxdisc_arena_bytes{pool="`+series+`",state="free"}`
		if got, ok := samples[live]; !ok || got != float64(want) {
			t.Fatalf("%s = %v (exported: %v), want %d", live, got, ok, want)
		}
		if got, ok := samples[free]; !ok || got != 0 {
			t.Fatalf("%s = %v (exported: %v), want 0", free, got, ok)
		}
	}
	// The peer index: one slot in use per peer, and its tables' empty slots
	// free, at a load of at most 0.9.
	index := func(samples map[string]float64) (live, free int) {
		return int(samples[`proxdisc_arena_bytes{pool="index",state="live"}`]), int(samples[`proxdisc_arena_bytes{pool="index",state="free"}`])
	}
	if live, free := index(samples); live != joins*server.IndexSlotBytes || free <= 0 || free%server.IndexSlotBytes != 0 || 10*live > 9*(live+free) {
		t.Fatalf("index bytes live %d, free %d; want %d live, a load of at most 0.9", live, free, joins*server.IndexSlotBytes)
	}

	// Replication, primary side: the hub tracks the follower by address.
	if got := samples["proxdisc_followers_connected"]; got != 1 {
		t.Fatalf("followers connected = %v, want 1", got)
	}
	ackedSeries, ok := seriesWithPrefix(samples, `proxdisc_follower_acked_seq{follower="`)
	if !ok {
		t.Fatal("no per-follower acked-seq gauge")
	}

	// Replication, follower side: caught up, so applied == committed head
	// and the lag gauge reads zero.
	if got := samples["proxdisc_follow_applied_seq"]; got != float64(clu.CommittedHead()) {
		t.Fatalf("follower applied seq = %v, want %d", got, clu.CommittedHead())
	}
	if got := samples["proxdisc_follow_lag"]; got != 0 {
		t.Fatalf("follower lag = %v, want 0 after waitApplied", got)
	}

	// Go runtime stats ride along on every scrape.
	if samples["go_goroutines"] <= 0 {
		t.Fatal("go_goroutines missing or zero")
	}
	if _, ok := samples["go_memstats_heap_alloc_bytes"]; !ok {
		t.Fatal("go_memstats_heap_alloc_bytes missing")
	}

	// The series MOVE: more traffic, higher counters and a higher acked
	// position under the same series names.
	for p := int64(joins + 1); p <= joins+10; p++ {
		if _, err := c.Join(p, "10.0.0.2:41", []int32{10, 0}); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, fol, clu)
	deadline := time.Now().Add(5 * time.Second)
	for {
		again := scrape(t, metricsURL)
		if again[`proxdisc_requests_total{type="join_request"}`] <= samples[`proxdisc_requests_total{type="join_request"}`] {
			t.Fatal("join_request count did not advance")
		}
		// The primary-side acked position trails the follower's applies by
		// one ack round trip; poll briefly for it to advance.
		if again[ackedSeries] > samples[ackedSeries] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower acked seq never advanced past %v", samples[ackedSeries])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A peer that leaves parks its record and its address's run as free, and
	// empties its index slot; a table does not shrink.
	liveBefore, freeBefore := index(scrape(t, metricsURL))
	if err := c.Leave(1); err != nil {
		t.Fatal(err)
	}
	again := scrape(t, metricsURL)
	if live, free := index(again); live != liveBefore-server.IndexSlotBytes || live+free != liveBefore+freeBefore || live != (joins+9)*server.IndexSlotBytes {
		t.Fatalf("index bytes after a leave: live %d, free %d; before it %d, %d", live, free, liveBefore, freeBefore)
	}
	if got := again[`proxdisc_arena_bytes{pool="records",state="free"}`]; got != float64(pathtree.RecordBytes) {
		t.Fatalf("free record bytes after a leave = %v, want %d", got, pathtree.RecordBytes)
	}
	if got := again[`proxdisc_arena_bytes{pool="addrs",state="free"}`]; got != 16 {
		t.Fatalf("free address bytes after a leave = %v, want 16", got)
	}

	// A departed follower's per-address series are unregistered, not left
	// to accrete forever.
	fol.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		again := scrape(t, metricsURL)
		_, still := seriesWithPrefix(again, `proxdisc_follower_acked_seq{follower="`)
		if !still && again["proxdisc_followers_connected"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("per-follower series survived the follower's departure")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
