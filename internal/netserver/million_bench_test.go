package netserver

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/loadgen"
	"proxdisc/internal/topology"
)

// benchLandmarks are the million-peer node's landmarks.
var benchLandmarks = []topology.NodeID{0, 100, 200, 300}

// benchPathFor reports paths round-robin over benchLandmarks.
func benchPathFor(peer int64) []int32 {
	return loadgen.TreePath(int32(benchLandmarks[int(peer)%len(benchLandmarks)]), int(peer))
}

// runLoadAddr drives b.N joins through the loadgen harness and reports
// throughput. The run length is floored at 2 000 joins: at -benchtime 1x,
// b.N=1 would time connection setup instead of join throughput.
func runLoadAddr(b *testing.B, addr string, cfg loadgen.Config) {
	b.Helper()
	cfg.Addr = addr
	cfg.Joins = max(b.N, 2000)
	cfg.PathFor = benchPathFor
	res, err := loadgen.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors > 0 {
		b.Fatalf("%d joins failed", res.Errors)
	}
	b.ReportMetric(res.JoinsPerSec, "joins/s")
	b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
}

// millionNode caches the million-peer durable node across benchmark
// invocations: the harness re-runs the function with growing b.N, and
// refilling a million peers per run would swamp the measurement. The
// node (and its temp dir) intentionally outlive the benchmark and are
// reclaimed at process exit — this is a benchmark binary, not a server.
var millionNode struct {
	once sync.Once
	addr string
	err  error
	next atomic.Int64 // first unused peer ID for measured joins
}

const millionPeers = 1_000_000

// millionPeerAddr fills a single durable 4-shard node to one million
// resident peers (once per process) and returns its address.
func millionPeerAddr(b *testing.B) string {
	b.Helper()
	m := &millionNode
	m.once.Do(func() {
		dir, err := os.MkdirTemp("", "proxdisc-million-*")
		if err != nil {
			m.err = err
			return
		}
		logic, err := cluster.New(cluster.Config{
			Landmarks: benchLandmarks,
			Shards:    4,
			DataDir:   dir,
			// Group commit holds each fsync open briefly so concurrent
			// batches share it.
			MaxSyncDelay: 200 * time.Microsecond,
			SegmentBytes: 64 << 20,
			// No automatic checkpoints: a snapshot of a million-peer tree
			// mid-measurement would be its own (paced) benchmark. The
			// pacing knob is still set so a manual Checkpoint behaves as
			// production would.
			SnapshotEvery:         1 << 30,
			SnapshotBytes:         -1,
			CheckpointBytesPerSec: 64 << 20,
		})
		if err != nil {
			m.err = err
			return
		}
		ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic})
		if err != nil {
			m.err = err
			return
		}
		res, err := loadgen.Run(loadgen.Config{
			Addr:     ns.Addr(),
			Clients:  2,
			InFlight: 32,
			Batch:    256,
			Joins:    millionPeers,
			PathFor:  benchPathFor,
		})
		if err != nil {
			m.err = err
			return
		}
		if res.Errors > 0 {
			m.err = fmt.Errorf("million-peer fill: %d joins failed", res.Errors)
			return
		}
		m.addr = ns.Addr()
		m.next.Store(millionPeers + 1)
	})
	if m.err != nil {
		b.Fatalf("million-peer fill: %v", m.err)
	}
	return m.addr
}

// BenchmarkMillionPeerNode is the macro benchmark of the million-peer hot
// path: one durable node filled to 1e6 resident peers, then measured for
// steady-state batched join throughput and p99 (the joins/s and p99-ns
// metrics) and for lookup p99 against random resident peers
// (lookup-p99-ns). allocs/op covers the measured join phase only — the
// fill runs once, before the timer, and lookups run after StopTimer.
func BenchmarkMillionPeerNode(b *testing.B) {
	if testing.Short() {
		b.Skip("the million-peer fill takes on the order of a minute")
	}
	addr := millionPeerAddr(b)
	// Claim a fresh ID range so re-invocations at larger b.N measure
	// first-time inserts, not re-joins of peers already resident.
	n := int64(max(b.N, 2000)) // runLoadAddr floors the run length identically
	base := millionNode.next.Add(n) - n
	// Offered load scales with the core count: one pipelined connection per
	// processor, so a -cpu 4 run measures what the extra cores buy (the
	// sharded WAL and per-shard apply path) rather than how fast one
	// connection can feed a many-core server.
	clients := min(runtime.GOMAXPROCS(0), 8)
	b.ReportAllocs()
	b.ResetTimer()
	runLoadAddr(b, addr, loadgen.Config{
		Clients:  clients,
		InFlight: 16,
		Batch:    32,
		PeerBase: base,
	})
	b.StopTimer()

	c, err := client.Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const lookups = 2000
	lat := make([]time.Duration, 0, lookups)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < lookups; i++ {
		peer := rng.Int63n(millionPeers) + 1 // resident: fill used IDs 1..1e6
		start := time.Now()
		if _, err := c.Lookup(peer); err != nil {
			b.Fatalf("lookup of resident peer %d: %v", peer, err)
		}
		lat = append(lat, time.Since(start))
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[lookups*99/100].Nanoseconds()), "lookup-p99-ns")
}

// BenchmarkMillionPeerNodeParallel is the many-core stress shape of the
// macro benchmark: RunParallel writer goroutines — each owning a
// connection issuing 32-join batches — against background readers running
// lookups of resident peers for the whole measured window. Run with
// -cpu 1,4 to see the write plane scale; its contention profile
// (-mutexprofile/-blockprofile) is what drove the sharded WAL.
func BenchmarkMillionPeerNodeParallel(b *testing.B) {
	if testing.Short() {
		b.Skip("the million-peer fill takes on the order of a minute")
	}
	addr := millionPeerAddr(b)
	const batch = 32
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var lookFail atomic.Value
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			c, err := client.Dial(addr, 5*time.Second)
			if err != nil {
				lookFail.Store(err.Error())
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Lookup(rng.Int63n(millionPeers) + 1); err != nil {
					lookFail.Store(err.Error())
					return
				}
			}
		}(g)
	}
	var joins atomic.Int64
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		c, err := client.Dial(addr, 5*time.Second)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		items := make([]client.BatchItem, batch)
		for pb.Next() {
			lo := millionNode.next.Add(batch) - batch
			for k := range items {
				p := lo + int64(k)
				items[k] = client.BatchItem{Peer: p, Path: benchPathFor(p)}
			}
			res, err := c.JoinBatch(items)
			if err != nil {
				b.Error(err)
				return
			}
			for _, r := range res {
				if r.Err != nil {
					b.Error(r.Err)
					return
				}
			}
			joins.Add(batch)
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	readers.Wait()
	if msg, ok := lookFail.Load().(string); ok && msg != "" {
		b.Fatalf("concurrent lookup failed: %s", msg)
	}
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(joins.Load())/s, "joins/s")
	}
}
