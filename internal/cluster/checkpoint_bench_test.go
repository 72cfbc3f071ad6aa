package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"proxdisc/internal/loadgen"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// BenchmarkCheckpoint prices a checkpoint and the reopen that loads it, on
// the benchmark's shape: a 4-shard durable NoSync cluster holding
// loadgen.TreePath peers at random leaves over landmarks 0/100/200/300,
// with 10.a.b.c:7000 addresses, joined in batches of 256. Each iteration
// checkpoints the node at rest and opens a copy of its directory. It
// reports the checkpoint's wall time, the bytes allocated during it, the
// file's bytes per peer and the reopen's DurabilityStats().LoadTime. The
// 1 000 000-peer case runs without -short:
//
//	go test -run '^$' -bench Checkpoint -benchtime 3x ./internal/cluster
func BenchmarkCheckpoint(b *testing.B) {
	sizes := []int{50_000}
	if !testing.Short() {
		sizes = append(sizes, 1_000_000)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			c := checkpointFixture(b, dir, n)
			defer c.Close()
			var ckpt, load time.Duration
			var allocated, size float64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				t0 := time.Now()
				if err := c.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				ckpt += time.Since(t0)
				runtime.ReadMemStats(&after)
				allocated += float64(after.TotalAlloc - before.TotalAlloc)
				snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
				if err != nil || len(snaps) != 1 {
					b.Fatalf("snapshots: %v err=%v", snaps, err)
				}
				fi, err := os.Stat(snaps[0])
				if err != nil {
					b.Fatal(err)
				}
				size += float64(fi.Size())

				copied := b.TempDir()
				copyDataDir(b, dir, copied)
				re, err := New(checkpointBenchConfig(copied))
				if err != nil {
					b.Fatal(err)
				}
				if re.NumPeers() != n {
					b.Fatalf("reopened %d peers, want %d", re.NumPeers(), n)
				}
				load += re.DurabilityStats().LoadTime
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(copied)
			}
			iters := float64(b.N)
			b.ReportMetric(ckpt.Seconds()*1e3/iters, "ckpt-ms")
			b.ReportMetric(allocated/1e6/iters, "ckpt-alloc-MB")
			b.ReportMetric(size/iters/float64(n), "file-B/peer")
			b.ReportMetric(load.Seconds()*1e3/iters, "reopen-ms")
		})
	}
}

// checkpointBenchConfig is the benchmark node's configuration: no checkpoint
// on a trigger, so only the benchmark's own calls write one.
func checkpointBenchConfig(dir string) Config {
	return Config{
		Landmarks:     []topology.NodeID{0, 100, 200, 300},
		Shards:        4,
		DataDir:       dir,
		NoSync:        true,
		SnapshotEvery: 1 << 30,
		SnapshotBytes: -1,
	}
}

// checkpointFixture opens a node in dir and joins n peers to it.
func checkpointFixture(b *testing.B, dir string, n int) *Cluster {
	b.Helper()
	c, err := New(checkpointBenchConfig(dir))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	lms := []int32{0, 100, 200, 300}
	entries := make([]op.JoinEntry, 0, op.MaxBatch)
	for p := 0; p < n; {
		entries = entries[:0]
		for ; len(entries) < op.MaxBatch && p < n; p++ {
			raw := loadgen.TreePath(lms[p%len(lms)], rng.Intn(200_000))
			path := make([]topology.NodeID, len(raw))
			for j, r := range raw {
				path[j] = topology.NodeID(r)
			}
			entries = append(entries, op.JoinEntry{
				Peer: pathtree.PeerID(p + 1),
				Addr: fmt.Sprintf("10.%d.%d.%d:7000", byte(p>>16), byte(p>>8), byte(p)),
				Path: path,
			})
		}
		for _, res := range c.JoinBatchOp(op.BatchJoin(entries, int64(1_700_000_000_000_000_000+p))) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	return c
}
