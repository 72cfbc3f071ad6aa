// Benchmarks regenerating every figure of the paper plus the ablation
// studies (see DESIGN.md §3 for the experiment index). Each experiment
// bench reports the figure's headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both measures the implementation and reprints the reproduced results.
package proxdisc

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/conf"
	"proxdisc/internal/experiment"
	"proxdisc/internal/loadgen"
	"proxdisc/internal/netserver"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/sub"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
	"proxdisc/internal/traceroute"
	"proxdisc/internal/wal"
)

// benchWorld is the standard world for experiment benches: the paper-scale
// map kept at a size where one full pipeline run stays under a second.
func benchWorld(seed int64) experiment.WorldConfig {
	return experiment.WorldConfig{
		Topology: topology.Config{
			Model:        topology.ModelBarabasiAlbert,
			CoreRouters:  2000,
			LeafRouters:  2000,
			EdgesPerNode: 2,
			Seed:         seed,
		},
		NumLandmarks: 8,
		Seed:         seed,
	}
}

// BenchmarkFig1PeerSweep regenerates the paper's figure (E1): one
// sub-benchmark per x-position, reporting both curves as metrics.
func BenchmarkFig1PeerSweep(b *testing.B) {
	for _, n := range []int{600, 800, 1000, 1200, 1400} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			var last experiment.Fig1Point
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunFig1(experiment.Fig1Config{
					PeerCounts:  []int{n},
					SamplePeers: 150,
					World:       benchWorld(1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Points[0]
			}
			b.ReportMetric(last.DOverDclosest, "D/Dclosest")
			b.ReportMetric(last.DrandomOverDclosest, "Drandom/Dclosest")
		})
	}
}

// BenchmarkAblationLandmarkCount is E2.
func BenchmarkAblationLandmarkCount(b *testing.B) {
	for _, c := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("landmarks=%d", c), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunLandmarkCountSweep(benchWorld(2), []int{c}, 800, 120)
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Points[0].DOverDclosest
			}
			b.ReportMetric(ratio, "D/Dclosest")
		})
	}
}

// BenchmarkAblationPlacement is E3.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, band := range []topology.DegreeBand{topology.BandLeaf, topology.BandMedium, topology.BandCore} {
		b.Run("band="+band.String(), func(b *testing.B) {
			cfg := benchWorld(3)
			cfg.LandmarkBand = band
			var ratio float64
			for i := 0; i < b.N; i++ {
				w, err := experiment.BuildWorld(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.JoinN(800); err != nil {
					b.Fatal(err)
				}
				q, err := w.EvaluateQuality(120)
				if err != nil {
					b.Fatal(err)
				}
				ratio = q.DOverDclosest()
			}
			b.ReportMetric(ratio, "D/Dclosest")
		})
	}
}

// BenchmarkQuicknessVsCoordinates is E4, the headline comparison.
func BenchmarkQuicknessVsCoordinates(b *testing.B) {
	var res *experiment.QuicknessResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunQuickness(experiment.QuicknessConfig{
			Peers:         300,
			World:         benchWorld(4),
			VivaldiRounds: []int{5, 20},
			SamplePeers:   100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range res.Points {
		b.Logf("%-28s probes/peer=%8.2f  D/Dclosest=%.4f", p.System, p.ProbesPerPeer, p.DOverDclosest)
	}
	b.ReportMetric(res.Points[0].DOverDclosest, "pathtree-D/Dclosest")
	b.ReportMetric(res.Points[0].ProbesPerPeer, "pathtree-probes/peer")
}

// BenchmarkAblationTopology is E5: one sub-benchmark per topology model,
// each running the full pipeline on that model.
func BenchmarkAblationTopology(b *testing.B) {
	for _, m := range []topology.Model{topology.ModelBarabasiAlbert, topology.ModelWaxman, topology.ModelTransitStub} {
		b.Run("model="+m.String(), func(b *testing.B) {
			cfg := benchWorld(5)
			cfg.Topology.Model = m
			var ratio float64
			for i := 0; i < b.N; i++ {
				w, err := experiment.BuildWorld(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.JoinN(600); err != nil {
					b.Fatal(err)
				}
				q, err := w.EvaluateQuality(100)
				if err != nil {
					b.Fatal(err)
				}
				ratio = q.DOverDclosest()
			}
			b.ReportMetric(ratio, "D/Dclosest")
		})
	}
}

// BenchmarkChurn is E6.
func BenchmarkChurn(b *testing.B) {
	var res *experiment.ChurnResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunChurn(experiment.ChurnConfig{
			World:       benchWorld(6),
			Arrivals:    600,
			SamplePeers: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].StaleAnswerFraction, "stale-frac-nocleanup")
	b.ReportMetric(res.Points[1].StaleAnswerFraction, "stale-frac-cleanup")
}

// BenchmarkSuperPeers is E7.
func BenchmarkSuperPeers(b *testing.B) {
	var res *experiment.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunSuperPeerSweep(benchWorld(7), []float64{0.05}, 600, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].DOverDclosest, "D/Dclosest")
}

// BenchmarkTruncatedTraceroute is E8.
func BenchmarkTruncatedTraceroute(b *testing.B) {
	variants := []struct {
		name  string
		trace traceroute.Config
	}{
		// key=value names: a trailing -N would be ambiguous with the
		// GOMAXPROCS suffix go test appends on multi-core machines.
		{"full", traceroute.Config{}},
		{"keep-every=2", traceroute.Config{KeepEvery: 2}},
		{"prefix=4", traceroute.Config{PrefixHops: 4}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchWorld(8)
			cfg.Trace = v.trace
			var ratio float64
			for i := 0; i < b.N; i++ {
				w, err := experiment.BuildWorld(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.JoinN(800); err != nil {
					b.Fatal(err)
				}
				q, err := w.EvaluateQuality(120)
				if err != nil {
					b.Fatal(err)
				}
				ratio = q.DOverDclosest()
			}
			b.ReportMetric(ratio, "D/Dclosest")
		})
	}
}

// BenchmarkStreamingSetup is E9.
func BenchmarkStreamingSetup(b *testing.B) {
	var res *experiment.StreamingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunStreaming(experiment.StreamingConfig{
			World: benchWorld(9),
			Peers: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range res.Points {
		b.Logf("%-10s link-hops=%.2f delivery=%.1fms setup-p95=%.0fms",
			p.Label, p.MeanLinkHops, p.MeanDeliveryMS, p.P95SetupMS)
	}
	b.ReportMetric(res.Points[0].MeanLinkHops, "proximity-link-hops")
	b.ReportMetric(res.Points[1].MeanLinkHops, "random-link-hops")
}

// BenchmarkHandover is E11: the measurement cost and quality recovery of
// peer mobility.
func BenchmarkHandover(b *testing.B) {
	var res *experiment.HandoverResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunHandover(benchWorld(11), 600, 0.2, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ProbesPerHandover, "probes/handover")
	b.ReportMetric(res.QualityAfter, "D/Dclosest-after")
}

// --- E10: data-structure complexity checks ---

// buildTreePaths pre-generates realistic peer→landmark paths: paths of a
// destination-rooted routing tree, exactly what the management server
// receives in deployment. A synthetic bounded-branching hierarchy stands in
// for the routing tree (each router's next hop toward landmark 0 is
// deterministic), with peers hanging off random edge routers.
func buildTreePaths(n int, seed int64) [][]topology.NodeID {
	rng := rand.New(rand.NewSource(seed))
	const (
		fanout      = 8       // children per router in the routing tree
		edgeRouters = 200_000 // router ID space at the edge
	)
	paths := make([][]topology.NodeID, n)
	for i := range paths {
		// Pick a random edge router and climb toward the root: the parent
		// of router r is (r-1)/fanout, giving depth ~log_8(id) ≈ 6.
		r := topology.NodeID(1 + rng.Intn(edgeRouters))
		var path []topology.NodeID
		for r > 0 {
			path = append(path, r)
			r = (r - 1) / fanout
		}
		paths[i] = append(path, 0)
	}
	return paths
}

// BenchmarkPathTreeInsert measures insertion cost versus population (the
// paper claims O(log n)-like growth; being trie-based it is O(path length),
// independent of n).
func BenchmarkPathTreeInsert(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("prepop=%d", n), func(b *testing.B) {
			pre := buildTreePaths(n, 1)
			extra := buildTreePaths(10_000, 2)
			tree := pathtree.New(0, pathtree.Options{})
			for i, p := range pre {
				if err := tree.Insert(pathtree.PeerID(i+1), p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := extra[i%len(extra)]
				id := pathtree.PeerID(n + 1 + i)
				if err := tree.Insert(id, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPathTreeQuery measures closest-peer query cost versus population
// (the paper claims O(1); ours follows the routers within the kth-best
// distance, so it falls as n grows — pathtree.TestClosestVisitsBounded pins
// the node count, CI gates the 1k:100k time ratio).
func BenchmarkPathTreeQuery(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			paths := buildTreePaths(n, 3)
			tree := pathtree.New(0, pathtree.Options{})
			for i, p := range paths {
				if err := tree.Insert(pathtree.PeerID(i+1), p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := pathtree.PeerID(i%n + 1)
				if _, err := tree.Closest(id, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPathTreeJoin measures the join-shaped call pair the management
// server makes per newcomer — ClosestToPathExcluding on the reported path,
// then Insert — versus population.
func BenchmarkPathTreeJoin(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			pre := buildTreePaths(n, 5)
			extra := buildTreePaths(10_000, 6)
			tree := pathtree.New(0, pathtree.Options{})
			for i, p := range pre {
				if err := tree.Insert(pathtree.PeerID(i+1), p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := extra[i%len(extra)]
				id := pathtree.PeerID(n + 1 + i)
				if _, err := tree.ClosestToPathExcluding(p, 5, id); err != nil {
					b.Fatal(err)
				}
				if err := tree.Insert(id, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPathTreeDTree measures the pairwise distance primitive.
func BenchmarkPathTreeDTree(b *testing.B) {
	paths := buildTreePaths(10_000, 4)
	tree := pathtree.New(0, pathtree.Options{})
	for i, p := range paths {
		if err := tree.Insert(pathtree.PeerID(i+1), p); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pathtree.PeerID(i%10_000 + 1)
		q := pathtree.PeerID((i*7)%10_000 + 1)
		if _, err := tree.DTree(p, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathTreeChurn measures the steady-state insert/remove cycle on
// a prefilled tree — the shape a long-lived landmark tree sees once its
// population stabilizes. The warmup pass before the timer sets the arena
// high-water mark and grows every slice to capacity, so the
// measured loop runs entirely on recycled nodes: the committed baseline
// pins it at 0 allocs/op, which is the gate on the slab allocator (a
// regression to per-insert heap nodes fails CI deterministically).
func BenchmarkPathTreeChurn(b *testing.B) {
	const resident = 10_000
	pre := buildTreePaths(resident, 1)
	tree := pathtree.New(0, pathtree.Options{})
	for i, p := range pre {
		if err := tree.Insert(pathtree.PeerID(i+1), p); err != nil {
			b.Fatal(err)
		}
	}
	churn := buildTreePaths(256, 2)
	const churnID = pathtree.PeerID(resident + 1)
	// Warmup: one full cycle over every churn path recycles each path's
	// nodes through the arena once, so the measured loop re-carves nothing.
	for _, p := range churn {
		if err := tree.Insert(churnID, p); err != nil {
			b.Fatal(err)
		}
		tree.Remove(churnID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := churn[i%len(churn)]
		if err := tree.Insert(churnID, p); err != nil {
			b.Fatal(err)
		}
		tree.Remove(churnID)
	}
	b.StopTimer()
	st := tree.ArenaStats()
	b.ReportMetric(float64(st.Allocated), "arena-nodes")
}

// --- cluster benchmarks: the sharding speedup trajectory ---

// benchClusterLandmarks is a 16-landmark set so the same workload runs at
// 1, 4, and 16 shards.
var benchClusterLandmarks = func() []topology.NodeID {
	lms := make([]topology.NodeID, 16)
	for i := range lms {
		lms[i] = topology.NodeID(i * 100)
	}
	return lms
}()

// buildClusterPath generates a routing-tree path to one landmark, in a
// per-landmark router ID block (cf. buildTreePaths).
func buildClusterPath(lm topology.NodeID, leaf int) []topology.NodeID {
	base := topology.NodeID(1_000_000 * (int(lm) + 1))
	r := base + topology.NodeID(1+leaf%200_000)
	var path []topology.NodeID
	for r > base {
		path = append(path, r)
		r = base + (r-base-1)/8
	}
	return append(path, lm)
}

// benchCluster builds a cluster pre-populated with peers spread over all
// landmarks.
func benchCluster(b *testing.B, shards, prepop int) *cluster.Cluster {
	b.Helper()
	c, err := cluster.New(cluster.Config{Landmarks: benchClusterLandmarks, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(shards)))
	for i := 0; i < prepop; i++ {
		lm := benchClusterLandmarks[i%len(benchClusterLandmarks)]
		if _, err := c.Join(pathtree.PeerID(i+1), buildClusterPath(lm, rng.Intn(200_000))); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkClusterJoin measures concurrent join throughput at 1, 4, and 16
// shards: every join locks only its landmark's shard, so throughput should
// scale with the shard count until the router is the bottleneck.
func BenchmarkClusterJoin(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCluster(b, shards, 10_000)
			var next atomic.Int64
			next.Store(1_000_000)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(next.Add(1)))
				for pb.Next() {
					id := pathtree.PeerID(next.Add(1))
					lm := benchClusterLandmarks[rng.Intn(len(benchClusterLandmarks))]
					if _, err := c.Join(id, buildClusterPath(lm, rng.Intn(200_000))); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkClusterQuery measures concurrent closest-peer query throughput
// at 1, 4, and 16 shards over a fixed population.
func BenchmarkClusterQuery(b *testing.B) {
	const prepop = 10_000
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCluster(b, shards, prepop)
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					p := pathtree.PeerID(rng.Intn(prepop) + 1)
					if _, err := c.Lookup(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkHandoff measures one fenced landmark handoff of a 10k-peer tree
// while concurrent writers keep joining peers under the other landmarks.
// The freeze is scoped to the source/destination shard pair, so the
// bystander writers should stay mostly unimpeded; ns/op is the wall-clock
// cost of draining the two shards, handing the tree over, and committing
// the move — none of it depends on the tree's population.
func BenchmarkHandoff(b *testing.B) {
	const treePeers = 10_000
	c, err := cluster.New(cluster.Config{Landmarks: benchClusterLandmarks, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	lm := benchClusterLandmarks[0]
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < treePeers; i++ {
		if _, err := c.Join(pathtree.PeerID(i+1), buildClusterPath(lm, rng.Intn(200_000))); err != nil {
			b.Fatal(err)
		}
	}
	// Background writers on the other landmarks: the handoff freeze covers
	// only the src/dst shard pair, so these mostly route to live shards.
	stop := make(chan struct{})
	done := make(chan struct{})
	var next atomic.Int64
	next.Store(1_000_000)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			wrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				other := benchClusterLandmarks[1+wrng.Intn(len(benchClusterLandmarks)-1)]
				id := pathtree.PeerID(next.Add(1))
				if _, err := c.Join(id, buildClusterPath(other, wrng.Intn(200_000))); err != nil {
					return
				}
			}
		}(int64(w))
	}
	srcShard, ok := c.ShardFor(lm)
	if !ok {
		b.Fatalf("landmark %d has no shard", lm)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := (srcShard + 1) % 4
		if err := c.MoveLandmark(lm, dst); err != nil {
			b.Fatal(err)
		}
		srcShard = dst
	}
	b.StopTimer()
	close(stop)
	for w := 0; w < 4; w++ {
		<-done
	}
	b.ReportMetric(treePeers, "peers/handoff")
}

// --- supporting micro-benchmarks ---

// BenchmarkTopologyGenerate measures paper-scale map generation.
func BenchmarkTopologyGenerate(b *testing.B) {
	cfg := topology.DefaultConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := topology.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceroute measures one simulated trace on the paper-scale map
// with a warm routing-tree cache (the steady-state join cost).
func BenchmarkTraceroute(b *testing.B) {
	g, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tr := traceroute.New(g, nil)
	leaves := topology.LeafRouters(g)
	if _, err := tr.Trace(leaves[0], 0, traceroute.Config{}, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := leaves[i%len(leaves)]
		if _, err := tr.Trace(src, 0, traceroute.Config{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtoJoinRoundTrip measures wire encode+decode of a typical
// join on the zero-alloc path: a pooled encode buffer and a reused decode
// target, the shape the netserver hot loop uses. The committed baseline
// pins this at 0 allocs/op.
func BenchmarkProtoJoinRoundTrip(b *testing.B) {
	req := &proto.JoinRequest{
		Peer: 42,
		Addr: "203.0.113.9:7000",
		Path: []int32{901, 556, 23, 8, 1, 0},
	}
	var got proto.JoinRequest
	// One warm-up round trip primes the buffer freelist and the decode
	// target's path capacity, so even a b.N=1 run (the CI alloc gate at
	// -benchtime 1x) measures the steady state the pin is about.
	if buf, err := proto.AppendJoinRequest(proto.GetBuf(0), req); err != nil {
		b.Fatal(err)
	} else if err := proto.DecodeJoinRequestInto(&got, buf); err != nil {
		b.Fatal(err)
	} else {
		proto.PutBuf(buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := proto.AppendJoinRequest(proto.GetBuf(0), req)
		if err != nil {
			b.Fatal(err)
		}
		if err := proto.DecodeJoinRequestInto(&got, buf); err != nil {
			b.Fatal(err)
		}
		proto.PutBuf(buf)
	}
}

// BenchmarkOpRoundTrip measures the op codec on the durable commit path:
// pooled encode (what cluster.commit does per WAL record) and reused-target
// decode (what replay and follower apply do per record). The committed
// baseline pins this at 0 allocs/op.
func BenchmarkOpRoundTrip(b *testing.B) {
	o := op.Join(42, []topology.NodeID{901, 556, 23, 8, 1, 0}, "203.0.113.9:7000", 77)
	var got op.Op
	// Warm-up as in BenchmarkProtoJoinRoundTrip: prime the freelist and
	// decode-target capacity so b.N=1 measures steady state.
	if rec, err := op.Append(op.GetBuf(), o); err != nil {
		b.Fatal(err)
	} else if err := op.DecodeInto(&got, rec); err != nil {
		b.Fatal(err)
	} else {
		op.PutBuf(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := op.Append(op.GetBuf(), o)
		if err != nil {
			b.Fatal(err)
		}
		if err := op.DecodeInto(&got, rec); err != nil {
			b.Fatal(err)
		}
		op.PutBuf(rec)
	}
}

// BenchmarkServerJoin measures the end-to-end management-server join (query
// + insert) at steady state.
func BenchmarkServerJoin(b *testing.B) {
	w, err := experiment.BuildWorld(benchWorld(10))
	if err != nil {
		b.Fatal(err)
	}
	if err := w.JoinN(1500); err != nil {
		b.Fatal(err)
	}
	pool := w.LeafPool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := pathtree.PeerID(1_000_000 + i)
		att := pool[i%len(pool)]
		if _, err := w.JoinPeer(id, att); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipelined wire-protocol benchmarks (real TCP over loopback) ---

// benchNetCluster starts a 4-shard cluster behind a TCP front end, so the
// wire protocol — not the management logic — is the measured bottleneck.
// A non-nil registry threads telemetry through both layers, for measuring
// what the instrumentation itself costs.
func benchNetCluster(b *testing.B, reg *telemetry.Registry) *netserver.NetServer {
	b.Helper()
	lms := benchClusterLandmarks[:4]
	logic, err := cluster.New(cluster.Config{Landmarks: lms, Shards: 4, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	ns, err := netserver.Listen(netserver.Config{Common: conf.Common{Telemetry: reg}, Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ns.Close() })
	return ns
}

// benchPathFor reports paths round-robin over the first four cluster
// landmarks.
func benchPathFor(peer int64) []int32 {
	lm := int32(benchClusterLandmarks[int(peer)%4])
	return loadgen.TreePath(lm, int(peer))
}

// runLoad drives b.N joins through the loadgen harness and reports
// throughput.
func runLoad(b *testing.B, ns *netserver.NetServer, cfg loadgen.Config) {
	b.Helper()
	runLoadAddr(b, ns.Addr(), cfg)
}

func runLoadAddr(b *testing.B, addr string, cfg loadgen.Config) {
	b.Helper()
	cfg.Addr = addr
	cfg.Joins = b.N
	// Floor the run length: at -benchtime 1x (the CI regression job),
	// b.N=1 would time connection setup instead of join throughput and
	// make joins/s meaningless. 2000 joins keep every mode's measurement
	// dominated by steady-state traffic while staying under a second.
	if cfg.Joins < 2000 {
		cfg.Joins = 2000
	}
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

// BenchmarkPipelinedJoin measures join throughput over the SAME connection
// count at increasing in-flight depths.
//
// The connections run through a loopback latency proxy adding 0.5ms each
// way (1ms RTT — a close-by datacenter client). Without it, a
// single-machine benchmark lets a shallow window borrow the idle CPU the
// server isn't using and hides exactly the stall pipelining removes; real
// deployments serve remote peers, so RTT is part of the workload.
func BenchmarkPipelinedJoin(b *testing.B) {
	for _, inflight := range []int{16, 64} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			ns := benchNetCluster(b, nil)
			proxy, err := loadgen.NewLatencyProxy(ns.Addr(), 500*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { proxy.Close() })
			b.ResetTimer()
			runLoadAddr(b, proxy.Addr(), loadgen.Config{
				Clients:  4,
				InFlight: inflight,
			})
		})
	}
}

// BenchmarkInstrumentedJoin is BenchmarkPipelinedJoin/inflight=64 with the
// full telemetry plane enabled — per-request counters and latency
// histograms in the front end, per-shard apply counters in the cluster —
// so CI can gate the instrumentation's overhead as a within-run ratio
// against the uninstrumented twin (see the bench job's -ratio flag).
func BenchmarkInstrumentedJoin(b *testing.B) {
	reg := telemetry.NewRegistry()
	ns := benchNetCluster(b, reg)
	proxy, err := loadgen.NewLatencyProxy(ns.Addr(), 500*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { proxy.Close() })
	b.ResetTimer()
	runLoadAddr(b, proxy.Addr(), loadgen.Config{
		Clients:  4,
		InFlight: 64,
	})
}

// BenchmarkTelemetryHotPath measures exactly what one served request adds:
// a counter increment plus a latency observation on pre-resolved handles.
// ReportAllocs backs the zero-allocation contract — benchcmp fails the run
// if allocs/op ever leaves 0.
func BenchmarkTelemetryHotPath(b *testing.B) {
	reg := telemetry.NewRegistry()
	reqs := reg.Counter(`proxdisc_requests_total{type="join_request"}`)
	lat := reg.Histogram(`proxdisc_request_duration_seconds{type="join_request"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs.Inc()
		lat.Observe(time.Duration(i) * time.Nanosecond)
	}
}

// BenchmarkTelemetryHotPathParallel is the false-sharing probe for the
// padded Counter/Gauge cells: goroutines hammer DISTINCT metrics that
// were allocated back to back, the layout every component's metric set
// has in practice. Without the cache-line padding the adjacent atomic
// words share lines and a -cpu 4 run collapses to coherence traffic; with
// it, per-cell updates scale. Compare against the single-metric
// BenchmarkTelemetryHotPath at the same -cpu.
func BenchmarkTelemetryHotPathParallel(b *testing.B) {
	reg := telemetry.NewRegistry()
	const cells = 16
	counters := make([]*telemetry.Counter, cells)
	gauges := make([]*telemetry.Gauge, cells)
	for i := range counters {
		counters[i] = reg.Counter(fmt.Sprintf(`proxdisc_bench_cell_total{cell="%d"}`, i))
		gauges[i] = reg.Gauge(fmt.Sprintf(`proxdisc_bench_cell{cell="%d"}`, i))
	}
	// No ReportAllocs here: at -benchtime 1x the RunParallel goroutine
	// setup amortizes over a single op and reads as phantom allocs/op,
	// which would arm the machine-independent alloc gate on harness
	// noise. The zero-allocation contract is pinned by the serial
	// TelemetryHotPath; this variant exists for the false-sharing story.
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)-1) % cells
		ctr, g := counters[i], gauges[i]
		var v int64
		for pb.Next() {
			ctr.Inc()
			v++
			g.Set(v)
		}
	})
}

// BenchmarkBatchJoin measures the flash-crowd path: joins grouped into
// MsgBatchJoinRequest frames, which amortize framing, syscalls, and the
// per-shard lock acquisition.
func BenchmarkBatchJoin(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ns := benchNetCluster(b, nil)
			b.ResetTimer()
			runLoad(b, ns, loadgen.Config{
				Clients:  1,
				InFlight: 16,
				Batch:    batch,
			})
		})
	}
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
			Landmarks: benchClusterLandmarks[:4],
			Shards:    4,
			DataDir:   dir,
			// Group commit holds each fsync open briefly so concurrent
			// batches share it — the sync-parallel configuration.
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
		ns, err := netserver.Listen(netserver.Config{Addr: "127.0.0.1:0", Server: logic})
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
	n := int64(b.N)
	if n < 2000 {
		n = 2000 // runLoadAddr floors the run length identically
	}
	base := millionNode.next.Add(n) - n
	// Offered load scales with the core count: one pipelined connection per
	// processor, so the -cpu 4 variant measures what the extra cores buy
	// (the sharded WAL and per-shard apply path) rather than how fast one
	// connection can feed a many-core server. At GOMAXPROCS=1 this is the
	// historical single-client configuration.
	clients := runtime.GOMAXPROCS(0)
	if clients > 8 {
		clients = 8
	}
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
// -cpu 1,4 to see the write plane scale; the contention profile of this
// benchmark (-mutexprofile/-blockprofile) is what drove the sharded WAL.
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

// BenchmarkBatchJoinParallel is the multi-writer shape of the flash-crowd
// path: RunParallel goroutines each drive their own connection of 32-join
// batches at a fresh 4-shard node. Joins from different goroutines land on
// different shards, so with -cpu 4 this exercises the sharded WAL's
// cross-stream group commit rather than queueing every batch on one
// append lock.
func BenchmarkBatchJoinParallel(b *testing.B) {
	const batch = 32
	ns := benchNetCluster(b, nil)
	var next atomic.Int64
	next.Store(1)
	var joins atomic.Int64
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		c, err := client.Dial(ns.Addr(), 5*time.Second)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		items := make([]client.BatchItem, batch)
		for pb.Next() {
			lo := next.Add(batch) - batch
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
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(joins.Load())/s, "joins/s")
	}
}

// BenchmarkServerJoinBatch measures the in-process single-lock batch
// insert against the equivalent sequence of singular joins.
func BenchmarkServerJoinBatch(b *testing.B) {
	for _, batch := range []int{1, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			c := benchCluster(b, 4, 10_000)
			rng := rand.New(rand.NewSource(99))
			items := make([]server.BatchJoin, batch)
			b.ResetTimer()
			id := int64(1_000_000)
			for i := 0; i < b.N; i += batch {
				for k := range items {
					lm := benchClusterLandmarks[rng.Intn(len(benchClusterLandmarks))]
					path := buildClusterPath(lm, rng.Intn(200_000))
					items[k] = server.BatchJoin{Peer: pathtree.PeerID(id), Path: path}
					id++
				}
				for _, r := range c.JoinBatch(items) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkWALAppend measures the durability tax of the write path: one
// encoded join op appended to the write-ahead log per operation, with
// group commit batching concurrent appenders into shared fsyncs. The
// sync variants are the real durable cost; nosync isolates the framing
// and buffering overhead from the disk.
func BenchmarkWALAppend(b *testing.B) {
	rec, err := op.Encode(op.Join(12345, buildClusterPath(benchClusterLandmarks[0], 777), "10.0.0.1:4100", 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		nosync bool
		par    bool
	}{
		{"sync", false, false},
		{"sync-parallel", false, true},
		{"nosync", true, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			log, err := wal.OpenSharded(b.TempDir(), 1, wal.Options{NoSync: bc.nosync})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			b.SetBytes(int64(len(rec)))
			b.ResetTimer()
			if bc.par {
				// RunParallel spawns GOMAXPROCS×parallelism goroutines; on a
				// single-core runner the default is ONE goroutine — serial
				// appends plus RunParallel overhead, which is how "parallel"
				// used to lose to "sync". Eight workers model eight
				// connections committing concurrently: while the leader
				// blocks in fsync the others append and queue, so each disk
				// sync covers a whole batch (group commit).
				b.SetParallelism(8)
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := log.Append(0, rec); err != nil {
							b.Error(err)
							return
						}
					}
				})
				return
			}
			for i := 0; i < b.N; i++ {
				if _, err := log.Append(0, rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The same parallel-committer load spread over four per-shard streams
	// (the three series above use one): appenders contend only on the
	// global sequence counter and share fsyncs through the cross-stream
	// group-commit coordinator instead of queueing on one stream's mutex.
	b.Run("sharded-parallel", func(b *testing.B) {
		log, err := wal.OpenSharded(b.TempDir(), 4, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		var worker atomic.Int64
		b.SetBytes(int64(len(rec)))
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			stream := int(worker.Add(1)-1) % log.Streams()
			for pb.Next() {
				if _, err := log.Append(stream, rec); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkRecovery measures crash recovery: reopening a durable cluster
// whose data directory holds an on-disk snapshot plus a WAL tail of
// acknowledged joins, timing the snapshot restore and tail replay that
// rebuild the shards exactly.
func BenchmarkRecovery(b *testing.B) {
	const (
		snapshotPeers = 4000
		tailJoins     = 1000
	)
	dir := b.TempDir()
	cfg := cluster.Config{
		Landmarks: benchClusterLandmarks,
		Shards:    4,
		DataDir:   dir,
		NoSync:    true, // setup speed; recovery reads are sync-independent
	}
	c, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	join := func(id int64) {
		lm := benchClusterLandmarks[rng.Intn(len(benchClusterLandmarks))]
		if _, err := c.Join(pathtree.PeerID(id), buildClusterPath(lm, rng.Intn(200_000))); err != nil {
			b.Fatal(err)
		}
	}
	id := int64(1)
	for i := 0; i < snapshotPeers; i++ {
		join(id)
		id++
	}
	if err := c.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tailJoins; i++ {
		join(id)
		id++
	}
	// Crash: the setup cluster is abandoned un-Closed (a Close would
	// checkpoint and truncate away the very tail this bench measures).
	// Each iteration recovers from a throwaway copy of the directory, so
	// the recovered cluster can be Closed — no fd/goroutine pile-up —
	// without its shutdown checkpoint contaminating later iterations.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		iterCfg := cfg
		iterCfg.DataDir = copyDataDir(b, dir)
		b.StartTimer()
		re, err := cluster.New(iterCfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := re.NumPeers(); got != snapshotPeers+tailJoins {
			b.Fatalf("recovered %d peers, want %d", got, snapshotPeers+tailJoins)
		}
		b.StopTimer()
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(iterCfg.DataDir)
		b.StartTimer()
	}
	b.ReportMetric(float64(snapshotPeers+tailJoins), "peers/recovery")
}

// copyDataDir clones a durable data directory for one recovery iteration.
func copyDataDir(b *testing.B, src string) string {
	b.Helper()
	dst := filepath.Join(b.TempDir(), "data")
	if err := os.MkdirAll(dst, 0o777); err != nil {
		b.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
			b.Fatal(err)
		}
	}
	return dst
}

// BenchmarkOpStreamShip measures cross-process replication throughput:
// joins committed on a durable primary, shipped over the MsgOpStream
// protocol to a TCP follower behind a loopback latency proxy adding 1ms
// of RTT (the close-by-datacenter follower), and applied to the
// follower's copy. The timer covers commit + ship + apply up to
// convergence; the windowed stream keeps many records in flight, so the
// per-op cost should be far below one RTT.
func BenchmarkOpStreamShip(b *testing.B) {
	clu, err := cluster.New(cluster.Config{
		Landmarks: benchClusterLandmarks,
		Shards:    4,
		DataDir:   b.TempDir(),
		NoSync:    true, // isolate shipping from the disk-sync cost BenchmarkWALAppend measures
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { clu.Close() })
	ns, err := netserver.Listen(netserver.Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ns.Close() })
	proxy, err := loadgen.NewLatencyProxy(ns.Addr(), 500*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { proxy.Close() })
	backend, err := server.New(server.Config{Landmarks: benchClusterLandmarks})
	if err != nil {
		b.Fatal(err)
	}
	f, err := netserver.StartFollower(netserver.FollowerConfig{
		PrimaryAddr: proxy.Addr(),
		Backend:     backend,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })

	rng := rand.New(rand.NewSource(11))
	join := func(id int64) {
		lm := benchClusterLandmarks[rng.Intn(len(benchClusterLandmarks))]
		if _, err := clu.Join(pathtree.PeerID(id), buildClusterPath(lm, rng.Intn(200_000))); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the stream (subscription, first head exchange) outside the timer.
	join(1)
	waitFollower(b, f, clu)
	b.ResetTimer()
	id := int64(2)
	for i := 0; i < b.N; i++ {
		join(id)
		id++
	}
	waitFollower(b, f, clu)
	b.StopTimer()
	if got := backend.NumPeers(); got != clu.NumPeers() {
		b.Fatalf("follower holds %d peers, primary %d", got, clu.NumPeers())
	}
}

// BenchmarkFollowerCatchup measures a follower (re)connecting far behind
// the primary: the data directory holds a 4000-peer snapshot plus a
// 1000-op WAL tail, and each iteration brings a fresh follower from
// nothing to converged — snapshot shipping, tail replay, and the local
// rebuild, end to end over TCP.
func BenchmarkFollowerCatchup(b *testing.B) {
	const (
		snapshotPeers = 4000
		tailJoins     = 1000
	)
	clu, err := cluster.New(cluster.Config{
		Landmarks: benchClusterLandmarks,
		Shards:    4,
		DataDir:   b.TempDir(),
		NoSync:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { clu.Close() })
	rng := rand.New(rand.NewSource(13))
	id := int64(1)
	join := func() {
		lm := benchClusterLandmarks[rng.Intn(len(benchClusterLandmarks))]
		if _, err := clu.Join(pathtree.PeerID(id), buildClusterPath(lm, rng.Intn(200_000))); err != nil {
			b.Fatal(err)
		}
		id++
	}
	for i := 0; i < snapshotPeers; i++ {
		join()
	}
	if err := clu.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tailJoins; i++ {
		join()
	}
	ns, err := netserver.Listen(netserver.Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ns.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		backend, err := server.New(server.Config{Landmarks: benchClusterLandmarks})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		f, err := netserver.StartFollower(netserver.FollowerConfig{
			PrimaryAddr: ns.Addr(),
			Backend:     backend,
		})
		if err != nil {
			b.Fatal(err)
		}
		waitFollower(b, f, clu)
		b.StopTimer()
		if got := backend.NumPeers(); got != snapshotPeers+tailJoins {
			b.Fatalf("follower holds %d peers, want %d", got, snapshotPeers+tailJoins)
		}
		f.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(snapshotPeers+tailJoins), "peers/catchup")
}

// waitFollower spins until the follower has applied the cluster's head.
func waitFollower(b *testing.B, f *netserver.Follower, clu *cluster.Cluster) {
	b.Helper()
	head := clu.CommittedHead()
	deadline := time.Now().Add(30 * time.Second)
	for f.Applied() < head {
		if time.Now().After(deadline) {
			b.Fatalf("follower stuck at seq %d of %d (last err %v)", f.Applied(), head, f.Err())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// BenchmarkSubscribeFanout measures the subscription plane's dispatch hot
// path: one committed op evaluated against N registered filters and the
// resulting event pushed into each subscriber's fixed ring, with a
// consumer draining every ring concurrently. One op is one iteration, so
// ns/op is the full fan-out latency and events/s the aggregate delivery
// rate. ReportAllocs backs the zero-allocation contract of the
// steady-state event path (the ring is fixed, the filter state is
// pre-built) — benchcmp fails the run if allocs/op ever leaves 0.
func BenchmarkSubscribeFanout(b *testing.B) {
	for _, nsubs := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("subs=%d", nsubs), func(b *testing.B) {
			srv, err := server.New(server.Config{Landmarks: []topology.NodeID{0}})
			if err != nil {
				b.Fatal(err)
			}
			const subject = pathtree.PeerID(1)
			if _, err := srv.Join(subject, []topology.NodeID{5, 3, 0}); err != nil {
				b.Fatal(err)
			}
			plane := sub.New(srv, nil)
			defer plane.Close()
			var delivered atomic.Uint64
			for i := 0; i < nsubs; i++ {
				sb, _, _, err := plane.Add(sub.Query{Kind: proto.QueryPeer, Peer: subject})
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					for {
						select {
						case <-sb.Ready():
							for {
								if _, ok := sb.Take(); !ok {
									break
								}
								delivered.Add(1)
							}
						case <-sb.Done():
							return
						}
					}
				}()
			}
			// A refresh of a watched peer is the leanest delta: no backend
			// lookup, one update event per subscriber.
			refresh := op.Refresh(subject, 1)
			// Warm up off the clock: the first dispatches grow goroutine
			// stacks and channel buffers; the steady state allocates
			// nothing, and that is what the zero-alloc gate measures.
			const warmup = 64
			for i := 0; i < warmup; i++ {
				plane.FeedOp(uint64(i+1), refresh)
			}
			for delivered.Load() < uint64(warmup*nsubs) {
				runtime.Gosched()
			}
			b.ReportAllocs()
			b.ResetTimer()
			want := delivered.Load()
			for i := 0; i < b.N; i++ {
				plane.FeedOp(uint64(warmup+i+1), refresh)
				want += uint64(nsubs)
				for delivered.Load() < want {
					runtime.Gosched()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(nsubs*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// newCountingProxy forwards a fresh listener to backend, counting every
// byte relayed in either direction — the wire cost the primary pays for
// whatever read plane runs through it.
func newCountingProxy(b *testing.B, backend string) (addr string, total *atomic.Uint64) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	var bytes atomic.Uint64
	relay := func(dst, src net.Conn) {
		defer dst.Close()
		defer src.Close()
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			bytes.Add(uint64(n))
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go relay(s, c)
			go relay(c, s)
		}
	}()
	return ln.Addr().String(), &bytes
}

// servedOps sums everything the primary did for its clients: request
// frames handled by the front end plus subscription events pushed.
func servedOps(reg *telemetry.Registry) uint64 {
	total := reg.Counter(`proxdisc_requests_total{type="unknown"}`).Value()
	for t := 1; t < proto.NumMsgTypes; t++ {
		total += reg.Counter(`proxdisc_requests_total{type="` + proto.MsgType(t).String() + `"}`).Value()
	}
	return total + reg.Counter("proxdisc_sub_events_total").Value()
}

// benchReadPlane runs the read-plane comparison scenario once: 100
// clients each track one subject's k-closest set through 60 churn ticks,
// either by polling once per tick (the pre-subscription pattern) or by
// holding one live subscription. It returns the primary-side wire bytes
// and served ops the tracking cost — the shared churn writes (issued on a
// direct, uncounted connection) are subtracted from the op count.
func benchReadPlane(b *testing.B, subscribe bool) (wireBytes, ops uint64) {
	b.Helper()
	const (
		clients = 100
		ticks   = 60
	)
	clu, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0},
		DataDir:   b.TempDir(),
		NoSync:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer clu.Close()
	reg := telemetry.NewRegistry()
	ns, err := netserver.Listen(netserver.Config{Common: conf.Common{Telemetry: reg}, Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		b.Fatal(err)
	}
	defer ns.Close()

	direct, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer direct.Close()
	leaf := func(i int) []int32 { return []int32{int32(2000 + i), int32(10 + i%10), 0} }
	for i := 1; i <= clients; i++ {
		if _, err := direct.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), leaf(i)); err != nil {
			b.Fatal(err)
		}
	}

	proxyAddr, proxied := newCountingProxy(b, ns.Addr())
	cs := make([]*client.Client, clients)
	for i := range cs {
		if cs[i], err = client.Dial(proxyAddr, 5*time.Second); err != nil {
			b.Fatal(err)
		}
		defer cs[i].Close()
	}

	// Everything from here on is the tracking cost under measurement.
	baseBytes, baseOps := proxied.Load(), servedOps(reg)
	var directOps uint64 // issued outside the proxy; subtracted below

	var subs []*client.Subscription
	if subscribe {
		for i, c := range cs {
			s, err := c.Subscribe(context.Background(), client.KClosest(int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			subs = append(subs, s)
		}
	}

	for t := 0; t < ticks; t++ {
		// One committed change per simulated second: a transient peer
		// lands on some subject's own leaf router (always entering that
		// subject's answer), and the previous one departs.
		if t > 0 {
			if err := direct.Leave(int64(5000 + t - 1)); err != nil {
				b.Fatal(err)
			}
			directOps++
		}
		target := (t*7)%clients + 1
		if _, err := direct.Join(int64(5000+t), fmt.Sprintf("churn-%d:7000", t), leaf(target)); err != nil {
			b.Fatal(err)
		}
		directOps++
		if !subscribe {
			for i, c := range cs {
				if _, err := c.Lookup(int64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	if subscribe {
		// Quiesce: every cache must match a fresh (uncounted) lookup.
		deadline := time.Now().Add(10 * time.Second)
		for i, s := range subs {
			for {
				fresh, err := direct.Lookup(int64(i + 1))
				if err != nil {
					b.Fatal(err)
				}
				directOps++
				cache, ok := s.Cache()
				if ok && benchCandsEqual(cache, fresh) {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("subscription %d never converged (coherent=%v)", i+1, ok)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return proxied.Load() - baseBytes, servedOps(reg) - baseOps - directOps
}

func benchCandsEqual(a, b []proto.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkPollVsSubscribe is the read plane's headline comparison: 100
// clients tracking their k-closest sets through 60 churn ticks, once via
// the pre-subscription pattern (one Lookup per client per tick) and once
// via live subscriptions. It reports the primary-side wire bytes and
// served ops of each mode and their ratios, and fails outright if
// subscriptions stop being at least 5x cheaper on either axis.
func BenchmarkPollVsSubscribe(b *testing.B) {
	var pollBytes, pollOps, subBytes, subOps uint64
	for i := 0; i < b.N; i++ {
		pollBytes, pollOps = benchReadPlane(b, false)
		subBytes, subOps = benchReadPlane(b, true)
	}
	byteRatio := float64(pollBytes) / float64(subBytes)
	opRatio := float64(pollOps) / float64(subOps)
	b.ReportMetric(float64(pollBytes), "poll-bytes")
	b.ReportMetric(float64(subBytes), "sub-bytes")
	b.ReportMetric(byteRatio, "bytes-ratio")
	b.ReportMetric(float64(pollOps), "poll-ops")
	b.ReportMetric(float64(subOps), "sub-ops")
	b.ReportMetric(opRatio, "ops-ratio")
	if byteRatio < 5 || opRatio < 5 {
		b.Fatalf("subscriptions must be >=5x cheaper: bytes %d vs %d (%.1fx), ops %d vs %d (%.1fx)",
			pollBytes, subBytes, byteRatio, pollOps, subOps, opRatio)
	}
}
