package traceroute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"proxdisc/internal/latency"
	"proxdisc/internal/topology"
)

func testGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.Generate(topology.Config{Model: topology.ModelBarabasiAlbert, CoreRouters: 200, LeafRouters: 150, EdgesPerNode: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// BenchmarkTraceroute measures one simulated trace on the paper-scale map
// with a warm routing-tree cache: the steady-state cost of a join's trace.
func BenchmarkTraceroute(b *testing.B) {
	g, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tr := New(g, nil)
	leaves := topology.LeafRouters(g)
	if _, err := tr.Trace(leaves[0], 0, Config{}, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Trace(leaves[i%len(leaves)], 0, Config{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTraceLossless(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	res, err := tr.Trace(5, 0, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("lossless trace incomplete")
	}
	path := res.RouterPath()
	if path[0] != 5 {
		t.Fatalf("path starts at %d", path[0])
	}
	if path[len(path)-1] != 0 {
		t.Fatalf("path ends at %d", path[len(path)-1])
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			t.Fatalf("hop %d: (%d,%d) is not an edge", i, path[i-1], path[i])
		}
	}
}

func TestTraceSelf(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	res, err := tr.Trace(3, 3, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Hops) != 0 {
		t.Fatalf("self trace: complete=%v hops=%v", res.Complete, res.Hops)
	}
}

func TestTraceDeterministicWithoutRNG(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	a, _ := tr.Trace(40, 0, Config{}, nil)
	b, _ := tr.Trace(40, 0, Config{}, nil)
	if len(a.Hops) != len(b.Hops) {
		t.Fatal("identical traces differ")
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			t.Fatal("identical traces differ")
		}
	}
}

func TestTraceWithLossProducesAnonymousHops(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	rng := rand.New(rand.NewSource(2))
	sawAnon := false
	for k := 0; k < 50 && !sawAnon; k++ {
		src := topology.NodeID(10 + k)
		res, err := tr.Trace(src, 0, Config{LossRate: 0.7, ProbesPerHop: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range res.Hops {
			if h.Router == AnonymousRouter {
				sawAnon = true
			}
		}
		known := res.KnownRouterPath()
		for _, r := range known {
			if r == AnonymousRouter {
				t.Fatal("KnownRouterPath leaked anonymous hop")
			}
		}
	}
	if !sawAnon {
		t.Fatal("high loss never produced an anonymous hop")
	}
}

func TestTraceRejectsBadLoss(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	if _, err := tr.Trace(1, 0, Config{LossRate: 1.0}, nil); err == nil {
		t.Fatal("accepted loss rate 1.0")
	}
	if _, err := tr.Trace(1, 0, Config{LossRate: -0.1}, nil); err == nil {
		t.Fatal("accepted negative loss rate")
	}
}

func TestTraceMaxTTLTruncates(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	full, _ := tr.Trace(77, 0, Config{}, nil)
	if len(full.Hops) < 3 {
		t.Skip("path too short to exercise TTL")
	}
	short, _ := tr.Trace(77, 0, Config{MaxTTL: 1}, nil)
	if short.Complete {
		t.Fatal("TTL-limited trace reported complete")
	}
	if len(short.Hops) != 1 {
		t.Fatalf("TTL=1 reported %d hops", len(short.Hops))
	}
}

func TestTraceKeepEvery(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	full, _ := tr.Trace(88, 0, Config{}, nil)
	if len(full.Hops) < 4 {
		t.Skip("path too short")
	}
	reduced, _ := tr.Trace(88, 0, Config{KeepEvery: 2}, nil)
	if len(reduced.Hops) >= len(full.Hops) {
		t.Fatalf("KeepEvery=2 kept %d of %d hops", len(reduced.Hops), len(full.Hops))
	}
	if reduced.Hops[len(reduced.Hops)-1].Router != 0 {
		t.Fatal("reduced trace lost the landmark hop")
	}
}

func TestTracePrefixHops(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	full, _ := tr.Trace(99, 0, Config{}, nil)
	if len(full.Hops) < 4 {
		t.Skip("path too short")
	}
	reduced, _ := tr.Trace(99, 0, Config{PrefixHops: 2}, nil)
	// 2 prefix hops plus the re-appended landmark.
	if len(reduced.Hops) != 3 {
		t.Fatalf("PrefixHops=2 kept %d hops", len(reduced.Hops))
	}
	if reduced.Hops[2].Router != 0 {
		t.Fatal("prefix trace lost the landmark hop")
	}
	for i := 0; i < 2; i++ {
		if reduced.Hops[i] != full.Hops[i] {
			t.Fatalf("prefix hop %d differs", i)
		}
	}
}

func TestTraceRTTsMonotoneWithDelays(t *testing.T) {
	g := testGraph(t)
	d, err := latency.AssignDelays(g, latency.DelayConfig{Model: latency.DelayUniform, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, d)
	res, err := tr.Trace(120, 0, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, h := range res.Hops {
		if h.RTT <= prev {
			t.Fatalf("hop %d RTT %v not increasing (prev %v)", i, h.RTT, prev)
		}
		prev = h.RTT
	}
}

func TestRTTEstimateMatchesTraceEnd(t *testing.T) {
	g := testGraph(t)
	d, _ := latency.AssignDelays(g, latency.DelayConfig{Model: latency.DelayUniform, Seed: 4})
	tr := New(g, d)
	res, _ := tr.Trace(60, 0, Config{}, nil)
	est, err := tr.RTTEstimate(60, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Hops[len(res.Hops)-1].RTT
	if est != last {
		t.Fatalf("estimate %v != trace end %v", est, last)
	}
	if rtt, _ := tr.RTTEstimate(7, 7); rtt != 0 {
		t.Fatalf("self RTT=%v", rtt)
	}
}

func TestTraceNoRoute(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	tr := New(g, nil)
	if _, err := tr.Trace(2, 0, Config{}, nil); err == nil {
		t.Fatal("trace across disconnected components succeeded")
	}
}

// Property: on lossless traces the known path equals the full path, starts
// at src, ends at dst, and contains no duplicate routers.
func TestTracePathProperties(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	n := g.NumNodes()
	f := func(a, b uint16) bool {
		src := topology.NodeID(int(a) % n)
		dst := topology.NodeID(int(b) % n)
		res, err := tr.Trace(src, dst, Config{}, nil)
		if err != nil {
			return false
		}
		path := res.KnownRouterPath()
		if path[0] != src {
			return false
		}
		if res.Complete && path[len(path)-1] != dst {
			return false
		}
		seen := make(map[topology.NodeID]bool, len(path))
		for _, r := range path {
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTraces(t *testing.T) {
	g := testGraph(t)
	tr := New(g, nil)
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				src := topology.NodeID((w*37 + i*11) % g.NumNodes())
				dst := topology.NodeID((w * 13) % g.NumNodes())
				if _, err := tr.Trace(src, dst, Config{}, nil); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
