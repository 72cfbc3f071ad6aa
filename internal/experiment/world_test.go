package experiment

import (
	"slices"
	"strings"
	"testing"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// smallWorld returns a fast world config for tests.
func smallWorld(seed int64) WorldConfig {
	return WorldConfig{
		Topology: topology.Config{
			Model: topology.ModelBarabasiAlbert, CoreRouters: 400,
			LeafRouters: 400, EdgesPerNode: 2, Seed: seed,
		},
		NumLandmarks: 4,
		Seed:         seed,
	}
}

func TestBuildWorld(t *testing.T) {
	w, err := BuildWorld(smallWorld(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Landmarks) != 4 {
		t.Fatalf("landmarks=%d", len(w.Landmarks))
	}
	if len(w.LeafPool) == 0 {
		t.Fatal("no leaf routers")
	}
	// Landmarks must sit in the medium band by default (never degree 1).
	for _, lm := range w.Landmarks {
		if w.Graph.Degree(lm) <= 1 {
			t.Fatalf("landmark %d has degree %d", lm, w.Graph.Degree(lm))
		}
	}
}

// TestLeafBandPlacesLeafLandmarks pins E3's band=leaf row to what it
// names: asked for the leaf band, the world places every landmark on a
// degree-1 router, not in the medium band a default would pick.
func TestLeafBandPlacesLeafLandmarks(t *testing.T) {
	cfg := smallWorld(3)
	cfg.LandmarkBand = topology.BandLeaf
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lm := range w.Landmarks {
		if d := w.Graph.Degree(lm); d != 1 {
			t.Errorf("landmark %d has degree %d, want 1", lm, d)
		}
	}
}

// TestWorldKeepsTopologyFields pins that defaults fill only what the
// caller left zero: a Waxman map with 300 leaves and its own seed, and no
// core size, is that map at the default core size, not the default
// Barabási–Albert map.
func TestWorldKeepsTopologyFields(t *testing.T) {
	w, err := BuildWorld(WorldConfig{
		Topology: topology.Config{Model: topology.ModelWaxman, LeafRouters: 300, Seed: 7},
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := topology.Generate(topology.Config{
		Model: topology.ModelWaxman, CoreRouters: 2000, LeafRouters: 300, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Graph.NumNodes() != want.NumNodes() || !slices.Equal(w.Graph.Edges(), want.Edges()) {
		t.Fatalf("world map has %d routers and %d links, want the requested Waxman map's %d and %d",
			w.Graph.NumNodes(), w.Graph.NumEdges(), want.NumNodes(), want.NumEdges())
	}
}

func TestBuildWorldDefaults(t *testing.T) {
	w, err := BuildWorld(WorldConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Cfg.NumLandmarks != 8 || w.Cfg.NeighborCount != 5 {
		t.Fatalf("defaults not applied: %+v", w.Cfg)
	}
}

func TestClosestLandmarkDeterministic(t *testing.T) {
	w, err := BuildWorld(smallWorld(3))
	if err != nil {
		t.Fatal(err)
	}
	att := w.LeafPool[0]
	lm1, err := w.ClosestLandmark(att)
	if err != nil {
		t.Fatal(err)
	}
	lm2, err := w.ClosestLandmark(att)
	if err != nil {
		t.Fatal(err)
	}
	if lm1 != lm2 {
		t.Fatal("landmark choice not deterministic")
	}
	found := false
	for _, lm := range w.Landmarks {
		if lm == lm1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen landmark %d not in landmark set", lm1)
	}
}

func TestJoinPeerFullProtocol(t *testing.T) {
	w, err := BuildWorld(smallWorld(4))
	if err != nil {
		t.Fatal(err)
	}
	// Pick two leaf routers that agree on their closest landmark so the
	// second joiner is guaranteed to see the first.
	first := w.LeafPool[0]
	lm, err := w.ClosestLandmark(first)
	if err != nil {
		t.Fatal(err)
	}
	second := topology.InvalidNode
	for _, att := range w.LeafPool[1:] {
		lm2, err := w.ClosestLandmark(att)
		if err != nil {
			t.Fatal(err)
		}
		if lm2 == lm {
			second = att
			break
		}
	}
	if second == topology.InvalidNode {
		t.Skip("no two leaves share a landmark on this seed")
	}
	cands, err := w.JoinPeer(1, first)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("first peer got candidates %v", cands)
	}
	cands, err = w.JoinPeer(2, second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Peer != 1 {
		t.Fatalf("second peer candidates=%v", cands)
	}
	if w.ProbeCount == 0 {
		t.Fatal("probe accounting missing")
	}
	if w.Server.NumPeers() != 2 {
		t.Fatalf("server peers=%d", w.Server.NumPeers())
	}
}

func TestJoinNRespectsPool(t *testing.T) {
	w, err := BuildWorld(smallWorld(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.JoinN(len(w.LeafPool) + 1); err == nil {
		t.Fatal("accepted more peers than leaf routers")
	}
	if err := w.JoinN(50); err != nil {
		t.Fatal(err)
	}
	if w.Server.NumPeers() != 50 {
		t.Fatalf("peers=%d", w.Server.NumPeers())
	}
	// Attachments must be distinct.
	seen := map[topology.NodeID]bool{}
	for _, att := range w.Attachments {
		if seen[att] {
			t.Fatal("duplicate attachment")
		}
		seen[att] = true
	}
}

func TestEvaluateQuality(t *testing.T) {
	w, err := BuildWorld(smallWorld(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.EvaluateQuality(10); err == nil {
		t.Fatal("evaluated empty world")
	}
	if err := w.JoinN(120); err != nil {
		t.Fatal(err)
	}
	q, err := w.EvaluateQuality(40)
	if err != nil {
		t.Fatal(err)
	}
	if q.Peers == 0 || q.SumDclosest == 0 {
		t.Fatalf("quality=%+v", q)
	}
	// Sanity: the server cannot beat brute force, random cannot beat the
	// server on aggregate at this scale.
	if q.DOverDclosest() < 1.0 {
		t.Fatalf("D/Dclosest=%v < 1 — brute force beaten?", q.DOverDclosest())
	}
	if q.DrandomOverDclosest() < q.DOverDclosest() {
		t.Fatalf("random (%v) beat the path tree (%v)",
			q.DrandomOverDclosest(), q.DOverDclosest())
	}
}

func TestRunFig1Small(t *testing.T) {
	cfg := Fig1Config{
		PeerCounts:  []int{60, 120},
		SamplePeers: 40,
		World:       smallWorld(8),
	}
	res, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points=%d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.DOverDclosest < 1.0 || p.DOverDclosest > 2.0 {
			t.Fatalf("D/Dclosest=%v implausible", p.DOverDclosest)
		}
		if p.DrandomOverDclosest <= p.DOverDclosest {
			t.Fatalf("figure inverted at n=%d: random %v vs tree %v",
				p.Peers, p.DrandomOverDclosest, p.DOverDclosest)
		}
	}
	table := res.Table().Format()
	if !strings.Contains(table, "Figure 1") || !strings.Contains(table, "120") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestFig1Deterministic(t *testing.T) {
	cfg := Fig1Config{PeerCounts: []int{80}, SamplePeers: 30, World: smallWorld(9)}
	a, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Points[0].DOverDclosest != b.Points[0].DOverDclosest {
		t.Fatal("same seed produced different figure")
	}
}

func TestFig1Repeats(t *testing.T) {
	cfg := Fig1Config{PeerCounts: []int{80}, SamplePeers: 30, Repeats: 3, World: smallWorld(19)}
	res, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.DOverDclosest < 1.0 {
		t.Fatalf("mean ratio %v < 1", p.DOverDclosest)
	}
	if p.DOverDclosestSD < 0 || p.DrandomSD < 0 {
		t.Fatalf("negative sd: %+v", p)
	}
	// With 3 different seeds some variation is all but certain.
	if p.DOverDclosestSD == 0 && p.DrandomSD == 0 {
		t.Fatal("replication produced zero variance across different seeds")
	}
	table := res.Table().Format()
	if !strings.Contains(table, "±sd") || !strings.Contains(table, "3 seeds") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestMeanSD(t *testing.T) {
	m, sd := meanSD([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Fatalf("mean=%v", m)
	}
	if sd < 2.13 || sd > 2.15 { // sample sd of that series ≈ 2.138
		t.Fatalf("sd=%v", sd)
	}
	if m, sd := meanSD(nil); m != 0 || sd != 0 {
		t.Fatal("empty meanSD not zero")
	}
	if m, sd := meanSD([]float64{3}); m != 3 || sd != 0 {
		t.Fatalf("single meanSD=%v,%v", m, sd)
	}
}

// TestDefaultFig1Config pins the paper's x-axis, which a Fig1Config that
// names no peer counts plots: 600 to 1 400 peers in steps of 200, once.
func TestDefaultFig1Config(t *testing.T) {
	var cfg Fig1Config
	cfg.applyDefaults()
	if !slices.Equal(cfg.PeerCounts, []int{600, 800, 1000, 1200, 1400}) || cfg.Repeats != 1 {
		t.Fatalf("defaults: peer counts %v, repeats %d", cfg.PeerCounts, cfg.Repeats)
	}
}

func TestQualityZeroDivision(t *testing.T) {
	var q Quality
	if q.DOverDclosest() != 0 || q.DrandomOverDclosest() != 0 {
		t.Fatal("zero quality should yield zero ratios")
	}
}

var _ = pathtree.PeerID(0) // keep import in smaller builds

// TestBatchedJoinsMatchSequential runs the same world twice — singular
// joins and BatchSize groups — and requires identical peer populations and
// answer quality: batching is a capacity optimization, not a semantic one.
func TestBatchedJoinsMatchSequential(t *testing.T) {
	cfg := WorldConfig{
		Topology: topology.Config{
			Model:        topology.ModelBarabasiAlbert,
			CoreRouters:  300,
			LeafRouters:  300,
			EdgesPerNode: 2,
			Seed:         11,
		},
		NumLandmarks: 4,
		Seed:         11,
	}
	seq, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.JoinN(120); err != nil {
		t.Fatal(err)
	}
	cfgB := cfg
	cfgB.BatchSize = 16
	bat, err := BuildWorld(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := bat.JoinN(120); err != nil {
		t.Fatal(err)
	}
	if seq.Server.NumPeers() != bat.Server.NumPeers() {
		t.Fatalf("peers: seq=%d batch=%d", seq.Server.NumPeers(), bat.Server.NumPeers())
	}
	if seq.ProbeCount != bat.ProbeCount {
		t.Fatalf("probe count: seq=%d batch=%d", seq.ProbeCount, bat.ProbeCount)
	}
	for _, p := range seq.Server.Peers() {
		a, err := seq.Server.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bat.Server.Lookup(p)
		if err != nil {
			t.Fatalf("batched world lost peer %d: %v", p, err)
		}
		if len(a) != len(b) {
			t.Fatalf("peer %d: %d vs %d neighbours", p, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("peer %d neighbour %d: %+v vs %+v", p, k, a[k], b[k])
			}
		}
	}
}

// TestBatchedJoinsOverCluster exercises BatchSize together with Shards:
// the grouped inserts route through cluster.JoinBatch.
func TestBatchedJoinsOverCluster(t *testing.T) {
	w, err := BuildWorld(WorldConfig{
		Topology: topology.Config{
			Model:        topology.ModelBarabasiAlbert,
			CoreRouters:  300,
			LeafRouters:  300,
			EdgesPerNode: 2,
			Seed:         12,
		},
		NumLandmarks: 4,
		Shards:       2,
		BatchSize:    8,
		Seed:         12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.JoinN(100); err != nil {
		t.Fatal(err)
	}
	if got := w.Server.NumPeers(); got != 100 {
		t.Fatalf("peers=%d", got)
	}
	if _, err := w.EvaluateQuality(50); err != nil {
		t.Fatal(err)
	}
}
