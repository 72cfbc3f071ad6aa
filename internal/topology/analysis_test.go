package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// star returns a star graph: node 0 is the hub with n spokes.
func star(n int) *Graph {
	g := NewGraph(n + 1)
	for i := 1; i <= n; i++ {
		g.addEdgeUnchecked(0, NodeID(i))
	}
	return g
}

// path returns a path graph 0-1-2-...-n-1.
func path(n int) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.addEdgeUnchecked(NodeID(i-1), NodeID(i))
	}
	return g
}

func TestDegreeHistogram(t *testing.T) {
	g := star(4)
	h := DegreeHistogram(g)
	if h[4] != 1 || h[1] != 4 {
		t.Fatalf("histogram=%v", h)
	}
	if AverageDegree(g) != 2*4.0/5.0 {
		t.Fatalf("avg degree=%v", AverageDegree(g))
	}
	if MaxDegree(g) != 4 {
		t.Fatalf("max degree=%v", MaxDegree(g))
	}
}

func TestLeafRouters(t *testing.T) {
	g := star(3)
	leaves := LeafRouters(g)
	if len(leaves) != 3 {
		t.Fatalf("leaves=%v", leaves)
	}
	for _, l := range leaves {
		if g.Degree(l) != 1 {
			t.Fatalf("leaf %d has degree %d", l, g.Degree(l))
		}
	}
}

func TestNodesInBand(t *testing.T) {
	g, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 1000, LeafRouters: 1000, EdgesPerNode: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	leaf := NodesInBand(g, BandLeaf)
	medium := NodesInBand(g, BandMedium)
	core := NodesInBand(g, BandCore)
	all := NodesInBand(g, BandAny)
	if len(all) != g.NumNodes() {
		t.Fatalf("BandAny=%d want %d", len(all), g.NumNodes())
	}
	if len(leaf) == 0 || len(medium) == 0 || len(core) == 0 {
		t.Fatalf("empty band: leaf=%d medium=%d core=%d", len(leaf), len(medium), len(core))
	}
	// Bands must respect degree ordering: every core router's degree must be
	// >= every medium band lower bound, and medium routers exceed degree 1.
	minCore := MaxDegree(g)
	for _, u := range core {
		if d := g.Degree(u); d < minCore {
			minCore = d
		}
	}
	for _, u := range medium {
		if d := g.Degree(u); d <= 1 {
			t.Fatalf("medium band contains leaf %d", u)
		}
		if g.Degree(u) > minCore && minCore > 2 {
			// Medium band can overlap core's lower edge at the 90th
			// percentile boundary, but must not exceed it by much; allow
			// equality only.
			if g.Degree(u) > minCore {
				t.Fatalf("medium router %d degree %d exceeds core minimum %d", u, g.Degree(u), minCore)
			}
		}
	}
}

func TestPickNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cands := []NodeID{1, 2, 3, 4, 5}
	got := PickNodes(cands, 3, rng)
	if len(got) != 3 {
		t.Fatalf("picked %d want 3", len(got))
	}
	seen := map[NodeID]bool{}
	for _, u := range got {
		if seen[u] {
			t.Fatalf("duplicate pick %d", u)
		}
		seen[u] = true
	}
	all := PickNodes(cands, 10, rng)
	if len(all) != 5 {
		t.Fatalf("over-ask returned %d want 5", len(all))
	}
}

func TestKCoreStar(t *testing.T) {
	g := star(5)
	core := KCore(g)
	for u, c := range core {
		if c != 1 {
			t.Fatalf("star node %d coreness %d want 1", u, c)
		}
	}
}

func TestKCoreClique(t *testing.T) {
	n := 6
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.addEdgeUnchecked(NodeID(i), NodeID(j))
		}
	}
	for u, c := range KCore(g) {
		if c != n-1 {
			t.Fatalf("clique node %d coreness %d want %d", u, c, n-1)
		}
	}
}

func TestKCoreCliqueWithTail(t *testing.T) {
	// 4-clique with a 2-path tail: clique nodes have coreness 3, tail 1.
	g := NewGraph(6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.addEdgeUnchecked(NodeID(i), NodeID(j))
		}
	}
	g.addEdgeUnchecked(3, 4)
	g.addEdgeUnchecked(4, 5)
	core := KCore(g)
	want := []int{3, 3, 3, 3, 1, 1}
	for u := range want {
		if core[u] != want[u] {
			t.Fatalf("coreness[%d]=%d want %d (all %v)", u, core[u], want[u], core)
		}
	}
}

func TestBetweennessPathCenter(t *testing.T) {
	// On a path, the middle node carries the most shortest paths.
	g := path(7)
	rng := rand.New(rand.NewSource(1))
	bc := BetweennessSample(g, 7, rng) // all sources: exact
	for u := 1; u < 6; u++ {
		if bc[u] <= bc[0] {
			t.Fatalf("interior node %d centrality %v not above endpoint %v", u, bc[u], bc[0])
		}
	}
	if !(bc[3] >= bc[1] && bc[3] >= bc[5]) {
		t.Fatalf("middle node not maximal: %v", bc)
	}
}

func TestBetweennessCoreDominatesLeaves(t *testing.T) {
	g, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 500, LeafRouters: 500, EdgesPerNode: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	bc := BetweennessSample(g, 60, rng)
	// Average centrality of top-degree decile must exceed leaf average —
	// the "centrality" premise of the paper (§2).
	var coreSum, leafSum float64
	coreN, leafN := 0, 0
	coreSet := map[NodeID]bool{}
	for _, u := range NodesInBand(g, BandCore) {
		coreSet[u] = true
	}
	for u := 0; u < g.NumNodes(); u++ {
		switch {
		case coreSet[NodeID(u)]:
			coreSum += bc[u]
			coreN++
		case g.Degree(NodeID(u)) == 1:
			leafSum += bc[u]
			leafN++
		}
	}
	if coreN == 0 || leafN == 0 {
		t.Fatal("bands empty")
	}
	if coreSum/float64(coreN) <= leafSum/float64(leafN)*10 {
		t.Fatalf("core centrality %.3g not >> leaf centrality %.3g",
			coreSum/float64(coreN), leafSum/float64(leafN))
	}
}

// Property: KCore coreness never exceeds degree and is monotone under the
// peeling definition (spot-checked: coreness >= 1 on connected graphs with
// edges).
func TestKCoreBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 60, LeafRouters: 40, EdgesPerNode: 2, Seed: rng.Int63()})
		if err != nil {
			return false
		}
		core := KCore(g)
		for u := 0; u < g.NumNodes(); u++ {
			c := core[u]
			if c > g.Degree(NodeID(u)) || c < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
