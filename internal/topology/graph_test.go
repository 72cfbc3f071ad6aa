package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := NewGraph(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.IsConnected() {
		t.Fatal("empty graph should be considered connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("reversed duplicate edge accepted")
	}
}

func TestAddEdgeRejectsUnknownNode(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddEdge(0, 5); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("edge from negative node accepted")
	}
}

func TestHasEdgeSymmetry(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 0, 3)
	if g.Degree(0) != 3 {
		t.Fatalf("degree(0)=%d want 3", g.Degree(0))
	}
	if g.Degree(1) != 1 {
		t.Fatalf("degree(1)=%d want 1", g.Degree(1))
	}
	if g.Degree(-1) != 0 || g.Degree(99) != 0 {
		t.Fatal("invalid IDs should have degree 0")
	}
	if len(g.Neighbors(0)) != 3 {
		t.Fatalf("neighbors(0)=%v", g.Neighbors(0))
	}
	if g.Neighbors(99) != nil {
		t.Fatal("invalid ID should have nil neighbors")
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 2, 1)
	mustEdge(t, g, 0, 3)
	edges := g.Edges()
	want := [][2]NodeID{{0, 3}, {1, 2}}
	if len(edges) != len(want) {
		t.Fatalf("edges=%v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges[%d]=%v want %v", i, edges[i], want[i])
		}
	}
}

func TestConnectivity(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 2, 3)
	if g.IsConnected() {
		t.Fatal("two components reported connected")
	}
	comps := g.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components=%d want 2", len(comps))
	}
	mustEdge(t, g, 1, 2)
	if !g.IsConnected() {
		t.Fatal("bridged graph reported disconnected")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	// Corrupt adjacency symmetry directly.
	g.adj[2] = append(g.adj[2], 0)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric adjacency")
	}
}

// Property: random graphs built through AddEdge always validate, and edge
// count equals the number of distinct pairs inserted.
func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		g := NewGraph(n)
		inserted := make(map[[2]NodeID]bool)
		for k := 0; k < 3*n; k++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if inserted[[2]NodeID{a, b}] {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				return false
			}
			inserted[[2]NodeID{a, b}] = true
		}
		if g.NumEdges() != len(inserted) {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func mustEdge(t *testing.T, g *Graph, u, v NodeID) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

func TestHopsFromSymmetric(t *testing.T) {
	g, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 200, LeafRouters: 100, EdgesPerNode: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 10; k++ {
		u := NodeID(rng.Intn(g.NumNodes()))
		v := NodeID(rng.Intn(g.NumNodes()))
		du, dv := g.HopsFrom(u), g.HopsFrom(v)
		if du[v] != dv[u] {
			t.Fatalf("asymmetric hop distance d(%d,%d)=%d but d(%d,%d)=%d", u, v, du[v], v, u, dv[u])
		}
	}
}

// Property: hop distances obey the triangle inequality on connected graphs.
func TestHopTriangleInequality(t *testing.T) {
	g, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 120, LeafRouters: 80, EdgesPerNode: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	f := func(a, b, c uint16) bool {
		u := NodeID(int(a) % n)
		v := NodeID(int(b) % n)
		w := NodeID(int(c) % n)
		du, dv := g.HopsFrom(u), g.HopsFrom(v)
		return du[w] <= du[v]+dv[w]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
