package routing

import (
	"testing"
	"testing/quick"

	"proxdisc/internal/topology"
)

// lineGraph returns 0-1-2-...-n-1.
func lineGraph(n int) *topology.Graph {
	g := topology.NewGraph(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(topology.NodeID(i-1), topology.NodeID(i)); err != nil {
			panic(err)
		}
	}
	return g
}

func TestBFSTreeLine(t *testing.T) {
	g := lineGraph(5)
	tr, err := BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if tr.Depth[i] != int32(i) {
			t.Fatalf("depth[%d]=%d want %d", i, tr.Depth[i], i)
		}
	}
	path := tr.PathFrom(4)
	want := []topology.NodeID{4, 3, 2, 1, 0}
	if len(path) != len(want) {
		t.Fatalf("path=%v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path=%v want %v", path, want)
		}
	}
}

func TestBFSTreeRootPath(t *testing.T) {
	g := lineGraph(3)
	tr, _ := BFSTree(g, 1)
	p := tr.PathFrom(1)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("root path=%v", p)
	}
	if tr.Depth[1] != 0 {
		t.Fatalf("root distance=%d", tr.Depth[1])
	}
}

func TestBFSTreeUnreachable(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	tr, _ := BFSTree(g, 0)
	if tr.Depth[2] != Unreachable {
		t.Fatalf("disconnected node depth=%d", tr.Depth[2])
	}
	if tr.PathFrom(2) != nil {
		t.Fatal("path to unreachable node should be nil")
	}
}

func TestBFSTreeBadRoot(t *testing.T) {
	g := lineGraph(2)
	if _, err := BFSTree(g, 7); err == nil {
		t.Fatal("accepted out-of-range root")
	}
	if _, err := BFSTree(g, -1); err == nil {
		t.Fatal("accepted negative root")
	}
}

func TestBFSDeterministicTieBreak(t *testing.T) {
	// Diamond: 0-1, 0-2, 1-3, 2-3. From root 0, node 3 has two equal-cost
	// parents (1 and 2); the tree must pick 1 (smaller ID) every time.
	g := topology.NewGraph(4)
	for _, e := range [][2]topology.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		tr, _ := BFSTree(g, 0)
		if tr.Parent[3] != 1 {
			t.Fatalf("tie-break chose parent %d want 1", tr.Parent[3])
		}
	}
}

// Property: every PathFrom result starts at the query node, ends at the
// root, has length depth+1, and every consecutive pair is a real edge.
func TestPathWellFormed(t *testing.T) {
	g, err := topology.Generate(topology.Config{Model: topology.ModelBarabasiAlbert, CoreRouters: 100, LeafRouters: 80, EdgesPerNode: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := BFSTree(g, 0)
	n := g.NumNodes()
	f := func(raw uint16) bool {
		u := topology.NodeID(int(raw) % n)
		p := tr.PathFrom(u)
		if len(p) != int(tr.Depth[u])+1 {
			return false
		}
		if p[0] != u || p[len(p)-1] != 0 {
			return false
		}
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
