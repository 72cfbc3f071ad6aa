package metrics

import (
	"math/rand"
	"strings"
	"testing"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// lineDist builds BFS distances on a 6-node line graph from node 0.
func lineDist(t *testing.T) ([]int32, *topology.Graph) {
	t.Helper()
	g := topology.NewGraph(6)
	for i := 1; i < 6; i++ {
		if err := g.AddEdge(topology.NodeID(i-1), topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g.HopsFrom(0), g
}

func TestNeighborScore(t *testing.T) {
	dist, _ := lineDist(t)
	att := Attachments{1: 1, 2: 3, 3: 5}
	got, err := NeighborScore(dist, att, []pathtree.PeerID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1+3 {
		t.Fatalf("score=%d want 4", got)
	}
	if _, err := NeighborScore(dist, att, []pathtree.PeerID{9}); err == nil {
		t.Fatal("accepted unknown neighbour")
	}
}

func TestNeighborScoreUnreachable(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	dist := g.HopsFrom(0)
	att := Attachments{1: 2}
	if _, err := NeighborScore(dist, att, []pathtree.PeerID{1}); err == nil {
		t.Fatal("accepted unreachable neighbour")
	}
}

func TestBestK(t *testing.T) {
	dist, _ := lineDist(t)
	att := Attachments{0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
	// Query peer 0 at router 0; best 2 among others = routers 1,2 → 1+2.
	got, err := BestK(dist, att, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("BestK=%d want 3", got)
	}
	// k exceeding population clamps.
	got, _ = BestK(dist, att, 0, 99)
	if got != 1+2+3+4+5 {
		t.Fatalf("clamped BestK=%d", got)
	}
	if _, err := BestK(dist, att, 0, 0); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestRandomKBounds(t *testing.T) {
	dist, _ := lineDist(t)
	att := Attachments{0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
	best, _ := BestK(dist, att, 0, 3)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		got, err := RandomK(dist, att, 0, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got < best {
			t.Fatalf("random %d beat optimal %d", got, best)
		}
		if got > 3+4+5 {
			t.Fatalf("random %d exceeds worst case", got)
		}
	}
	if _, err := RandomK(dist, att, 0, -1, rng); err == nil {
		t.Fatal("accepted negative k")
	}
}

func TestRandomKDeterministicWithSeed(t *testing.T) {
	dist, _ := lineDist(t)
	att := Attachments{0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
	a, _ := RandomK(dist, att, 0, 2, rand.New(rand.NewSource(9)))
	b, _ := RandomK(dist, att, 0, 2, rand.New(rand.NewSource(9)))
	if a != b {
		t.Fatal("same seed produced different Drandom")
	}
}

func TestTableFormat(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"n", "ratio"}}
	tb.AddRow(600, 1.2345)
	tb.AddRow(1400, 1.1)
	out := tb.Format()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1.2345") {
		t.Fatalf("format:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Columns: []string{"a", "b,with comma"}}
	tb.AddRow("x\"y", 2)
	csv := tb.CSV()
	if !strings.Contains(csv, `"b,with comma"`) {
		t.Fatalf("csv escaping failed:\n%s", csv)
	}
	if !strings.Contains(csv, `"x""y"`) {
		t.Fatalf("quote escaping failed:\n%s", csv)
	}
	if !strings.HasSuffix(csv, "\n") {
		t.Fatal("csv should end with newline")
	}
}
