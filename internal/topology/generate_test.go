package topology

import (
	"slices"
	"testing"
)

// BenchmarkTopologyGenerate measures paper-scale map generation.
func BenchmarkTopologyGenerate(b *testing.B) {
	var cfg Config
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGenerateBarabasiAlbert(t *testing.T) {
	g, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 500, LeafRouters: 500, EdgesPerNode: 2, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes=%d want 1000", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("BA graph disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if leaves := len(LeafRouters(g)); leaves < 500 {
		t.Fatalf("leaf routers=%d want >= 500", leaves)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := Config{Model: ModelBarabasiAlbert, CoreRouters: 300, LeafRouters: 100, EdgesPerNode: 2, Seed: 42}
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatalf("edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	g1, _ := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 300, LeafRouters: 100, EdgesPerNode: 2, Seed: 1})
	g2, _ := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 300, LeafRouters: 100, EdgesPerNode: 2, Seed: 2})
	e1, e2 := g1.Edges(), g2.Edges()
	same := len(e1) == len(e2)
	if same {
		for i := range e1 {
			if e1[i] != e2[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateGLP(t *testing.T) {
	g, err := Generate(Config{Model: ModelGLP, CoreRouters: 400, LeafRouters: 200, EdgesPerNode: 2, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !g.IsConnected() {
		t.Fatal("GLP graph disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGenerateWaxman(t *testing.T) {
	g, err := Generate(Config{Model: ModelWaxman, CoreRouters: 300, LeafRouters: 150, Seed: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !g.IsConnected() {
		t.Fatal("Waxman graph disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGenerateTransitStub(t *testing.T) {
	g, err := Generate(Config{Model: ModelTransitStub, CoreRouters: 500, LeafRouters: 300, Seed: 9})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !g.IsConnected() {
		t.Fatal("transit-stub graph disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if leaves := len(LeafRouters(g)); leaves < 300 {
		t.Fatalf("leaf routers=%d want >= 300", leaves)
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	// The BA surrogate must show the heavy tail the paper relies on: the
	// maximum degree should vastly exceed the average.
	g, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 2000, LeafRouters: 2000, EdgesPerNode: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	avg := AverageDegree(g)
	maxd := MaxDegree(g)
	if float64(maxd) < 10*avg {
		t.Fatalf("max degree %d not heavy-tailed vs avg %.2f", maxd, avg)
	}
	alpha, n := PowerLawFit(g, 3)
	if n < 100 {
		t.Fatalf("power-law fit used only %d samples", n)
	}
	if alpha < 1.5 || alpha > 4.5 {
		t.Fatalf("power-law exponent %.2f outside plausible Internet range", alpha)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 2}); err == nil {
		t.Fatal("accepted CoreRouters=2")
	}
	if _, err := Generate(Config{Model: Model(99), CoreRouters: 100}); err == nil {
		t.Fatal("accepted unknown model")
	}
	if _, err := Generate(Config{Model: ModelGLP, CoreRouters: 100, GLPBeta: 1.5}); err == nil {
		t.Fatal("accepted GLPBeta >= 1")
	}
}

func TestParseModelRoundTrip(t *testing.T) {
	for _, m := range []Model{ModelBarabasiAlbert, ModelGLP, ModelWaxman, ModelTransitStub} {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("round trip %v -> %v", m, got)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Fatal("accepted unknown model name")
	}
}

// TestDefaultConfig pins the paper-scale map a zero Config generates:
// 2 000 core routers under Barabási–Albert with 2 edges per newcomer, and
// 2 000 degree-1 leaf routers.
func TestDefaultConfig(t *testing.T) {
	g, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 2000, LeafRouters: 2000, EdgesPerNode: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4000 || !slices.Equal(g.Edges(), want.Edges()) {
		t.Fatalf("zero config: %d routers and %d links, want the 4000-router map's %d links",
			g.NumNodes(), g.NumEdges(), want.NumEdges())
	}
}
