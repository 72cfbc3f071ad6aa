package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Model selects a topology generation model.
type Model int

const (
	// ModelBarabasiAlbert grows a graph by preferential attachment,
	// producing a power-law degree distribution — the primary surrogate for
	// the Magoni–Hoerdt IR map used in the paper.
	ModelBarabasiAlbert Model = iota
	// ModelGLP is the Generalized Linear Preference variant of preferential
	// attachment (Bu & Towsley), which produces heavier cores.
	ModelGLP
	// ModelWaxman places routers uniformly in the unit square and connects
	// them with distance-decaying probability. Degrees are NOT heavy-tailed;
	// used to test sensitivity of the path-tree heuristic to the heavy tail.
	ModelWaxman
	// ModelTransitStub builds a small transit core of interconnected transit
	// domains with stub domains hanging off them, mimicking hierarchical
	// AS-like structure at router granularity.
	ModelTransitStub
)

// String returns the model's canonical name.
func (m Model) String() string {
	switch m {
	case ModelBarabasiAlbert:
		return "barabasi-albert"
	case ModelGLP:
		return "glp"
	case ModelWaxman:
		return "waxman"
	case ModelTransitStub:
		return "transit-stub"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// ParseModel converts a model name to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "barabasi-albert", "ba":
		return ModelBarabasiAlbert, nil
	case "glp":
		return ModelGLP, nil
	case "waxman":
		return ModelWaxman, nil
	case "transit-stub", "ts":
		return ModelTransitStub, nil
	}
	return 0, fmt.Errorf("topology: unknown model %q", s)
}

// Config parameterizes topology generation.
type Config struct {
	// Model selects the generator.
	Model Model
	// CoreRouters is the number of routers in the generated backbone
	// (before leaf attachment).
	CoreRouters int
	// LeafRouters is the number of additional degree-1 edge routers to
	// attach. The paper attaches peers to degree-1 routers, so every
	// generated map needs a sizeable degree-1 fringe.
	LeafRouters int
	// EdgesPerNode is the number of edges each new node brings during
	// preferential attachment (BA's "m"). Ignored by Waxman/TransitStub.
	EdgesPerNode int
	// GLPBeta is the GLP shift parameter in (-inf, 1); larger values give a
	// heavier tail. Only used by ModelGLP. Zero means the GLP default 0.6469
	// from Bu & Towsley's Internet fit.
	GLPBeta float64
	// Seed seeds the deterministic generator RNG.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.CoreRouters == 0 {
		c.CoreRouters = 2000
	}
	if c.LeafRouters == 0 && c.Model != ModelTransitStub {
		c.LeafRouters = c.CoreRouters
	}
	if c.EdgesPerNode == 0 {
		c.EdgesPerNode = 2
	}
	if c.GLPBeta == 0 {
		c.GLPBeta = 0.6469
	}
}

// The shapes of the sensitivity models: Waxman's classical alpha and beta,
// and a transit-stub core of 4 transit domains of 8 routers, each router
// sponsoring 3 stub domains sized so the stubs hold about CoreRouters.
const (
	waxmanAlpha     = 0.15
	waxmanBeta      = 0.25
	transitDomains  = 4
	transitSize     = 8
	stubsPerTransit = 3
)

// Generate builds a router graph per the configuration. The result is always
// connected, and — except for degenerate configurations — contains at least
// LeafRouters degree-1 routers for host attachment.
func Generate(cfg Config) (*Graph, error) {
	cfg.applyDefaults()
	if cfg.CoreRouters < 3 {
		return nil, fmt.Errorf("topology: need at least 3 core routers, got %d", cfg.CoreRouters)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var g *Graph
	var err error
	switch cfg.Model {
	case ModelBarabasiAlbert:
		g, err = barabasiAlbert(cfg.CoreRouters, cfg.EdgesPerNode, rng)
	case ModelGLP:
		g, err = glp(cfg.CoreRouters, cfg.EdgesPerNode, cfg.GLPBeta, rng)
	case ModelWaxman:
		g, err = waxman(cfg.CoreRouters, waxmanAlpha, waxmanBeta, rng)
	case ModelTransitStub:
		g, err = transitStub(cfg, rng)
	default:
		return nil, fmt.Errorf("topology: unknown model %v", cfg.Model)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Model != ModelTransitStub {
		attachLeaves(g, cfg.LeafRouters, cfg.Model, rng)
	}
	if !g.IsConnected() {
		connectComponents(g, rng)
	}
	return g, nil
}

// barabasiAlbert grows a preferential-attachment graph: each new node
// attaches m edges to existing nodes chosen proportionally to degree.
// Implementation uses the standard repeated-endpoint trick: targets are
// sampled from a slice that lists every edge endpoint, which realizes
// degree-proportional sampling in O(1).
func barabasiAlbert(n, m int, rng *rand.Rand) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("topology: EdgesPerNode must be >= 1, got %d", m)
	}
	if n <= m {
		return nil, fmt.Errorf("topology: need more than %d nodes for m=%d", m, m)
	}
	g := NewGraph(n)
	// Seed clique of m+1 nodes keeps early sampling well-defined.
	endpoints := make([]NodeID, 0, 2*n*m)
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.addEdgeUnchecked(NodeID(i), NodeID(j))
			endpoints = append(endpoints, NodeID(i), NodeID(j))
		}
	}
	seen := make(map[NodeID]bool, m)
	targets := make([]NodeID, 0, m)
	for v := m + 1; v < n; v++ {
		clear(seen)
		targets = targets[:0]
		for len(targets) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if !seen[t] {
				seen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			g.addEdgeUnchecked(NodeID(v), t)
			endpoints = append(endpoints, NodeID(v), t)
		}
	}
	return g, nil
}

// glp implements Generalized Linear Preference attachment: the probability of
// choosing node i is proportional to degree(i) - beta. With beta in (0,1)
// this yields a heavier tail than plain BA. Sampling uses rejection against
// the max adjusted weight.
func glp(n, m int, beta float64, rng *rand.Rand) (*Graph, error) {
	if beta >= 1 {
		return nil, fmt.Errorf("topology: GLPBeta must be < 1, got %g", beta)
	}
	if m < 1 {
		return nil, fmt.Errorf("topology: EdgesPerNode must be >= 1, got %d", m)
	}
	if n <= m+1 {
		return nil, fmt.Errorf("topology: need more than %d nodes for m=%d", m+1, m)
	}
	g := NewGraph(n)
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.addEdgeUnchecked(NodeID(i), NodeID(j))
		}
	}
	grown := m + 1
	totalWeight := func() float64 {
		return float64(2*g.NumEdges()) - beta*float64(grown)
	}
	pick := func(exclude map[NodeID]bool) NodeID {
		for {
			x := rng.Float64() * totalWeight()
			acc := 0.0
			for i := 0; i < grown; i++ {
				acc += float64(g.Degree(NodeID(i))) - beta
				if x < acc {
					if exclude[NodeID(i)] {
						break // resample
					}
					return NodeID(i)
				}
			}
		}
	}
	exclude := make(map[NodeID]bool, m)
	chosen := make([]NodeID, 0, m)
	for v := m + 1; v < n; v++ {
		clear(exclude)
		chosen = chosen[:0]
		for len(chosen) < m {
			t := pick(exclude)
			exclude[t] = true
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			g.addEdgeUnchecked(NodeID(v), t)
		}
		grown++
	}
	return g, nil
}

// waxman places n routers uniformly at random in the unit square and links
// each pair with probability alpha*exp(-d/(beta*L)) where L is the maximum
// distance. A spanning chain over a random permutation guarantees
// connectivity without distorting degree statistics materially.
func waxman(n int, alpha, beta float64, rng *rand.Rand) (*Graph, error) {
	g := NewGraph(n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	maxD := math.Sqrt2
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
			if rng.Float64() < alpha*math.Exp(-d/(beta*maxD)) {
				g.addEdgeUnchecked(NodeID(i), NodeID(j))
			}
		}
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := NodeID(perm[i-1]), NodeID(perm[i])
		if !g.HasEdge(u, v) {
			g.addEdgeUnchecked(u, v)
		}
	}
	return g, nil
}

// transitStub builds a two-level hierarchy: transitDomains clique-ish
// transit domains whose routers are richly connected, each transit router
// sponsoring stubsPerTransit stub domains arranged as sparse meshes with
// degree-1 hosts on the rim.
func transitStub(cfg Config, rng *rand.Rand) (*Graph, error) {
	td, ts, spt := transitDomains, transitSize, stubsPerTransit
	ss := max(4, cfg.CoreRouters/(td*ts*spt))
	g := NewGraph(0)
	transit := make([][]NodeID, td)
	for d := 0; d < td; d++ {
		transit[d] = make([]NodeID, ts)
		for i := 0; i < ts; i++ {
			transit[d][i] = g.AddNode()
		}
		// Ring plus random chords inside the transit domain.
		for i := 0; i < ts; i++ {
			u, v := transit[d][i], transit[d][(i+1)%ts]
			if !g.HasEdge(u, v) {
				g.addEdgeUnchecked(u, v)
			}
		}
		for i := 0; i < ts; i++ {
			u := transit[d][i]
			v := transit[d][rng.Intn(ts)]
			if u != v && !g.HasEdge(u, v) {
				g.addEdgeUnchecked(u, v)
			}
		}
	}
	// Inter-domain links: connect each domain to the next by two links.
	for d := 0; d < td; d++ {
		next := (d + 1) % td
		for k := 0; k < 2; k++ {
			u := transit[d][rng.Intn(ts)]
			v := transit[next][rng.Intn(ts)]
			if u != v && !g.HasEdge(u, v) {
				g.addEdgeUnchecked(u, v)
			}
		}
	}
	// Stub domains: a chain with a random chord, homed onto one transit
	// router, with LeafRouters/stubs degree-1 hosts spread across stubs.
	var stubRouters []NodeID
	for d := 0; d < td; d++ {
		for i := 0; i < ts; i++ {
			for s := 0; s < spt; s++ {
				var prev NodeID = InvalidNode
				var members []NodeID
				for r := 0; r < ss; r++ {
					nd := g.AddNode()
					members = append(members, nd)
					if prev != InvalidNode {
						g.addEdgeUnchecked(prev, nd)
					}
					prev = nd
				}
				if len(members) >= 3 {
					u := members[rng.Intn(len(members))]
					v := members[rng.Intn(len(members))]
					if u != v && !g.HasEdge(u, v) {
						g.addEdgeUnchecked(u, v)
					}
				}
				g.addEdgeUnchecked(members[0], transit[d][i])
				stubRouters = append(stubRouters, members...)
			}
		}
	}
	// Degree-1 fringe on random stub routers.
	for k := 0; k < cfg.LeafRouters; k++ {
		host := g.AddNode()
		g.addEdgeUnchecked(host, stubRouters[rng.Intn(len(stubRouters))])
	}
	return g, nil
}

// attachLeaves adds count degree-1 routers. For heavy-tailed models they are
// attached preferentially to low-degree existing routers (edge routers sit at
// the fringe of the real Internet, not on the core), for Waxman uniformly.
func attachLeaves(g *Graph, count int, model Model, rng *rand.Rand) {
	if count <= 0 {
		return
	}
	base := g.NumNodes()
	// Build a candidate pool biased toward low-degree routers: a router of
	// degree d is included ceil(maxDeg/d) times, capped to keep pool small.
	maxDeg := 1
	for u := 0; u < base; u++ {
		if d := g.Degree(NodeID(u)); d > maxDeg {
			maxDeg = d
		}
	}
	var pool []NodeID
	for u := 0; u < base; u++ {
		d := g.Degree(NodeID(u))
		if d == 0 {
			continue
		}
		reps := 1
		if model != ModelWaxman {
			reps = min(8, maxDeg/d+1)
		}
		for r := 0; r < reps; r++ {
			pool = append(pool, NodeID(u))
		}
	}
	for k := 0; k < count; k++ {
		leaf := g.AddNode()
		g.addEdgeUnchecked(leaf, pool[rng.Intn(len(pool))])
	}
}

// connectComponents links all connected components to the largest one with a
// single edge each, chosen between random members.
func connectComponents(g *Graph, rng *rand.Rand) {
	comps := g.ConnectedComponents()
	if len(comps) <= 1 {
		return
	}
	main := comps[0]
	for _, comp := range comps[1:] {
		u := main[rng.Intn(len(main))]
		v := comp[rng.Intn(len(comp))]
		if !g.HasEdge(u, v) {
			g.addEdgeUnchecked(u, v)
		}
	}
}
