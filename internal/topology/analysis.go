package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// DegreeHistogram returns a map degree → number of nodes with that degree.
func DegreeHistogram(g *Graph) map[int]int {
	h := make(map[int]int)
	for u := 0; u < g.NumNodes(); u++ {
		h[g.Degree(NodeID(u))]++
	}
	return h
}

// AverageDegree returns the mean node degree (2E/N). Zero for empty graphs.
func AverageDegree(g *Graph) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(g.NumNodes())
}

// MaxDegree returns the largest degree in the graph.
func MaxDegree(g *Graph) int {
	best := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(NodeID(u)); d > best {
			best = d
		}
	}
	return best
}

// NodesWithDegree returns all nodes whose degree is exactly d, ascending.
// The paper attaches peers to routers "with degree equals to one".
func NodesWithDegree(g *Graph, d int) []NodeID {
	var out []NodeID
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(NodeID(u)) == d {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// LeafRouters returns all degree-1 routers (host attachment points).
func LeafRouters(g *Graph) []NodeID { return NodesWithDegree(g, 1) }

// DegreeBand classifies nodes into bands by degree percentile for landmark
// placement policies.
type DegreeBand int

const (
	// BandMedium selects routers between the 50th and 90th degree
	// percentiles (excluding degree-1) — the paper places landmarks on
	// "routers with medium-size degree". It is the zero value, so a
	// config that names no band gets the paper's.
	BandMedium DegreeBand = iota
	// BandLeaf selects degree-1 routers.
	BandLeaf
	// BandCore selects the top decile by degree.
	BandCore
	// BandAny selects every router.
	BandAny
)

// String returns the band's canonical name.
func (b DegreeBand) String() string {
	switch b {
	case BandMedium:
		return "medium"
	case BandLeaf:
		return "leaf"
	case BandCore:
		return "core"
	case BandAny:
		return "any"
	default:
		return fmt.Sprintf("band(%d)", int(b))
	}
}

// NodesInBand returns the routers falling in the requested degree band,
// sorted ascending by ID for determinism.
func NodesInBand(g *Graph, band DegreeBand) []NodeID {
	switch band {
	case BandLeaf:
		return LeafRouters(g)
	case BandAny:
		return g.Nodes()
	}
	// Percentile thresholds over the multiset of degrees of non-leaf nodes.
	var degrees []int
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(NodeID(u)); d > 1 {
			degrees = append(degrees, d)
		}
	}
	if len(degrees) == 0 {
		return nil
	}
	sort.Ints(degrees)
	pct := func(p float64) int {
		idx := int(p * float64(len(degrees)-1))
		return degrees[idx]
	}
	lo, hi := 0, math.MaxInt
	switch band {
	case BandMedium:
		lo, hi = pct(0.50), pct(0.90)
		if hi <= lo {
			hi = lo + 1
		}
	case BandCore:
		lo = pct(0.90)
	}
	var out []NodeID
	for u := 0; u < g.NumNodes(); u++ {
		d := g.Degree(NodeID(u))
		if d > 1 && d >= lo && d <= hi {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// PickNodes deterministically samples k distinct nodes from candidates using
// rng. It returns fewer than k when candidates are scarce.
func PickNodes(candidates []NodeID, k int, rng *rand.Rand) []NodeID {
	if k >= len(candidates) {
		return append([]NodeID(nil), candidates...)
	}
	perm := rng.Perm(len(candidates))
	out := make([]NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = candidates[perm[i]]
	}
	return out
}

// KCore computes the coreness of every node: the largest k such that the node
// belongs to the maximal subgraph where every node has degree >= k. Uses the
// standard peeling algorithm in O(E).
func KCore(g *Graph) []int {
	n := g.NumNodes()
	deg := make([]int, n)
	maxDeg := 0
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(NodeID(u))
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Bucket sort nodes by degree.
	bins := make([]int, maxDeg+2)
	for _, d := range deg {
		bins[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bins[d]
		bins[d] = start
		start += c
	}
	pos := make([]int, n)
	order := make([]NodeID, n)
	for u := 0; u < n; u++ {
		pos[u] = bins[deg[u]]
		order[pos[u]] = NodeID(u)
		bins[deg[u]]++
	}
	for d := maxDeg; d > 0; d-- {
		bins[d] = bins[d-1]
	}
	bins[0] = 0
	core := make([]int, n)
	cur := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		u := order[i]
		core[u] = cur[u]
		for _, v := range g.Neighbors(u) {
			if cur[v] > cur[u] {
				// Move v one bucket down: swap with first node of its bucket.
				dv := cur[v]
				pv := pos[v]
				pw := bins[dv]
				w := order[pw]
				if v != w {
					order[pv], order[pw] = w, v
					pos[v], pos[w] = pw, pv
				}
				bins[dv]++
				cur[v]--
			}
		}
	}
	return core
}

// BetweennessSample estimates normalized betweenness centrality by running
// Brandes' accumulation from `samples` random source nodes. The paper's
// argument rests on core routers having high centrality; this estimator lets
// tests and the topology tool verify that property on generated maps.
func BetweennessSample(g *Graph, samples int, rng *rand.Rand) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if n == 0 || samples <= 0 {
		return bc
	}
	if samples > n {
		samples = n
	}
	sources := rng.Perm(n)[:samples]
	// Brandes' single-source accumulation (unweighted).
	dist := make([]int, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]NodeID, n)
	queue := make([]NodeID, 0, n)
	stack := make([]NodeID, 0, n)
	for _, si := range sources {
		s := NodeID(si)
		for i := range dist {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		dist[s] = 0
		sigma[s] = 1
		queue = append(queue[:0], s)
		stack = stack[:0]
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			stack = append(stack, u)
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, u := range preds[w] {
				delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	// Normalize by sample count and the (n-1)(n-2) pair universe so values
	// are comparable across graph sizes.
	norm := float64(samples) / float64(n) * float64(n-1) * float64(n-2)
	if norm > 0 {
		for i := range bc {
			bc[i] /= norm
		}
	}
	return bc
}

// PowerLawFit estimates the exponent alpha of a discrete power-law fit to the
// degree distribution via the maximum-likelihood estimator
// alpha = 1 + n / sum(ln(d_i / (dmin - 0.5))) over degrees >= dmin.
// Returns alpha and the number of samples used.
func PowerLawFit(g *Graph, dmin int) (alpha float64, count int) {
	if dmin < 1 {
		dmin = 1
	}
	sum := 0.0
	for u := 0; u < g.NumNodes(); u++ {
		d := g.Degree(NodeID(u))
		if d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			count++
		}
	}
	if count == 0 || sum == 0 {
		return 0, 0
	}
	return 1 + float64(count)/sum, count
}
