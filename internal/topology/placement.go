package topology

import (
	"fmt"
	"math/rand"
)

// PlacementPolicy selects how landmark routers are chosen — the "various
// policies for the management of landmarks" the paper lists as future work.
type PlacementPolicy int

const (
	// PlaceBand samples uniformly from a degree band (the paper's method:
	// medium-degree routers).
	PlaceBand PlacementPolicy = iota
	// PlaceKCenter runs greedy k-center on hop distance: the first
	// landmark is the highest-degree router, each next landmark is the
	// router farthest (in hops) from all chosen so far. This maximizes
	// coverage so every peer finds some landmark nearby.
	PlaceKCenter
	// PlaceDegreeWeighted samples routers with probability proportional
	// to degree (favouring the core without pinning to it).
	PlaceDegreeWeighted
)

// String returns the policy's canonical name.
func (p PlacementPolicy) String() string {
	switch p {
	case PlaceBand:
		return "band"
	case PlaceKCenter:
		return "kcenter"
	case PlaceDegreeWeighted:
		return "degree-weighted"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// PlaceLandmarks selects k landmark routers under the given policy. For
// PlaceBand the band parameter applies; the other policies ignore it and
// never choose a degree-1 router (those host peers). Only BandLeaf does.
func PlaceLandmarks(g *Graph, policy PlacementPolicy, k int, band DegreeBand, rng *rand.Rand) ([]NodeID, error) {
	if k <= 0 {
		return nil, fmt.Errorf("topology: need a positive landmark count, got %d", k)
	}
	switch policy {
	case PlaceBand:
		cands := NodesInBand(g, band)
		out := PickNodes(cands, k, rng)
		if len(out) < k {
			return nil, fmt.Errorf("topology: band %v holds only %d of %d landmarks", band, len(out), k)
		}
		return out, nil
	case PlaceKCenter:
		return placeKCenter(g, k)
	case PlaceDegreeWeighted:
		return placeDegreeWeighted(g, k, rng)
	default:
		return nil, fmt.Errorf("topology: unknown placement policy %v", policy)
	}
}

// placeKCenter is the classical greedy 2-approximation for the k-center
// problem on the hop metric, restricted to non-leaf routers.
func placeKCenter(g *Graph, k int) ([]NodeID, error) {
	n := g.NumNodes()
	// Start from the highest-degree router (deterministic tie-break by ID).
	first := InvalidNode
	bestDeg := -1
	for u := 0; u < n; u++ {
		if d := g.Degree(NodeID(u)); d > 1 && d > bestDeg {
			bestDeg = d
			first = NodeID(u)
		}
	}
	if first == InvalidNode {
		return nil, fmt.Errorf("topology: no non-leaf routers for k-center")
	}
	chosen := []NodeID{first}
	// minDist[u] = hop distance from u to the nearest chosen landmark.
	minDist := g.HopsFrom(first)
	for len(chosen) < k {
		// Farthest non-leaf router from the current set.
		far := InvalidNode
		farD := int32(-1)
		for u := 0; u < n; u++ {
			if g.Degree(NodeID(u)) <= 1 {
				continue
			}
			if d := minDist[u]; d > farD {
				farD = d
				far = NodeID(u)
			}
		}
		if far == InvalidNode || farD <= 0 {
			break // graph exhausted: fewer than k distinct centers exist
		}
		chosen = append(chosen, far)
		for u, d := range g.HopsFrom(far) {
			if d >= 0 && (minDist[u] < 0 || d < minDist[u]) {
				minDist[u] = d
			}
		}
	}
	if len(chosen) < k {
		return nil, fmt.Errorf("topology: k-center found only %d of %d landmarks", len(chosen), k)
	}
	return chosen, nil
}

// placeDegreeWeighted samples k distinct non-leaf routers with probability
// proportional to degree.
func placeDegreeWeighted(g *Graph, k int, rng *rand.Rand) ([]NodeID, error) {
	var pool []NodeID
	for u := 0; u < g.NumNodes(); u++ {
		d := g.Degree(NodeID(u))
		if d <= 1 {
			continue
		}
		for r := 0; r < d; r++ {
			pool = append(pool, NodeID(u))
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("topology: no non-leaf routers")
	}
	chosen := make([]NodeID, 0, k)
	seen := make(map[NodeID]bool, k)
	for tries := 0; len(chosen) < k && tries < 100*k; tries++ {
		u := pool[rng.Intn(len(pool))]
		if !seen[u] {
			seen[u] = true
			chosen = append(chosen, u)
		}
	}
	if len(chosen) < k {
		return nil, fmt.Errorf("topology: degree-weighted sampling found only %d of %d landmarks", len(chosen), k)
	}
	return chosen, nil
}
