// Package routing computes the deterministic routing tree toward each
// landmark, so that a simulated traceroute from a peer to a landmark always
// reports the same router path the "network" would use. A tree's depths
// are topology.Graph.HopsFrom's hop distances, which the paper's D,
// Dclosest and Drandom sums read directly.
//
// Determinism matters: real networks have a single installed route at any
// moment, and the reproducibility of every experiment depends on stable
// tie-breaking. All functions break shortest-path ties toward the smaller
// router ID.
package routing

import (
	"fmt"

	"proxdisc/internal/topology"
)

// Unreachable marks nodes with no path to the BFS source.
const Unreachable = int32(-1)

// Tree is a shortest-path tree. Parent[u] is the next hop from u toward the
// root (InvalidNode at the root), Depth[u] the hop distance (Unreachable if
// disconnected).
type Tree struct {
	Parent []topology.NodeID
	Depth  []int32
}

// BFSTree builds the deterministic hop-count shortest-path tree rooted at
// root. Among equal-hop parents the smallest-ID parent wins, which mirrors a
// stable routing protocol choosing a single installed route.
func BFSTree(g *topology.Graph, root topology.NodeID) (*Tree, error) {
	n := g.NumNodes()
	if int(root) < 0 || int(root) >= n {
		return nil, fmt.Errorf("routing: root %d out of range [0,%d)", root, n)
	}
	t := &Tree{Parent: make([]topology.NodeID, n), Depth: g.HopsFrom(root)}
	for v, d := range t.Depth {
		t.Parent[v] = topology.InvalidNode
		if d <= 0 {
			continue
		}
		for _, u := range g.Neighbors(topology.NodeID(v)) {
			if t.Depth[u] == d-1 && (t.Parent[v] == topology.InvalidNode || u < t.Parent[v]) {
				t.Parent[v] = u
			}
		}
	}
	return t, nil
}

// PathFrom returns the router path u → … → root, inclusive at both ends.
// Returns nil when u is unreachable or invalid.
func (t *Tree) PathFrom(u topology.NodeID) []topology.NodeID {
	if int(u) < 0 || int(u) >= len(t.Depth) || t.Depth[u] == Unreachable {
		return nil
	}
	path := make([]topology.NodeID, 0, t.Depth[u]+1)
	for v := u; v != topology.InvalidNode; v = t.Parent[v] {
		path = append(path, v)
	}
	return path
}
