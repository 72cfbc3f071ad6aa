// Package routing computes shortest paths over router-level topologies.
//
// The proxdisc simulator needs two things from its routing substrate:
//
//   - hop-count distances between arbitrary router pairs (the paper's D,
//     Dclosest and Drandom metrics are sums of hop distances);
//   - a deterministic routing tree toward each landmark, so that a simulated
//     traceroute from a peer to a landmark always reports the same router
//     path the "network" would use.
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

// Tree is a shortest-path tree rooted at Root. Parent[u] is the next hop
// from u toward the root (Parent[Root] == InvalidNode), Depth[u] the hop
// distance (Unreachable if disconnected).
type Tree struct {
	Root   topology.NodeID
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
	t := &Tree{
		Root:   root,
		Parent: make([]topology.NodeID, n),
		Depth:  make([]int32, n),
	}
	for i := range t.Parent {
		t.Parent[i] = topology.InvalidNode
		t.Depth[i] = Unreachable
	}
	t.Depth[root] = 0
	queue := make([]topology.NodeID, 0, n)
	queue = append(queue, root)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			switch {
			case t.Depth[v] == Unreachable:
				t.Depth[v] = t.Depth[u] + 1
				t.Parent[v] = u
				queue = append(queue, v)
			case t.Depth[v] == t.Depth[u]+1 && u < t.Parent[v]:
				// Deterministic tie-break toward the smaller parent ID.
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

// BFSDistances returns hop distances from src to every node (Unreachable for
// disconnected nodes). This is the workhorse of the brute-force Dclosest
// baseline: one call yields a newcomer's distance to every candidate peer.
func BFSDistances(g *topology.Graph, src topology.NodeID) ([]int32, error) {
	t, err := BFSTree(g, src)
	if err != nil {
		return nil, err
	}
	return t.Depth, nil
}
