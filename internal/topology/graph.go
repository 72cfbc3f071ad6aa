// Package topology provides router-level Internet topology generation and
// analysis for the proxdisc simulator.
//
// The paper's evaluation relies on an Internet Router (IR) level map produced
// by the Magoni–Hoerdt Internet mapper. That data set is not redistributable,
// so this package synthesizes router graphs that preserve the statistical
// properties the paper's argument depends on: a heavy-tailed degree
// distribution, a small densely connected core carrying most shortest paths
// (high betweenness centrality), and a large fringe of degree-1 edge routers
// to which end hosts attach. Alternative generators (Waxman, transit-stub)
// are provided for sensitivity analysis.
package topology

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a router in a Graph. IDs are dense: a graph with N nodes
// uses IDs 0..N-1.
type NodeID int32

// InvalidNode is returned by queries that find no node.
const InvalidNode NodeID = -1

// Graph is an undirected router-level graph stored as adjacency lists.
// The zero value is an empty graph ready to use.
//
// Graph is not safe for concurrent mutation; concurrent reads are safe once
// construction is complete.
type Graph struct {
	adj [][]NodeID
	// edgeCount counts each undirected edge once.
	edgeCount int
}

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]NodeID, n)}
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	return NodeID(len(g.adj) - 1)
}

// AddEdge inserts the undirected edge (u,v). Self-loops and duplicate edges
// are rejected with an error so generators cannot silently distort the degree
// distribution.
func (g *Graph) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("topology: self-loop on node %d", u)
	}
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("topology: edge (%d,%d) references unknown node", u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("topology: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edgeCount++
	return nil
}

// addEdgeUnchecked is the fast path used by generators that already guarantee
// validity (no self-loops, no duplicates).
func (g *Graph) addEdgeUnchecked(u, v NodeID) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edgeCount++
}

func (g *Graph) valid(u NodeID) bool {
	return u >= 0 && int(u) < len(g.adj)
}

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Degree reports the degree of node u, or 0 for invalid IDs.
func (g *Graph) Degree(u NodeID) int {
	if !g.valid(u) {
		return 0
	}
	return len(g.adj[u])
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	if !g.valid(u) {
		return nil
	}
	return g.adj[u]
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.adj))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// Edges returns every undirected edge exactly once as (u,v) pairs with u < v,
// sorted lexicographically. Intended for serialization and tests.
func (g *Graph) Edges() [][2]NodeID {
	edges := make([][2]NodeID, 0, g.edgeCount)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if NodeID(u) < v {
				edges = append(edges, [2]NodeID{NodeID(u), v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// IsConnected reports whether the graph is a single connected component.
// The empty graph is considered connected.
func (g *Graph) IsConnected() bool {
	return len(g.adj) == 0 || !slices.Contains(g.HopsFrom(0), -1)
}

// HopsFrom returns the hop distance from src to every node, −1 for the
// nodes src cannot reach. Landmark placement, routing trees and the
// simulator's ΣD scoring all walk the map through it.
func (g *Graph) HopsFrom(src NodeID) []int32 {
	dist := make([]int32, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(make([]NodeID, 0, len(g.adj)), src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ConnectedComponents returns the node sets of all connected components,
// largest first.
func (g *Graph) ConnectedComponents() [][]NodeID {
	visited := make([]bool, len(g.adj))
	var comps [][]NodeID
	for s := range g.adj {
		if visited[s] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{NodeID(s)}
		visited[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// Validate checks structural invariants: adjacency symmetry, no self-loops,
// no duplicate edges, and a consistent edge count. It is used by tests and by
// generators in debug paths.
func (g *Graph) Validate() error {
	seen := make(map[[2]NodeID]bool)
	half := 0
	for u := range g.adj {
		dup := make(map[NodeID]bool, len(g.adj[u]))
		for _, v := range g.adj[u] {
			if v == NodeID(u) {
				return fmt.Errorf("topology: self-loop on node %d", u)
			}
			if !g.valid(v) {
				return fmt.Errorf("topology: node %d links to unknown node %d", u, v)
			}
			if dup[v] {
				return fmt.Errorf("topology: duplicate edge (%d,%d)", u, v)
			}
			dup[v] = true
			a, b := NodeID(u), v
			if a > b {
				a, b = b, a
			}
			seen[[2]NodeID{a, b}] = true
			half++
		}
	}
	if half%2 != 0 {
		return fmt.Errorf("topology: asymmetric adjacency (odd half-edge count %d)", half)
	}
	for e := range seen {
		if !g.HasEdge(e[1], e[0]) {
			return fmt.Errorf("topology: edge (%d,%d) not symmetric", e[0], e[1])
		}
	}
	if len(seen) != g.edgeCount {
		return fmt.Errorf("topology: edge count %d does not match %d distinct edges", g.edgeCount, len(seen))
	}
	return nil
}
