// Package vivaldi implements the decentralized network coordinate system of
// Dabek et al. (SIGCOMM 2004), the paper's cited alternative for proximity
// estimation.
//
// Vivaldi embeds hosts in a low-dimensional Euclidean space augmented with a
// height (modelling access-link delay); each RTT sample between two hosts
// moves the local coordinate like a spring relaxation. Accuracy improves
// over many gossip rounds — which is precisely the setup-time weakness the
// paper's path-tree approach attacks. The experiment harness measures
// rounds-to-accuracy here and compares against the path tree's one-shot
// answer.
package vivaldi

import (
	"fmt"
	"math"
	"math/rand"

	"proxdisc/internal/latency"
)

// Coord is a Vivaldi coordinate: a Euclidean vector plus a non-negative
// height.
type Coord struct {
	// Vec is the Euclidean component.
	Vec []float64
	// Height models the host's access-link delay; it is always >= 0.
	Height float64
}

// Distance predicts the RTT between two coordinates: the Euclidean distance
// of the vectors plus both heights.
func Distance(a, b Coord) float64 {
	var s float64
	for i := range a.Vec {
		d := a.Vec[i] - b.Vec[i]
		s += d * d
	}
	return math.Sqrt(s) + a.Height + b.Height
}

// The update rule's constants: a 2-D space plus height (the original
// paper found that sufficient), adaptive error and timestep gains of 0.25,
// and a new node's relative error estimate of 1.
const (
	dim       = 2
	ce        = 0.25
	cc        = 0.25
	initError = 1.0
)

// Node is one Vivaldi participant.
type Node struct {
	coord Coord
	err   float64
}

// NewNode creates a node at the origin with the initial error estimate.
// Vivaldi starts all nodes at the origin; the update rule's random unit
// vector breaks the symmetry.
func NewNode() *Node {
	return &Node{coord: Coord{Vec: make([]float64, dim)}, err: initError}
}

// Update applies one RTT sample against a remote node's coordinate and error
// estimate, following the adaptive-timestep Vivaldi rule. rng supplies the
// symmetry-breaking direction when two nodes coincide.
func (n *Node) Update(rtt float64, remote Coord, remoteErr float64, rng *rand.Rand) error {
	if rtt <= 0 {
		return fmt.Errorf("vivaldi: non-positive RTT sample %g", rtt)
	}
	if len(remote.Vec) != len(n.coord.Vec) {
		return fmt.Errorf("vivaldi: dimension mismatch %d vs %d", len(remote.Vec), len(n.coord.Vec))
	}
	w := n.err / (n.err + remoteErr)
	dist := Distance(n.coord, remote)
	es := math.Abs(dist-rtt) / rtt
	n.err = es*ce*w + n.err*(1-ce*w)
	delta := cc * w
	force := rtt - dist
	dir, height := unitVectorTowards(n.coord, remote, rng)
	for i := range n.coord.Vec {
		n.coord.Vec[i] += delta * force * dir[i]
	}
	n.coord.Height += delta * force * height
	if n.coord.Height < 0 {
		n.coord.Height = 0
	}
	return nil
}

// unitVectorTowards returns the unit direction from remote toward local in
// the augmented (vector, height) space; when the two coincide a random
// direction is drawn.
func unitVectorTowards(local, remote Coord, rng *rand.Rand) ([]float64, float64) {
	dir := make([]float64, len(local.Vec))
	var norm float64
	for i := range dir {
		dir[i] = local.Vec[i] - remote.Vec[i]
		norm += dir[i] * dir[i]
	}
	h := local.Height + remote.Height
	norm += h * h
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		// Coincident: random unit vector, no height component.
		var n2 float64
		for i := range dir {
			dir[i] = rng.NormFloat64()
			n2 += dir[i] * dir[i]
		}
		n2 = math.Sqrt(n2)
		if n2 < 1e-12 {
			dir[0], n2 = 1, 1
		}
		for i := range dir {
			dir[i] /= n2
		}
		return dir, 0
	}
	for i := range dir {
		dir[i] /= norm
	}
	return dir, h / norm
}

// System simulates a population of Vivaldi nodes gossiping over a ground-
// truth RTT matrix. It records the number of RTT samples consumed so the
// experiment harness can chart accuracy versus measurement cost.
type System struct {
	m       *latency.Matrix
	nodes   []*Node
	rng     *rand.Rand
	samples int
}

// NewSystem builds a system with one node per matrix host.
func NewSystem(m *latency.Matrix, seed int64) *System {
	s := &System{m: m, rng: rand.New(rand.NewSource(seed))}
	s.nodes = make([]*Node, m.Size())
	for i := range s.nodes {
		s.nodes[i] = NewNode()
	}
	return s
}

// Round performs one gossip round: every node samples `neighbors` random
// other nodes and applies the updates. Returns the total RTT samples used.
func (s *System) Round(neighbors int) int {
	n := len(s.nodes)
	for i := 0; i < n; i++ {
		for k := 0; k < neighbors; k++ {
			j := s.rng.Intn(n)
			if j == i {
				continue
			}
			rtt := s.m.RTT(i, j)
			if rtt <= 0 {
				continue
			}
			remote := s.nodes[j]
			// Ignore the error: inputs are validated by construction.
			_ = s.nodes[i].Update(rtt, remote.coord, remote.err, s.rng)
			s.samples++
		}
	}
	return s.samples
}

// SamplesUsed reports the cumulative number of RTT measurements consumed.
func (s *System) SamplesUsed() int { return s.samples }

// KClosest returns the k hosts whose coordinates are nearest to host i —
// Vivaldi's answer to the paper's closest-peer question.
func (s *System) KClosest(i, k int) []int {
	return latency.Nearest(len(s.nodes), i, k, func(j int) float64 {
		return Distance(s.nodes[i].coord, s.nodes[j].coord)
	})
}
