// Package gnp implements a GNP-style landmark coordinate system (Ng &
// Zhang, INFOCOM 2002), the paper's second cited coordinate baseline.
//
// GNP proceeds in two phases. First, the landmarks measure RTTs among
// themselves and solve a global embedding minimizing the squared relative
// error between coordinate distances and measured RTTs. Second, each host
// measures its RTT to every landmark and solves only its own coordinate
// against the now-fixed landmark coordinates. Both solvers here use a
// deterministic pattern-search (compass) minimizer, which is small, robust,
// and dependency-free.
//
// The relevant cost for the paper's comparison: a GNP host must probe every
// landmark (L measurements) before it has any coordinate at all, and
// accuracy is bounded by the embedding; the path tree needs a single
// traceroute to one landmark.
package gnp

import (
	"fmt"
	"math"
	"math/rand"

	"proxdisc/internal/latency"
)

// The embedding's constants: 4 dimensions (within the range the GNP paper
// found effective) and at most 200 pattern-search steps per solve.
const (
	dim        = 4
	iterations = 200
)

// System is a solved GNP embedding: fixed landmark coordinates plus
// per-host coordinates computed on demand.
type System struct {
	landmarks []int       // host indices acting as landmarks
	lcoords   [][]float64 // landmark coordinates
	m         *latency.Matrix
	probes    int     // RTT measurements consumed
	step      float64 // pattern search's starting step: a quarter of the median RTT
}

// NewSystem solves the landmark embedding for the given landmark host
// indices over the ground-truth matrix.
func NewSystem(m *latency.Matrix, landmarkHosts []int, seed int64) (*System, error) {
	if len(landmarkHosts) < 2 {
		return nil, fmt.Errorf("gnp: need at least 2 landmarks, got %d", len(landmarkHosts))
	}
	for _, h := range landmarkHosts {
		if h < 0 || h >= m.Size() {
			return nil, fmt.Errorf("gnp: landmark host %d out of range", h)
		}
	}
	s := &System{landmarks: append([]int(nil), landmarkHosts...), m: m, step: m.Median() / 4}
	if s.step <= 0 {
		s.step = 10
	}
	L := len(landmarkHosts)
	s.probes += L * (L - 1) / 2 // landmark inter-measurements
	rng := rand.New(rand.NewSource(seed))
	// Initialize landmark coordinates randomly in a box scaled to RTTs.
	scale := m.Median()
	if scale <= 0 {
		scale = 100
	}
	coords := make([][]float64, L)
	for i := range coords {
		coords[i] = make([]float64, dim)
		for d := range coords[i] {
			coords[i][d] = (rng.Float64() - 0.5) * scale
		}
	}
	// Objective: sum over landmark pairs of squared relative error.
	flat := flatten(coords)
	obj := func(x []float64) float64 {
		cs := unflatten(x, L, dim)
		var sum float64
		for i := 0; i < L; i++ {
			for j := i + 1; j < L; j++ {
				actual := m.RTT(landmarkHosts[i], landmarkHosts[j])
				if actual <= 0 {
					continue
				}
				pred := euclid(cs[i], cs[j])
				rel := (pred - actual) / actual
				sum += rel * rel
			}
		}
		return sum
	}
	best := patternSearch(flat, obj, s.step, iterations*L)
	s.lcoords = unflatten(best, L, dim)
	return s, nil
}

// ProbesUsed reports the cumulative RTT measurements consumed, including the
// landmark phase and every host solve.
func (s *System) ProbesUsed() int { return s.probes }

// SolveHost computes host h's coordinate from its RTTs to all landmarks.
func (s *System) SolveHost(h int) ([]float64, error) {
	if h < 0 || h >= s.m.Size() {
		return nil, fmt.Errorf("gnp: host %d out of range", h)
	}
	rtts := make([]float64, len(s.landmarks))
	for i, lm := range s.landmarks {
		if lm == h {
			rtts[i] = -1 // the host is itself a landmark; skip this pair
			continue
		}
		rtts[i] = s.m.RTT(h, lm)
		s.probes++
	}
	obj := func(x []float64) float64 {
		var sum float64
		for i := range s.landmarks {
			actual := rtts[i]
			if actual <= 0 {
				continue
			}
			pred := euclid(x, s.lcoords[i])
			rel := (pred - actual) / actual
			sum += rel * rel
		}
		return sum
	}
	// Start from the centroid of the landmarks.
	x := make([]float64, dim)
	for _, lc := range s.lcoords {
		for d := range x {
			x[d] += lc[d] / float64(len(s.lcoords))
		}
	}
	return patternSearch(x, obj, s.step, iterations), nil
}

// Distance predicts RTT between two solved coordinates.
func Distance(a, b []float64) float64 { return euclid(a, b) }

// EmbedAll solves every host and returns the coordinate table.
func (s *System) EmbedAll() ([][]float64, error) {
	out := make([][]float64, s.m.Size())
	for h := range out {
		c, err := s.SolveHost(h)
		if err != nil {
			return nil, err
		}
		out[h] = c
	}
	return out, nil
}

// patternSearch minimizes obj with a compass search: try ± step along each
// axis, accept improvements, halve the step on failure. Deterministic.
func patternSearch(x0 []float64, obj func([]float64) float64, step float64, iters int) []float64 {
	x := append([]float64(nil), x0...)
	fx := obj(x)
	for it := 0; it < iters && step > 1e-6; it++ {
		improved := false
		for d := range x {
			for _, sgn := range [2]float64{+1, -1} {
				x[d] += sgn * step
				if f := obj(x); f < fx {
					fx = f
					improved = true
				} else {
					x[d] -= sgn * step
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return x
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func flatten(cs [][]float64) []float64 {
	out := make([]float64, 0, len(cs)*len(cs[0]))
	for _, c := range cs {
		out = append(out, c...)
	}
	return out
}

func unflatten(x []float64, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = x[i*dim : (i+1)*dim]
	}
	return out
}
