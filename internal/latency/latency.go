// Package latency holds Matrix, a dense host-to-host RTT matrix: the
// ground truth the coordinate baselines (Vivaldi, GNP) are fitted to.
// E4 (experiment.RunQuickness) fills one from the simulated map's hop
// distances, 2 ms per hop. SyntheticKing generates one with the
// statistical features of the public King data set (log-normal marginals,
// controlled triangle-inequality violations); the vivaldi, gnp and
// latency tests run on it. Nearest is the k-nearest pick both baselines
// answer the paper's closest-peer question with.
package latency

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense symmetric RTT matrix in milliseconds with zero diagonal.
type Matrix struct {
	n   int
	rtt []float64
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, rtt: make([]float64, n*n)}
}

// Size reports the number of hosts.
func (m *Matrix) Size() int { return m.n }

// RTT returns the round-trip time between hosts i and j (0 when i==j).
func (m *Matrix) RTT(i, j int) float64 { return m.rtt[i*m.n+j] }

// SetRTT sets the symmetric RTT between i and j.
func (m *Matrix) SetRTT(i, j int, ms float64) {
	m.rtt[i*m.n+j] = ms
	m.rtt[j*m.n+i] = ms
}

// Nearest returns the k hosts other than i, of hosts 0..n-1, nearest to i
// by dist(j), in ascending distance with ties to the smaller index; k is
// clamped to n-1.
func Nearest(n, i, k int, dist func(j int) float64) []int {
	type cand struct {
		j int
		d float64
	}
	cands := make([]cand, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			cands = append(cands, cand{j, dist(j)})
		}
	}
	// Partial selection sort is fine for small k.
	k = min(k, len(cands))
	out := make([]int, k)
	for a := range out {
		best := a
		for b := a + 1; b < len(cands); b++ {
			if cands[b].d < cands[best].d || (cands[b].d == cands[best].d && cands[b].j < cands[best].j) {
				best = b
			}
		}
		cands[a], cands[best] = cands[best], cands[a]
		out[a] = cands[a].j
	}
	return out
}

// The King-like shape: a median RTT of 80 ms (the published distribution's
// bulk), a log-normal sigma of 0.6, and as many sharp shrinks as 8 % of
// the host pairs, which break the triangle inequality on some triples
// (King shows roughly 5–10 % violating triples).
const (
	kingMedianRTT         = 80
	kingSigma             = 0.6
	kingViolationFraction = 0.08
)

// SyntheticKing builds an RTT matrix that mimics the King measurement data:
// hosts are embedded in a 5-D Euclidean space plus a per-host "access
// penalty" (height), marginals are shaped log-normally, and a controlled
// fraction of entries is perturbed to create triangle-inequality violations.
// It is the fixture of the vivaldi, gnp and latency tests; no series of the
// simulator runs on it.
func SyntheticKing(n int, seed int64) (*Matrix, error) {
	if n < 2 {
		return nil, fmt.Errorf("latency: need at least 2 hosts, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	const dim = 5
	coords := make([][dim]float64, n)
	height := make([]float64, n)
	for i := range coords {
		for d := 0; d < dim; d++ {
			coords[i][d] = rng.NormFloat64()
		}
		// Heights are exponential: most hosts are well connected, a few
		// sit behind slow access links.
		height[i] = rng.ExpFloat64() * 0.3
	}
	m := NewMatrix(n)
	// First pass: Euclidean + heights, then rescale to log-normal-ish
	// marginals by exponentiating a scaled distance.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for d := 0; d < dim; d++ {
				diff := coords[i][d] - coords[j][d]
				s += diff * diff
			}
			base := math.Sqrt(s)/math.Sqrt(2*dim) + height[i] + height[j]
			// Map base (≈0..2+) to a log-normal-looking RTT with the
			// requested median.
			ms := kingMedianRTT * math.Exp(kingSigma*(base-0.9))
			m.SetRTT(i, j, ms)
		}
	}
	// Violation injection: shrink a random subset of entries sharply, which
	// creates detour routes cheaper than the direct edge.
	pairs := n * (n - 1) / 2
	inject := int(kingViolationFraction * float64(pairs))
	for k := 0; k < inject; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		m.SetRTT(i, j, m.RTT(i, j)*(0.15+0.2*rng.Float64()))
	}
	return m, nil
}

// Median returns the median off-diagonal RTT.
func (m *Matrix) Median() float64 {
	if m.n < 2 {
		return 0
	}
	vals := make([]float64, 0, m.n*(m.n-1)/2)
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			vals = append(vals, m.RTT(i, j))
		}
	}
	return quickSelectMedian(vals)
}

// quickSelectMedian computes the median in expected O(n) without sorting the
// whole slice.
func quickSelectMedian(v []float64) float64 {
	k := len(v) / 2
	lo, hi := 0, len(v)-1
	for lo < hi {
		p := partition(v, lo, hi)
		switch {
		case p == k:
			return v[k]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return v[k]
}

func partition(v []float64, lo, hi int) int {
	pivot := v[(lo+hi)/2]
	v[(lo+hi)/2], v[hi] = v[hi], v[(lo+hi)/2]
	store := lo
	for i := lo; i < hi; i++ {
		if v[i] < pivot {
			v[i], v[store] = v[store], v[i]
			store++
		}
	}
	v[store], v[hi] = v[hi], v[store]
	return store
}
