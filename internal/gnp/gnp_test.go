package gnp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"proxdisc/internal/latency"
)

func TestNewSystemValidation(t *testing.T) {
	m, _ := latency.SyntheticKing(10, 1)
	if _, err := NewSystem(m, []int{0}, 1); err == nil {
		t.Fatal("accepted single landmark")
	}
	if _, err := NewSystem(m, []int{0, 99}, 1); err == nil {
		t.Fatal("accepted out-of-range landmark")
	}
}

func TestLandmarkEmbeddingReducesError(t *testing.T) {
	m, _ := latency.SyntheticKing(80, 2)
	lms := []int{0, 10, 20, 30, 40, 50}
	sys, err := NewSystem(m, lms, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Landmark-to-landmark predictions should be within a factor ~2 of
	// actual for most pairs after the solve.
	good := 0
	total := 0
	for i := 0; i < len(lms); i++ {
		for j := i + 1; j < len(lms); j++ {
			actual := m.RTT(lms[i], lms[j])
			pred := Distance(sys.lcoords[i], sys.lcoords[j])
			total++
			if pred > actual/2 && pred < actual*2 {
				good++
			}
		}
	}
	if good*3 < total*2 {
		t.Fatalf("only %d/%d landmark pairs within 2x", good, total)
	}
}

func TestSolveHost(t *testing.T) {
	m, _ := latency.SyntheticKing(60, 4)
	lms := []int{0, 5, 10, 15, 20, 25}
	sys, err := NewSystem(m, lms, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := sys.ProbesUsed()
	c, err := sys.SolveHost(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 4 {
		t.Fatalf("coordinate dim=%d", len(c))
	}
	if sys.ProbesUsed() != before+len(lms) {
		t.Fatalf("probe accounting: %d -> %d", before, sys.ProbesUsed())
	}
	if _, err := sys.SolveHost(-1); err == nil {
		t.Fatal("accepted negative host")
	}
}

// medianRelativeError evaluates an embedding over sampled host pairs: the
// median of |predicted − actual| / actual.
func medianRelativeError(m *latency.Matrix, coords [][]float64, pairs int, rng *rand.Rand) float64 {
	n := m.Size()
	errs := make([]float64, 0, pairs)
	for k := 0; k < pairs; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		actual := m.RTT(i, j)
		if actual <= 0 {
			continue
		}
		pred := Distance(coords[i], coords[j])
		errs = append(errs, math.Abs(pred-actual)/actual)
	}
	if len(errs) == 0 {
		return 0
	}
	slices.Sort(errs)
	return errs[len(errs)/2]
}

func TestEmbedAllQuality(t *testing.T) {
	m, _ := latency.SyntheticKing(80, 6)
	lms := []int{0, 10, 20, 30, 40, 50, 60, 70}
	sys, err := NewSystem(m, lms, 7)
	if err != nil {
		t.Fatal(err)
	}
	coords, err := sys.EmbedAll()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	med := medianRelativeError(m, coords, 3000, rng)
	if med > 0.6 {
		t.Fatalf("median relative error %v too high", med)
	}
	// Every host must have a finite coordinate.
	for h, c := range coords {
		for _, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("host %d coordinate %v", h, c)
			}
		}
	}
}

func TestPatternSearchFindsQuadraticMin(t *testing.T) {
	obj := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2)
	}
	got := patternSearch([]float64{0, 0}, obj, 1.0, 500)
	if math.Abs(got[0]-3) > 0.01 || math.Abs(got[1]+2) > 0.01 {
		t.Fatalf("minimum at %v want (3,-2)", got)
	}
}

func TestDeterministicSolve(t *testing.T) {
	m, _ := latency.SyntheticKing(40, 11)
	lms := []int{0, 10, 20, 30}
	s1, _ := NewSystem(m, lms, 12)
	s2, _ := NewSystem(m, lms, 12)
	c1, _ := s1.SolveHost(5)
	c2, _ := s2.SolveHost(5)
	for d := range c1 {
		if c1[d] != c2[d] {
			t.Fatal("same seed produced different coordinates")
		}
	}
}
