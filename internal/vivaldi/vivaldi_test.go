package vivaldi

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"proxdisc/internal/latency"
)

func TestDistanceSymmetricAndPositive(t *testing.T) {
	a := Coord{Vec: []float64{0, 0}, Height: 1}
	b := Coord{Vec: []float64{3, 4}, Height: 2}
	if d := Distance(a, b); d != 5+3 {
		t.Fatalf("distance=%v want 8", d)
	}
	if Distance(a, b) != Distance(b, a) {
		t.Fatal("distance not symmetric")
	}
	if Distance(a, a) != 2*a.Height {
		t.Fatalf("self distance=%v", Distance(a, a))
	}
}

func TestNodeUpdateValidation(t *testing.T) {
	n := NewNode()
	rng := rand.New(rand.NewSource(1))
	if err := n.Update(0, n.coord, 1, rng); err == nil {
		t.Fatal("accepted zero RTT")
	}
	bad := Coord{Vec: []float64{1, 2, 3}}
	if err := n.Update(10, bad, 1, rng); err == nil {
		t.Fatal("accepted dimension mismatch")
	}
}

func TestNodeUpdateMovesTowardTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewNode()
	remote := Coord{Vec: []float64{10, 0}}
	// The true RTT says we are 5 away but we currently predict ~10 (after
	// initial placement). Updates should pull prediction toward 5.
	for i := 0; i < 200; i++ {
		if err := n.Update(5, remote, 0.5, rng); err != nil {
			t.Fatal(err)
		}
	}
	pred := Distance(n.coord, remote)
	if math.Abs(pred-5) > 1.5 {
		t.Fatalf("after training, predicted %v want ~5", pred)
	}
}

func TestHeightNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewNode()
	remote := Coord{Vec: []float64{1, 1}, Height: 5}
	for i := 0; i < 500; i++ {
		rtt := 0.5 + rng.Float64()*10
		if err := n.Update(rtt, remote, 0.5, rng); err != nil {
			t.Fatal(err)
		}
		if n.coord.Height < 0 {
			t.Fatal("height went negative")
		}
	}
}

func TestErrorEstimateDecreasesOnConsistentSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := NewNode()
	remote := Coord{Vec: []float64{20, 0}}
	initial := n.err
	for i := 0; i < 300; i++ {
		_ = n.Update(20, remote, 0.3, rng)
	}
	if n.err >= initial {
		t.Fatalf("error estimate did not improve: %v -> %v", initial, n.err)
	}
}

// medianRelativeError estimates embedding quality: the median over sampled
// host pairs of |predicted − actual| / actual.
func medianRelativeError(s *System, pairs int, rng *rand.Rand) float64 {
	n := len(s.nodes)
	errs := make([]float64, 0, pairs)
	for k := 0; k < pairs; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		actual := s.m.RTT(i, j)
		if actual <= 0 {
			continue
		}
		pred := Distance(s.nodes[i].coord, s.nodes[j].coord)
		errs = append(errs, math.Abs(pred-actual)/actual)
	}
	if len(errs) == 0 {
		return 0
	}
	slices.Sort(errs)
	return errs[len(errs)/2]
}

func TestSystemConvergesOnKingMatrix(t *testing.T) {
	m, err := latency.SyntheticKing(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(m, 6)
	evalRNG := rand.New(rand.NewSource(7))
	before := medianRelativeError(sys, 2000, evalRNG)
	for r := 0; r < 60; r++ {
		sys.Round(4)
	}
	evalRNG = rand.New(rand.NewSource(7))
	after := medianRelativeError(sys, 2000, evalRNG)
	if after >= before {
		t.Fatalf("no convergence: before=%v after=%v", before, after)
	}
	if after > 0.5 {
		t.Fatalf("median relative error %v too high after 60 rounds", after)
	}
	if sys.SamplesUsed() == 0 {
		t.Fatal("sample counter not advancing")
	}
}

func TestKClosestRanksByCoordinate(t *testing.T) {
	m, _ := latency.SyntheticKing(60, 8)
	sys := NewSystem(m, 9)
	for r := 0; r < 40; r++ {
		sys.Round(4)
	}
	got := sys.KClosest(0, 5)
	if len(got) != 5 {
		t.Fatalf("got %d closest", len(got))
	}
	seen := map[int]bool{0: true}
	for _, j := range got {
		if seen[j] {
			t.Fatalf("duplicate or self in KClosest: %v", got)
		}
		seen[j] = true
	}
	// Verify ordering by predicted distance.
	prev := -1.0
	for _, j := range got {
		d := Distance(sys.nodes[0].coord, sys.nodes[j].coord)
		if d < prev {
			t.Fatalf("KClosest not sorted: %v", got)
		}
		prev = d
	}
}

func TestKClosestClampsK(t *testing.T) {
	m, _ := latency.SyntheticKing(5, 1)
	sys := NewSystem(m, 2)
	if got := sys.KClosest(0, 50); len(got) != 4 {
		t.Fatalf("k clamp failed: %d", len(got))
	}
}
