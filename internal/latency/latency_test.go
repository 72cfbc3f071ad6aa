package latency

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.Size() != 3 {
		t.Fatalf("size=%d", m.Size())
	}
	m.SetRTT(0, 2, 42)
	if m.RTT(0, 2) != 42 || m.RTT(2, 0) != 42 {
		t.Fatal("SetRTT not symmetric")
	}
	if m.RTT(1, 1) != 0 {
		t.Fatal("diagonal not zero")
	}
}

// triangleViolationRate samples host triples (i,j,k) and reports the
// fraction where RTT(i,j) > RTT(i,k)+RTT(k,j).
func triangleViolationRate(m *Matrix, samples int, rng *rand.Rand) float64 {
	bad := 0
	for s := 0; s < samples; s++ {
		i, j, k := rng.Intn(m.n), rng.Intn(m.n), rng.Intn(m.n)
		if i == j || j == k || i == k {
			continue
		}
		if m.RTT(i, j) > m.RTT(i, k)+m.RTT(k, j) {
			bad++
		}
	}
	return float64(bad) / float64(samples)
}

func TestSyntheticKingProperties(t *testing.T) {
	m, err := SyntheticKing(300, 11)
	if err != nil {
		t.Fatal(err)
	}
	med := m.Median()
	if med < 30 || med > 220 {
		t.Fatalf("median RTT %v outside plausible range", med)
	}
	rng := rand.New(rand.NewSource(5))
	viol := triangleViolationRate(m, 20000, rng)
	if viol < 0.01 || viol > 0.30 {
		t.Fatalf("triangle violation rate %v outside King-like range", viol)
	}
	// Positivity and symmetry.
	for i := 0; i < m.Size(); i++ {
		for j := 0; j < m.Size(); j++ {
			if i == j {
				if m.RTT(i, j) != 0 {
					t.Fatalf("diag (%d,%d)=%v", i, j, m.RTT(i, j))
				}
				continue
			}
			if m.RTT(i, j) <= 0 {
				t.Fatalf("RTT(%d,%d)=%v not positive", i, j, m.RTT(i, j))
			}
			if m.RTT(i, j) != m.RTT(j, i) {
				t.Fatalf("asymmetric (%d,%d)", i, j)
			}
		}
	}
}

func TestSyntheticKingDeterminism(t *testing.T) {
	a, _ := SyntheticKing(50, 9)
	b, _ := SyntheticKing(50, 9)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if a.RTT(i, j) != b.RTT(i, j) {
				t.Fatal("same seed produced different matrices")
			}
		}
	}
}

func TestSyntheticKingRejectsTiny(t *testing.T) {
	if _, err := SyntheticKing(1, 0); err == nil {
		t.Fatal("accepted n=1")
	}
}

// Property: the median helper agrees with a sort-based median.
func TestQuickSelectMedian(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(99)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		sorted := append([]float64(nil), v...)
		// insertion sort for reference
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		want := sorted[n/2]
		got := quickSelectMedian(append([]float64(nil), v...))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
