package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

func placementGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Generate(Config{Model: ModelBarabasiAlbert, CoreRouters: 400, LeafRouters: 300, EdgesPerNode: 2, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlaceBandMatchesLegacyBehaviour(t *testing.T) {
	g := placementGraph(t)
	rng := rand.New(rand.NewSource(7))
	got, err := PlaceLandmarks(g, PlaceBand, 6, BandMedium, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(7))
	want := PickNodes(NodesInBand(g, BandMedium), 6, rng2)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestPlaceKCenter(t *testing.T) {
	g := placementGraph(t)
	got, err := PlaceLandmarks(g, PlaceKCenter, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("placed %d", len(got))
	}
	seen := map[NodeID]bool{}
	for _, lm := range got {
		if seen[lm] {
			t.Fatalf("duplicate landmark %d", lm)
		}
		seen[lm] = true
		if g.Degree(lm) <= 1 {
			t.Fatalf("landmark %d is a leaf", lm)
		}
	}
	// First pick is the max-degree router.
	if g.Degree(got[0]) != MaxDegree(g) {
		t.Fatalf("first center degree %d, max %d", g.Degree(got[0]), MaxDegree(g))
	}
	// Deterministic.
	again, err := PlaceLandmarks(g, PlaceKCenter, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("k-center not deterministic")
		}
	}
}

func TestKCenterImprovesCoverage(t *testing.T) {
	g := placementGraph(t)
	rng := rand.New(rand.NewSource(3))
	band, err := PlaceLandmarks(g, PlaceBand, 6, BandMedium, rng)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := PlaceLandmarks(g, PlaceKCenter, 6, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rBand, err := coverageRadius(g, band)
	if err != nil {
		t.Fatal(err)
	}
	rKC, err := coverageRadius(g, kc)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy k-center is a 2-approximation of the optimal radius; random
	// band placement must not beat it.
	if rKC > rBand {
		t.Fatalf("k-center radius %d worse than band placement %d", rKC, rBand)
	}
}

func TestPlaceDegreeWeighted(t *testing.T) {
	g := placementGraph(t)
	rng := rand.New(rand.NewSource(4))
	got, err := PlaceLandmarks(g, PlaceDegreeWeighted, 10, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("placed %d", len(got))
	}
	for _, lm := range got {
		if g.Degree(lm) <= 1 {
			t.Fatalf("landmark %d is a leaf", lm)
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	g := placementGraph(t)
	if _, err := PlaceLandmarks(g, PlaceBand, 0, BandMedium, nil); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := PlaceLandmarks(g, PlacementPolicy(99), 2, BandMedium, nil); err == nil {
		t.Fatal("accepted unknown policy")
	}
	// A pure star has one non-leaf router: k-center cannot find 3.
	star := NewGraph(5)
	for i := 1; i < 5; i++ {
		if err := star.AddEdge(0, NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := PlaceLandmarks(star, PlaceKCenter, 3, 0, nil); err == nil {
		t.Fatal("k-center overplaced on a star")
	}
}

func TestCoverageRadius(t *testing.T) {
	// Path 0-1-2-3-4: landmark at 2 covers radius 2; at 0 radius 4.
	g := NewGraph(5)
	for i := 1; i < 5; i++ {
		if err := g.AddEdge(NodeID(i-1), NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r, err := coverageRadius(g, []NodeID{2}); err != nil || r != 2 {
		t.Fatalf("radius=%d err=%v", r, err)
	}
	if r, err := coverageRadius(g, []NodeID{0}); err != nil || r != 4 {
		t.Fatalf("radius=%d err=%v", r, err)
	}
	if r, err := coverageRadius(g, []NodeID{0, 4}); err != nil || r != 2 {
		t.Fatalf("radius=%d err=%v", r, err)
	}
	if _, err := coverageRadius(g, nil); err == nil {
		t.Fatal("accepted empty landmark set")
	}
}

// coverageRadius reports the maximum over all routers of the hop distance
// to the nearest landmark — the k-center objective, useful for comparing
// placements.
func coverageRadius(g *Graph, landmarks []NodeID) (int, error) {
	if len(landmarks) == 0 {
		return 0, fmt.Errorf("topology: no landmarks")
	}
	minDist := g.HopsFrom(landmarks[0])
	for _, lm := range landmarks[1:] {
		for u, d := range g.HopsFrom(lm) {
			if d >= 0 && (minDist[u] < 0 || d < minDist[u]) {
				minDist[u] = d
			}
		}
	}
	radius := int32(0)
	for _, d := range minDist {
		if d < 0 {
			return 0, fmt.Errorf("topology: router unreachable from every landmark")
		}
		if d > radius {
			radius = d
		}
	}
	return int(radius), nil
}
