package main

import (
	"os"
	"strings"
	"testing"

	"proxdisc/internal/experiment"
	"proxdisc/internal/topology"
)

// TestExperimentsGolden pins every number the simulator prints: the ten
// series of `-experiment all` on a small map must reproduce
// testdata/all_small.csv byte for byte. The file is the CSV of
//
//	proxdisc-sim -experiment all -seed 1 -peers 300 -sample 60 \
//	    -core-routers 400 -leaf-routers 400 -peer-counts 200,400 -csv
//
// so a change that moves a number must rewrite the file and say why.
func TestExperimentsGolden(t *testing.T) {
	const seed = 1
	base := experiment.WorldConfig{
		Topology: topology.Config{
			Model:        topology.ModelBarabasiAlbert,
			CoreRouters:  400,
			LeafRouters:  400,
			EdgesPerNode: 2,
			Seed:         seed,
		},
		NumLandmarks: 8,
		Seed:         seed,
	}
	var got strings.Builder
	for _, name := range []string{"fig1", "landmarks", "placement", "quickness",
		"topology", "churn", "superpeers", "truncation", "streaming", "handover"} {
		table, err := runExperiment(name, base, seed, 300, 60, "200,400", 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.WriteString(table.CSV())
	}
	want, err := os.ReadFile("testdata/all_small.csv")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
