package main

import (
	"strings"
	"testing"
)

// TestParseArgsRefusesWhatWouldMisroute: a peer base below 1 and a landmark
// ID outside int32 are refused when the flags are read. The first indexed
// the landmark list at -1 and panicked; the second was cut to 32 bits and
// joined a different landmark without a word.
func TestParseArgsRefusesWhatWouldMisroute(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-peer-base", "-3"}, "-peer-base -3"},
		{[]string{"-peer-base", "0"}, "-peer-base 0"},
		{[]string{"-landmarks", "4294967296"}, `"4294967296"`},
		{[]string{"-landmarks", "0,-2147483649"}, `"-2147483649"`},
		{[]string{"-landmarks", "0,x"}, `"x"`},
		{[]string{"-landmarks", " , "}, "no landmarks"},
	} {
		if _, _, err := parseArgs(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseArgs(%q) = %v, want an error naming %s", c.args, err, c.want)
		}
	}
}

// TestParseArgsRoundRobinsLandmarks: peers report paths to the given
// landmarks in turn, by peer ID, and the other flags reach the run's config.
func TestParseArgsRoundRobinsLandmarks(t *testing.T) {
	cfg, jsonOut, err := parseArgs([]string{"-landmarks", "0, 100,300", "-peer-base", "5", "-joins", "7", "-batch", "4", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	if !jsonOut || cfg.PeerBase != 5 || cfg.Joins != 7 || cfg.Batch != 4 {
		t.Fatalf("config %+v, json %v", cfg, jsonOut)
	}
	for peer, lm := range map[int64]int32{5: 300, 6: 0, 7: 100, 8: 300} {
		path := cfg.PathFor(peer)
		if got := path[len(path)-1]; got != lm {
			t.Errorf("peer %d reports a path to landmark %d, want %d", peer, got, lm)
		}
	}
}
