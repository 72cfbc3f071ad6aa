package main

import (
	"os"
	"path/filepath"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: proxdisc
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkPipelinedJoin/lockstep-8         	    4000	    584371 ns/op	      1712 joins/s	   3407030 p99-ns
BenchmarkPipelinedJoin/lockstep-8         	    4000	    600000 ns/op	      1650 joins/s	   3500000 p99-ns
BenchmarkPipelinedJoin/lockstep-8         	    4000	    550000 ns/op	      1800 joins/s	   3300000 p99-ns
BenchmarkPipelinedJoin/inflight=64-8      	    4000	     35113 ns/op	     30648 joins/s	  12260304 p99-ns
BenchmarkProtoJoinRoundTrip-8             	 4614918	       260.3 ns/op	     120 B/op	       4 allocs/op
PASS
ok  	proxdisc	2.770s
`

func writeSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(path, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	sum, err := parseBenchOutput(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 3 {
		t.Fatalf("benchmarks=%d: %+v", len(sum.Benchmarks), sum.Benchmarks)
	}
	// GOMAXPROCS>1 runs keep the suffix: they are their own series.
	lock := sum.Benchmarks["PipelinedJoin/lockstep-8"]
	if lock == nil || lock.Samples != 3 {
		t.Fatalf("lockstep=%+v", lock)
	}
	if lock.GOMAXPROCS != 8 {
		t.Fatalf("gomaxprocs=%d want 8", lock.GOMAXPROCS)
	}
	if lock.NsPerOp != 584371 {
		t.Fatalf("median ns/op=%v want 584371", lock.NsPerOp)
	}
	if lock.Metrics["joins/s"] != 1712 {
		t.Fatalf("median joins/s=%v", lock.Metrics["joins/s"])
	}
	rt := sum.Benchmarks["ProtoJoinRoundTrip-8"]
	if rt == nil || rt.NsPerOp != 260.3 || rt.Metrics["allocs/op"] != 4 {
		t.Fatalf("round trip=%+v", rt)
	}
}

func TestParseBenchOutputCPUVariantsAreDistinct(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	raw := `goos: linux
BenchmarkMillionPeerNode     	      10	  38698303 ns/op	     52389 joins/s
BenchmarkMillionPeerNode-4   	      10	  15000000 ns/op	    120000 joins/s
PASS
`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := parseBenchOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	one := sum.Benchmarks["MillionPeerNode"]
	four := sum.Benchmarks["MillionPeerNode-4"]
	if one == nil || four == nil {
		t.Fatalf("variants not kept distinct: %+v", sum.Benchmarks)
	}
	if one.GOMAXPROCS != 1 || four.GOMAXPROCS != 4 {
		t.Fatalf("gomaxprocs: 1-cpu=%d 4-cpu=%d", one.GOMAXPROCS, four.GOMAXPROCS)
	}
	if one.Metrics["joins/s"] != 52389 || four.Metrics["joins/s"] != 120000 {
		t.Fatalf("metrics crossed series: %+v / %+v", one.Metrics, four.Metrics)
	}
}

// TestDropUnderCored: a Name-N series with N above the machine's CPU count
// leaves the summary — and with it every verdict and -out — while series
// the machine could really run stay.
func TestDropUnderCored(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	cur := &Summary{Benchmarks: map[string]*Bench{
		"MillionPeerNode":   {NsPerOp: 100, GOMAXPROCS: 1},
		"MillionPeerNode-2": {NsPerOp: 70, GOMAXPROCS: 2},
		"MillionPeerNode-4": {NsPerOp: 60, GOMAXPROCS: 4},
		"Legacy":            {NsPerOp: 5}, // summaries older than the field
	}}
	if got := dropUnderCored(devnull, cur, 2); got != 1 {
		t.Fatalf("dropped %d series on 2 CPUs, want 1", got)
	}
	if _, kept := cur.Benchmarks["MillionPeerNode-4"]; kept || len(cur.Benchmarks) != 3 {
		t.Fatalf("after the drop: %v", cur.Benchmarks)
	}
	// The dropped series now fails a gate that names it, like any absent one.
	specs, _ := parseMetricRatios("MillionPeerNode-4:MillionPeerNode:joins/s:1.5")
	if got := checkMetricRatios(devnull, cur, specs); got != 1 {
		t.Fatalf("gate on a dropped series: failures=%d want 1", got)
	}
}

func TestMetricRatioGate(t *testing.T) {
	specs, err := parseMetricRatios("MillionPeerNode-4:MillionPeerNode:joins/s:1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].a != "MillionPeerNode-4" || specs[0].unit != "joins/s" || specs[0].min != 1.5 {
		t.Fatalf("specs=%+v", specs)
	}
	if _, err := parseMetricRatios("A:B:unit"); err == nil {
		t.Fatal("malformed spec accepted")
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	cur := &Summary{Benchmarks: map[string]*Bench{
		"MillionPeerNode":   {NsPerOp: 100, GOMAXPROCS: 1, Metrics: map[string]float64{"joins/s": 100}},
		"MillionPeerNode-4": {NsPerOp: 60, GOMAXPROCS: 4, Metrics: map[string]float64{"joins/s": 170}},
	}}
	if got := checkMetricRatios(devnull, cur, specs); got != 0 {
		t.Fatalf("1.7x vs 1.5x floor: failures=%d want 0", got)
	}
	cur.Benchmarks["MillionPeerNode-4"].Metrics["joins/s"] = 120
	if got := checkMetricRatios(devnull, cur, specs); got != 1 {
		t.Fatalf("1.2x vs 1.5x floor: failures=%d want 1", got)
	}
	// A vanished series must fail its gate, not silently pass.
	delete(cur.Benchmarks, "MillionPeerNode-4")
	if got := checkMetricRatios(devnull, cur, specs); got != 1 {
		t.Fatalf("missing-series failures=%d want 1", got)
	}
}

func TestCompareThreshold(t *testing.T) {
	base := &Summary{Benchmarks: map[string]*Bench{
		"A": {NsPerOp: 100},
		"B": {NsPerOp: 100},
		"C": {NsPerOp: 100},
	}}
	cur := &Summary{Benchmarks: map[string]*Bench{
		"A": {NsPerOp: 115}, // +15% — within a 20% threshold
		"B": {NsPerOp: 130}, // +30% — regression
		"D": {NsPerOp: 50},  // new — never fails
	}}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if got := compare(devnull, base, cur, 20, 0); got != 1 {
		t.Fatalf("regressions=%d want 1", got)
	}
	if got := compare(devnull, base, cur, 5, 0); got != 2 {
		t.Fatalf("regressions=%d want 2", got)
	}
	// Below the -min-ns floor nothing is gated.
	if got := compare(devnull, base, cur, 5, 1000); got != 0 {
		t.Fatalf("regressions=%d want 0 with floor", got)
	}
}

func TestCompareAllocs(t *testing.T) {
	base := &Summary{Benchmarks: map[string]*Bench{
		"Zero":  {NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 0}},
		"Grow":  {NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 10}},
		"Hold":  {NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 10}},
		"NoCur": {NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 5}},
	}}
	cur := &Summary{Benchmarks: map[string]*Bench{
		"Zero":  {NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 1}},  // any alloc on a zero base fails
		"Grow":  {NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 13}}, // +30% — beyond 20%
		"Hold":  {NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 11}}, // +10% — fine
		"NoCur": {NsPerOp: 100},                                               // no allocs reported — ungated
	}}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if got := compareAllocs(devnull, base, cur, 20); got != 2 {
		t.Fatalf("alloc regressions=%d want 2", got)
	}
}

func TestRatioGate(t *testing.T) {
	specs, err := parseRatios("InstrumentedJoin/x:PipelinedJoin/x:5, A:B:50")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].a != "InstrumentedJoin/x" || specs[0].pct != 5 {
		t.Fatalf("specs=%+v", specs)
	}
	if _, err := parseRatios("only-two:fields"); err == nil {
		t.Fatal("malformed spec accepted")
	}
	cur := &Summary{Benchmarks: map[string]*Bench{
		"InstrumentedJoin/x": {NsPerOp: 104},
		"PipelinedJoin/x":    {NsPerOp: 100},
		"A":                  {NsPerOp: 200},
		"B":                  {NsPerOp: 100},
	}}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// +4% within 5 passes; +100% beyond 50 fails.
	if got := checkRatios(devnull, cur, specs); got != 1 {
		t.Fatalf("ratio failures=%d want 1", got)
	}
	// A spec naming a missing benchmark must fail, not silently pass.
	missing := []ratioSpec{{a: "Gone", b: "B", pct: 5}}
	if got := checkRatios(devnull, cur, missing); got != 1 {
		t.Fatalf("missing-benchmark failures=%d want 1", got)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	in := &Summary{Benchmarks: map[string]*Bench{
		"X": {NsPerOp: 42.5, Samples: 3, Metrics: map[string]float64{"joins/s": 9}},
	}}
	if err := writeSummary(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Benchmarks["X"].NsPerOp != 42.5 || out.Benchmarks["X"].Metrics["joins/s"] != 9 {
		t.Fatalf("round trip=%+v", out.Benchmarks["X"])
	}
}

func TestReadSummaryToleratesEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := readSummary(path)
	if err != nil || len(s.Benchmarks) != 0 {
		t.Fatalf("s=%+v err=%v", s, err)
	}
}
