package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"proxdisc/internal/proto"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, sp := range specs {
		a, _, err := generate(sp, 7, refSeconds, 2, 50, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := generate(sp, 7, refSeconds, 2, 50, true)
		c, _, _ := generate(sp, 8, refSeconds, 2, 50, true)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 generated two different streams", sp.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", sp.name)
		}
	}
}

// No request may be able to fail, whatever order the server runs them in:
// leaves name distinct prefilled peers, and nothing else names those.
func TestStreamsCannotFail(t *testing.T) {
	sp, _ := specByName("read_mostly")
	st, _, err := generate(sp, 3, refSeconds, 2, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	left := map[int64]bool{}
	var others []int64
	for _, reqs := range [][]request{st.open, st.closed, st.closedBg, st.tail} {
		for _, r := range reqs {
			switch r.kind {
			case kindLeave:
				if left[r.peer] || r.peer > int64(st.n0) {
					t.Fatalf("leave of peer %d: repeated or never prefilled", r.peer)
				}
				left[r.peer] = true
			case kindLookup, kindRefresh:
				others = append(others, r.peer)
			}
		}
	}
	if len(left) == 0 {
		t.Fatal("the ladder tail has no leaves")
	}
	for _, p := range others {
		if left[p] || p < 1 || p > int64(st.n0) {
			t.Fatalf("request names peer %d, which leaves or was never resident", p)
		}
	}
}

// The open loop times a request from when it was due, not from when it was
// sent: behind a 30ms stall, a request due at 10ms must report the 20ms it
// waited.
func TestOpenLoopTimesFromDue(t *testing.T) {
	r := &runner{n: &node{}}
	first := true
	r.send = func(*request) bool {
		if first {
			first = false
			time.Sleep(30 * time.Millisecond)
		}
		return true
	}
	reqs := []request{{due: 0, primary: true}, {due: 10 * time.Millisecond, primary: true}}
	s := r.openLoop(reqs, 1, nil) // one worker: the second request queues behind the first
	if got := s[1].due - s[0].due; got != int64(10*time.Millisecond) {
		t.Fatalf("dues are %v apart, want 10ms", time.Duration(got))
	}
	if fromDue := time.Duration(s[1].end - s[1].due); fromDue < 19*time.Millisecond {
		t.Errorf("second request reports %v from its due time, want the ~20ms it queued", fromDue)
	}
	if service := time.Duration(s[1].end - s[1].start); service > 5*time.Millisecond {
		t.Errorf("second request took %v once sent; the stall belongs to the wait, not the service", service)
	}
}

func TestChunkRates(t *testing.T) {
	ms := int64(time.Millisecond)
	// Chunks of 100 ops: slow warm-up chunks, then 100ms, 50ms, 200ms, 100ms.
	ends := []int64{0}
	for i := 0; i < warmupChunks; i++ {
		ends = append(ends, ends[len(ends)-1]+400*ms)
	}
	for _, d := range []int64{100, 50, 200, 100} {
		ends = append(ends, ends[len(ends)-1]+d*ms)
	}
	rates := chunkRates(ends, 100, warmupChunks)
	if len(rates) != 4 || math.Abs(median(rates)-1000) > 1e-6 {
		t.Errorf("rates %v, want four with median 1000/s", rates)
	}
	// The loop's own rate is operations over wall time after the warm-up,
	// not the median of the chunks: 400 ops in 450ms.
	sum := summarise(closedResult{chunkEnds: ends}, 100, spec{})
	if want := 400 / 0.45; math.Abs(sum.opsPerSec-want) > 1e-6 || sum.chunkMedian != median(rates) {
		t.Errorf("ops/s %v (chunk median %v), want %v (%v)", sum.opsPerSec, sum.chunkMedian, want, median(rates))
	}
}

// The speed correction: on a machine the probe finds 1.5 times slower than
// nominal, a duration reads 1.5 times shorter and a rate 1.5 times higher.
func TestCorrected(t *testing.T) {
	if got := corrected(3, 1.5*nominalPassUS, false); math.Abs(got-2) > 1e-9 {
		t.Errorf("3s on a 1.5x slower machine corrected to %v, want 2", got)
	}
	if got := corrected(1000, 1.5*nominalPassUS, true); math.Abs(got-1500) > 1e-9 {
		t.Errorf("1000/s on a 1.5x slower machine corrected to %v, want 1500", got)
	}
	if got := corrected(7, nominalPassUS, false); got != 7 {
		t.Errorf("a nominal machine changed 7 to %v", got)
	}
}

// A probe pass must not allocate: an allocating probe starts collection
// cycles and then times the program's heap, not the machine.
func TestProbePassAllocatesNothing(t *testing.T) {
	p := newProbeState(0)
	p.pass() // the map grows to its working size once
	if n := testing.AllocsPerRun(20, func() { p.pass() }); n != 0 {
		t.Errorf("a probe pass allocates %v times", n)
	}
	if us := speedProbe(true); !(us > 0) {
		t.Errorf("speedProbe returned %v", us)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles %v, %v, want 1, 4", q1, q3)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); p != 9 {
		t.Errorf("p90 %v, want 9", p)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"identical", lower, base, base, same},
		{"5% slower is inside the bound", lower, base, shift(1.05), same},
		{"15% slower", lower, base, shift(1.15), worse},
		{"15% lower throughput", higher, base, shift(0.85), worse},
		{"15% faster", lower, base, shift(0.85), better},
		{"15% more throughput", higher, base, shift(1.15), better},
		{"spread wider than the bound", lower, noisy, noisy, unresolved},
		{"noisy but every run better", lower, noisy, shift(0.4), better},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestRefusesMoreConnectionsThanCPUs(t *testing.T) {
	o := runOptions{conns: runtime.NumCPU() + 1, seconds: refSeconds, outDir: t.TempDir()}
	if err := checkRunOptions(&o); err == nil {
		t.Error("a run with more load connections than CPUs was accepted")
	}
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestManifestMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Command) != 2 || m.Command[0] != "bash" || m.Command[1] != "bench/run.sh" {
		t.Errorf("command is %v, want bash bench/run.sh", m.Command)
	}
	if m.RunSeconds != refSeconds || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v; the benchmark assumes %d and [bench]", m.RunSeconds, m.Paths, refSeconds)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d defined", len(m.Workloads), len(specs))
	}
	for i, sp := range specs {
		if m.Workloads[i].Name != sp.name || m.Workloads[i].Why != sp.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here (or its why differs)", i, m.Workloads[i].Name, sp.name)
		}
		if len(sp.why) > 200 {
			t.Errorf("%s: why has %d characters, over the 200 allowed", sp.name, len(sp.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark reports %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if e := m.EndToEnd[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end[%d] is %+v, the benchmark has %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		if e := m.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer[%d] is %+v, the benchmark has %+v", i, e, d)
		}
	}
}

func shortOptions(t *testing.T, workload string, trace bool) runOptions {
	return runOptions{workload: workload, seed: 1, seconds: refSeconds, trace: trace, short: true,
		conns: min(2, runtime.NumCPU()), dataDir: t.TempDir(), outDir: t.TempDir(), log: io.Discard}
}

// Every workload, at a fiftieth of its size, must finish correct and report
// every metric BENCHMARK.json names, traced and untraced.
func TestShortRunsReportEveryMetric(t *testing.T) {
	for _, sp := range specs {
		opts := shortOptions(t, sp.name, true)
		rec, err := runWorkload(opts)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rec.Correct {
			t.Errorf("%s: %d of %d failed: %v", sp.name, rec.Failed, rec.Attempted, rec.Errors)
		}
		if _, err := resultLine(rec); err != nil {
			t.Errorf("%s traced: %v", sp.name, err)
		}
		rec.Trace = false
		if _, err := resultLine(rec); err != nil {
			t.Errorf("%s untraced: %v", sp.name, err)
		}
		var spans []span
		data, err := os.ReadFile(opts.outDir + "/trace-" + sp.name + ".json")
		if err == nil {
			err = json.Unmarshal(data, &spans)
		}
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: span file unreadable or empty: %v", sp.name, err)
		}
		if rec.Stamp.NumCPU != runtime.NumCPU() || rec.Stamp.GoVersion != runtime.Version() || rec.Stamp.DataDirFS == "" {
			t.Errorf("%s: incomplete stamp %+v", sp.name, rec.Stamp)
		}
	}
}

// A single wrong answer among the sampled ones must fail the command.
func TestCorruptedAnswerFailsTheRun(t *testing.T) {
	corruptAnswer = func(cands []proto.Candidate) { cands[0].DTree++ }
	defer func() { corruptAnswer = nil }()
	rec, err := runWorkload(shortOptions(t, "read_mostly", false))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed == 0 || len(rec.Errors) == 0 {
		t.Errorf("a corrupted answer passed: correct=%v failed=%d errors=%v", rec.Correct, rec.Failed, rec.Errors)
	}
	stdout := os.Stdout
	os.Stdout, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	err = runMain([]string{"--workload", "read_mostly", "--short", "--data-dir", t.TempDir(), "--out", t.TempDir()})
	os.Stdout = stdout
	if err == nil {
		t.Error("the command would exit 0 after a corrupted answer")
	}
}
