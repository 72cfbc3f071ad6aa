// Command proxdisc-benchcmp turns raw `go test -bench` output into a JSON
// summary and fails when a benchmark regresses against a committed
// baseline — the tool behind the benchmark-regression CI job.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -count 3 . | tee bench.txt
//	proxdisc-benchcmp -current bench.txt -baseline BENCH_baseline.json \
//	    -out BENCH_pr.json -threshold 20
//
// Repeated runs of the same benchmark (from -count N) collapse to their
// median, in the spirit of benchstat. A benchmark whose median ns/op
// exceeds the baseline's by more than the threshold percentage fails the
// run, as does one whose allocs/op grows by more than -alloc-threshold
// (any allocation on a zero-alloc baseline fails outright); new and
// vanished benchmarks are reported but never fail. To adopt a new
// baseline, copy the emitted file over BENCH_baseline.json.
//
// -ratio A:B:pct gates two benchmarks of the SAME run against each other:
// it fails when A's median ns/op exceeds B's by more than pct percent.
// Because both sides ran on the same machine moments apart, the gate
// holds even where absolute thresholds are noise (so it is enforced even
// under -soft) — the tool behind "instrumentation must cost under 5%"
// style CI checks. Several specs may be given, comma-separated.
//
// -metric NAME:unit:pct gates a higher-is-better custom metric (joins/s,
// and friends) against the baseline: the run fails when the current
// median falls more than pct percent below the baseline's, so a
// throughput collapse fails CI even when ns/op — which measures the whole
// iteration, fills and all — stays flat. Throughput is as
// machine-dependent as ns/op, so the floor honors -soft.
//
// -metric-ratio A:B:unit:min gates a custom metric of two benchmarks of
// the SAME run against each other: it fails when A's median value is less
// than min times B's. Like -ratio, both sides ran on the same machine
// moments apart, so the gate is enforced even under -soft — the tool
// behind "the 4-CPU variant must sustain ≥1.5× the 1-CPU joins/s" style
// scaling checks.
//
// GOMAXPROCS handling: `go test` suffixes benchmark names with the
// GOMAXPROCS used when it is not 1 ("BenchmarkFoo-8"). Multi-core
// variants are kept as distinct series under their suffixed name
// ("Foo-8"), each recording its gomaxprocs in the summary, so -cpu 1,4
// runs gate the 4-CPU numbers independently instead of comparing them
// against 1-CPU baselines. Unsuffixed names always mean GOMAXPROCS=1;
// pin baseline-producing runs with -cpu 1 to keep those keys stable. A
// "Foo-N" series with N above this machine's CPU count measured N
// goroutines time-slicing fewer cores, not N-way scaling: it is reported
// as recorded on too few cores and dropped from every verdict and from
// -out, so it can neither pass a gate nor become a baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Summary is the JSON document read from the baseline and written to -out.
type Summary struct {
	// Benchmarks maps benchmark name (without the "Benchmark" prefix;
	// multi-core variants keep their -GOMAXPROCS suffix as part of the
	// name, so "Foo" and "Foo-4" are independent series) to its
	// aggregated result.
	Benchmarks map[string]*Bench `json:"benchmarks"`
}

// Bench is one benchmark's aggregate over repeated runs.
type Bench struct {
	// NsPerOp is the median ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// Samples is the number of runs aggregated.
	Samples int `json:"samples"`
	// GOMAXPROCS is the processor count the series ran at (1 when the
	// benchmark name carried no suffix; omitted in JSON for legacy
	// summaries).
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Metrics holds the medians of custom metrics (joins/s, D/Dclosest, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches a standard benchmark result line, e.g.
//
//	BenchmarkPipelinedJoin/lockstep-8   4000   584371 ns/op   1712 joins/s
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

func main() {
	var (
		current   = flag.String("current", "", "raw `go test -bench` output to summarize (required)")
		baseline  = flag.String("baseline", "", "baseline JSON to compare against (skipped when absent or empty)")
		out       = flag.String("out", "", "path to write the current summary JSON")
		threshold = flag.Float64("threshold", 20, "ns/op regression percentage that fails the run")
		soft      = flag.Bool("soft", false, "report ns/op regressions but do not fail on them — for cross-machine comparisons where absolute timings are unreliable (-ratio and allocs/op gates still fail)")
		minNs     = flag.Float64("min-ns", 0, "only gate benchmarks whose baseline median ns/op is at least this (timings below it are single-iteration noise at -benchtime 1x; they are still reported)")
		allocPct  = flag.Float64("alloc-threshold", 20, "allocs/op regression percentage that fails the run (a zero-alloc baseline fails on ANY allocation)")
		ratios    = flag.String("ratio", "", "comma-separated A:B:pct specs gating benchmark A's ns/op within pct percent of B's, both from the current run")
		metrics   = flag.String("metric", "", "comma-separated NAME:unit:pct floor specs gating a higher-is-better custom metric against the baseline (e.g. 'BatchJoin/batch=32:joins/s:25'): fails when the current median falls more than pct percent below the baseline's (honors -soft, like ns/op)")
		metRatios = flag.String("metric-ratio", "", "comma-separated A:B:unit:min specs gating a custom metric of two benchmarks within the current run (e.g. 'MillionPeerNode-4:MillionPeerNode:joins/s:1.5'): fails when A's median is below min times B's (within-run, so enforced even under -soft)")
	)
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "proxdisc-benchcmp: -current is required")
		os.Exit(2)
	}
	cur, err := parseBenchOutput(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %v\n", err)
		os.Exit(2)
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "proxdisc-benchcmp: no benchmark results in input")
		os.Exit(2)
	}
	dropUnderCored(os.Stdout, cur, runtime.NumCPU())
	if *out != "" {
		if err := writeSummary(*out, cur); err != nil {
			fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %v\n", err)
			os.Exit(2)
		}
	}
	ratioFailures := 0
	if *ratios != "" {
		specs, err := parseRatios(*ratios)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %v\n", err)
			os.Exit(2)
		}
		ratioFailures = checkRatios(os.Stdout, cur, specs)
	}
	if *metRatios != "" {
		specs, err := parseMetricRatios(*metRatios)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %v\n", err)
			os.Exit(2)
		}
		ratioFailures += checkMetricRatios(os.Stdout, cur, specs)
	}
	defer func() {
		// Within-run ratios are machine-independent: they fail even -soft runs.
		if ratioFailures > 0 {
			fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %d ratio gate(s) failed\n", ratioFailures)
			os.Exit(1)
		}
	}()
	if *baseline == "" {
		fmt.Printf("summarized %d benchmarks (no baseline comparison)\n", len(cur.Benchmarks))
		return
	}
	base, err := readSummary(*baseline)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("summarized %d benchmarks (baseline %s absent — nothing to compare)\n",
				len(cur.Benchmarks), *baseline)
			return
		}
		fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %v\n", err)
		os.Exit(2)
	}
	if len(base.Benchmarks) == 0 {
		fmt.Printf("summarized %d benchmarks (baseline empty — nothing to compare)\n", len(cur.Benchmarks))
		return
	}
	regressions := compare(os.Stdout, base, cur, *threshold, *minNs)
	// Allocation counts are deterministic across machines, so their
	// regressions fail even -soft runs (like -ratio gates, unlike ns/op).
	allocRegressions := compareAllocs(os.Stdout, base, cur, *allocPct)
	metricRegressions := 0
	if *metrics != "" {
		specs, err := parseMetricSpecs(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %v\n", err)
			os.Exit(2)
		}
		metricRegressions = checkMetricFloors(os.Stdout, base, cur, specs)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %d benchmark(s) regressed more than %.0f%% ns/op\n",
			regressions, *threshold)
		if !*soft {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "proxdisc-benchcmp: -soft set; not failing on ns/op")
	}
	if metricRegressions > 0 {
		// Throughput metrics are as machine-dependent as ns/op, so the
		// floor gate honors -soft the same way.
		fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %d metric floor gate(s) failed\n", metricRegressions)
		if !*soft {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "proxdisc-benchcmp: -soft set; not failing on metric floors")
	}
	if allocRegressions > 0 {
		fmt.Fprintf(os.Stderr, "proxdisc-benchcmp: %d benchmark(s) regressed allocs/op\n", allocRegressions)
		os.Exit(1)
	}
}

// dropUnderCored removes from cur every series recorded at a GOMAXPROCS
// above ncpu, naming each, and returns how many it dropped.
func dropUnderCored(w *os.File, cur *Summary, ncpu int) int {
	var names []string
	for name, b := range cur.Benchmarks {
		if b.GOMAXPROCS > ncpu {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s: recorded on too few cores (GOMAXPROCS %d on %d CPUs) — dropped\n",
			name, cur.Benchmarks[name].GOMAXPROCS, ncpu)
		delete(cur.Benchmarks, name)
	}
	return len(names)
}

// ratioSpec gates benchmark A within pct percent of benchmark B, both from
// the current run.
type ratioSpec struct {
	a, b string
	pct  float64
}

// parseRatios reads comma-separated "A:B:pct" specs (benchmark names
// without the "Benchmark" prefix; sub-benchmark slashes are fine).
func parseRatios(s string) ([]ratioSpec, error) {
	var out []ratioSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad -ratio spec %q (want A:B:pct)", part)
		}
		pct, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -ratio percentage in %q: %w", part, err)
		}
		out = append(out, ratioSpec{a: fields[0], b: fields[1], pct: pct})
	}
	return out, nil
}

// checkRatios evaluates within-run ratio gates against the current summary
// and returns how many failed. A spec naming an absent benchmark fails —
// a vanished benchmark must not silently pass its gate.
func checkRatios(w *os.File, cur *Summary, specs []ratioSpec) int {
	failures := 0
	for _, spec := range specs {
		a, okA := cur.Benchmarks[spec.a]
		b, okB := cur.Benchmarks[spec.b]
		if !okA || !okB {
			fmt.Fprintf(w, "ratio %s vs %s: benchmark missing from current run\n", spec.a, spec.b)
			failures++
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (a.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		verdict := "ok"
		if delta > spec.pct {
			verdict = "RATIO EXCEEDED"
			failures++
		}
		fmt.Fprintf(w, "ratio %s (%.0f ns/op) vs %s (%.0f ns/op): %+.1f%% (limit +%.1f%%)  %s\n",
			spec.a, a.NsPerOp, spec.b, b.NsPerOp, delta, spec.pct, verdict)
	}
	return failures
}

// metricRatioSpec gates a custom metric of benchmark A against min times
// benchmark B's, both from the current run — the scaling gate ("the 4-CPU
// variant must sustain ≥1.5× the 1-CPU throughput").
type metricRatioSpec struct {
	a, b, unit string
	min        float64
}

// parseMetricRatios reads comma-separated "A:B:unit:min" specs (benchmark
// names without the "Benchmark" prefix; none of the fields may contain a
// colon).
func parseMetricRatios(s string) ([]metricRatioSpec, error) {
	var out []metricRatioSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("bad -metric-ratio spec %q (want A:B:unit:min)", part)
		}
		min, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -metric-ratio minimum in %q: %w", part, err)
		}
		out = append(out, metricRatioSpec{a: fields[0], b: fields[1], unit: fields[2], min: min})
	}
	return out, nil
}

// checkMetricRatios evaluates within-run metric ratio gates and returns
// how many failed. A spec naming an absent benchmark or metric fails — a
// vanished series must not silently pass its scaling gate.
func checkMetricRatios(w *os.File, cur *Summary, specs []metricRatioSpec) int {
	failures := 0
	for _, spec := range specs {
		var av, bv float64
		okA, okB := false, false
		if b, ok := cur.Benchmarks[spec.a]; ok {
			av, okA = b.Metrics[spec.unit]
		}
		if b, ok := cur.Benchmarks[spec.b]; ok {
			bv, okB = b.Metrics[spec.unit]
		}
		if !okA || !okB || bv <= 0 {
			fmt.Fprintf(w, "metric-ratio %s vs %s (%s): benchmark or metric missing from current run\n",
				spec.a, spec.b, spec.unit)
			failures++
			continue
		}
		ratio := av / bv
		verdict := "ok"
		if ratio < spec.min {
			verdict = "RATIO FLOOR BROKEN"
			failures++
		}
		fmt.Fprintf(w, "metric-ratio %s (%.1f %s) vs %s (%.1f %s): %.2fx (floor %.2fx)  %s\n",
			spec.a, av, spec.unit, spec.b, bv, spec.unit, ratio, spec.min, verdict)
	}
	return failures
}

// metricSpec gates a higher-is-better custom metric of one benchmark: the
// current median must not fall more than pct percent below the baseline's.
type metricSpec struct {
	name, unit string
	pct        float64
}

// parseMetricSpecs reads comma-separated "NAME:unit:pct" specs (benchmark
// names without the "Benchmark" prefix; slashes in names and units are
// fine — neither may contain a colon).
func parseMetricSpecs(s string) ([]metricSpec, error) {
	var out []metricSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad -metric spec %q (want NAME:unit:pct)", part)
		}
		pct, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -metric percentage in %q: %w", part, err)
		}
		out = append(out, metricSpec{name: fields[0], unit: fields[1], pct: pct})
	}
	return out, nil
}

// checkMetricFloors gates custom metrics against the baseline and returns
// how many floors were broken. A spec whose benchmark or metric vanished
// from the current run fails (it must not silently pass its gate); a
// metric the baseline has never recorded is reported and skipped, so a
// newly added benchmark does not fail until a baseline adopts it.
func checkMetricFloors(w *os.File, base, cur *Summary, specs []metricSpec) int {
	failures := 0
	for _, spec := range specs {
		c, okC := cur.Benchmarks[spec.name]
		var cv float64
		if okC {
			cv, okC = c.Metrics[spec.unit]
		}
		if !okC {
			fmt.Fprintf(w, "metric %s %s: missing from current run\n", spec.name, spec.unit)
			failures++
			continue
		}
		b, okB := base.Benchmarks[spec.name]
		var bv float64
		if okB {
			bv, okB = b.Metrics[spec.unit]
		}
		if !okB || bv <= 0 {
			fmt.Fprintf(w, "metric %s %s: %.1f (no baseline — not gated)\n", spec.name, spec.unit, cv)
			continue
		}
		drop := (bv - cv) / bv * 100
		verdict := "ok"
		if drop > spec.pct {
			verdict = "FLOOR BROKEN"
			failures++
		}
		fmt.Fprintf(w, "metric %s %s: %.1f  base %.1f  %+.1f%% (floor -%.1f%%)  %s\n",
			spec.name, spec.unit, cv, bv, -drop, spec.pct, verdict)
	}
	return failures
}

// parseBenchOutput reads raw benchmark text and aggregates repeated runs
// to medians.
func parseBenchOutput(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	nsRuns := make(map[string][]float64)
	metricRuns := make(map[string]map[string][]float64)
	procsOf := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		procs := 1
		if m[2] != "" {
			if n, err := strconv.Atoi(m[2][1:]); err == nil && n > 1 {
				// Multi-core variants are their own series: keep the
				// -GOMAXPROCS suffix in the key so "Foo-4" never gates
				// against a 1-CPU "Foo" baseline.
				procs = n
				name += m[2]
			}
		}
		procsOf[name] = procs
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			continue
		}
		nsRuns[name] = append(nsRuns[name], ns)
		for unit, v := range parseMetrics(m[5]) {
			if metricRuns[name] == nil {
				metricRuns[name] = make(map[string][]float64)
			}
			metricRuns[name][unit] = append(metricRuns[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := &Summary{Benchmarks: make(map[string]*Bench, len(nsRuns))}
	for name, runs := range nsRuns {
		b := &Bench{NsPerOp: median(runs), Samples: len(runs), GOMAXPROCS: procsOf[name]}
		for unit, vals := range metricRuns[name] {
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = median(vals)
		}
		out.Benchmarks[name] = b
	}
	return out, nil
}

// parseMetrics reads the "12345 B/op   1712 joins/s" tail of a benchmark
// line into unit→value pairs (allocation counters included).
func parseMetrics(tail string) map[string]float64 {
	fields := strings.Fields(tail)
	out := make(map[string]float64)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break // mis-aligned tail; stop rather than misattribute
		}
		out[fields[i+1]] = v
	}
	return out
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func readSummary(path string) (*Summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(strings.TrimSpace(string(b))) == 0 {
		return &Summary{Benchmarks: map[string]*Bench{}}, nil
	}
	var s Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if s.Benchmarks == nil {
		s.Benchmarks = map[string]*Bench{}
	}
	return &s, nil
}

func writeSummary(path string, s *Summary) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare prints a delta table and returns the number of regressions
// beyond the threshold percentage. Benchmarks whose baseline median is
// below minNs are reported but never gated: at -benchtime 1x such
// timings are a single iteration, where scheduler jitter swamps any
// threshold.
func compare(w *os.File, base, cur *Summary, threshold, minNs float64) int {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		c := cur.Benchmarks[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-60s %12.0f ns/op  (new)\n", name, c.NsPerOp)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		verdict := "ok"
		switch {
		case b.NsPerOp < minNs:
			verdict = "ungated (below -min-ns)"
		case delta > threshold:
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-60s %12.0f ns/op  base %12.0f  %+7.1f%%  %s\n",
			name, c.NsPerOp, b.NsPerOp, delta, verdict)
	}
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "%-60s (vanished from current run)\n", name)
		}
	}
	return regressions
}

// compareAllocs gates allocs/op for every benchmark both sides report it
// for, and returns the number of regressions. Allocation counts are
// deterministic where ns/op is noisy, so a zero-alloc baseline admits NO
// current allocations at all; a non-zero baseline tolerates growth up to
// the threshold percentage.
func compareAllocs(w *os.File, base, cur *Summary, threshold float64) int {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		c := cur.Benchmarks[name]
		b := base.Benchmarks[name]
		if b == nil {
			continue
		}
		ca, okC := c.Metrics["allocs/op"]
		ba, okB := b.Metrics["allocs/op"]
		if !okC || !okB {
			continue
		}
		verdict := "ok"
		switch {
		case ba == 0 && ca > 0:
			verdict = "ALLOC REGRESSION (was zero-alloc)"
			regressions++
		case ba > 0 && (ca-ba)/ba*100 > threshold:
			verdict = "ALLOC REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-60s %12.1f allocs/op  base %12.1f  %s\n", name, ca, ba, verdict)
	}
	return regressions
}
