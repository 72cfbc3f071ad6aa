// Command bench is the repository's benchmark: four management-server
// workloads against an in-process durable 4-shard node driven over loopback
// TCP, the end-to-end metrics later changes are gated on, and a traced run
// that times every layer from outside. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is the result
//	bench suite --runs 10 --out A.json                    every workload, repeated, into one file
//	bench compare A.json B.json                           verdict per workload and metric
//	bench manifest                                        BENCHMARK.json, from the tables in spec.go
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

const buildDir = ".bench_build" // everything the benchmark writes stays under it

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "suite":
		err = suiteMain(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:])
	case len(args) > 0 && args[0] == "run":
		err = runMain(args[1:])
	case len(args) > 0 && args[0] == "manifest":
		err = manifestMain()
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// manifestMain prints BENCHMARK.json, so the file never drifts from the
// names, units and bounds the benchmark actually reports.
func manifestMain() error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: refSeconds}
	for _, sp := range specs {
		m.Workloads = append(m.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", data)
	return err
}

func runFlags(fs *flag.FlagSet, o *runOptions, trace *int) {
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated request streams")
	fs.IntVar(&o.seconds, "seconds", refSeconds, "measured length; op counts scale with it")
	fs.IntVar(trace, "trace", 0, "1 runs the traced ladder after the workload and reports the per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "op counts ÷50 (smoke test; numbers mean nothing)")
	fs.IntVar(&o.conns, "conns", min(2, runtime.NumCPU()), "load connections; may not exceed the CPU count")
	fs.StringVar(&o.dataDir, "data-dir", filepath.Join(buildDir, "data"), "parent of the node's data directories (fsync stays on)")
	fs.StringVar(&o.outDir, "out", filepath.Join(buildDir, "out"), "where result and span files are written")
}

func checkRunOptions(o *runOptions) error {
	if o.conns < 1 || o.conns > runtime.NumCPU() {
		return fmt.Errorf("%d load connections on %d CPUs: a series needs a CPU per connection to mean anything", o.conns, runtime.NumCPU())
	}
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("-seconds %d out of range 1..60", o.seconds)
	}
	return os.MkdirAll(o.outDir, 0o777)
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	opts := runOptions{log: os.Stderr}
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "one of "+strings.Join(workloadNames(), ", "))
	runFlags(fs, &opts, &trace)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts.trace = trace != 0
	if err := checkRunOptions(&opts); err != nil {
		return err
	}
	rec, err := runWorkload(opts)
	if err != nil {
		return err
	}
	if err := writeJSON(recordPath(opts.outDir, rec.Workload, rec.Seed, rec.Trace), rec); err != nil {
		return err
	}
	printRecord(rec)
	line, err := resultLine(rec)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !rec.Correct {
		return fmt.Errorf("%d of %d operations failed; first errors: %s", rec.Failed, rec.Attempted, strings.Join(rec.Errors[:min(3, len(rec.Errors))], "; "))
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func recordPath(dir, workload string, seed int64, trace bool) string {
	kind := "result"
	if trace {
		kind = "layers"
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", kind, workload, seed))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// resultLine is the one-line JSON object a run ends with: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one. Every
// listed metric must be there and finite.
func resultLine(rec *record) (string, error) {
	defs, have := endToEnd, rec.EndToEnd
	if rec.Trace {
		defs, have = perLayer, rec.PerLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := have[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s was not measured (%v)", d.Name, v.Value)
		}
		metrics[d.Name] = v
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	return string(out), err
}

// printRecord lists every metric by name with its unit on stderr.
func printRecord(rec *record) {
	w := tabwriter.NewWriter(os.Stderr, 0, 8, 2, ' ', 0)
	fmt.Fprintf(w, "workload %s\tseed %d\t%ds\t%d CPUs, %s, data on %s\n", rec.Workload, rec.Seed, rec.Seconds,
		rec.Stamp.NumCPU, rec.Stamp.GoVersion, rec.Stamp.DataDirFS)
	fmt.Fprintf(w, "network\t%s\n", rec.Stamp.Network)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%s\t%.6g\t%s\n", d.Name, rec.EndToEnd[d.Name].Value, d.Unit)
	}
	for _, d := range perLayer {
		if v, ok := rec.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "%s\t%.6g\t%s\n", d.Name, v.Value, d.Unit)
		}
	}
	fmt.Fprintf(w, "failed/attempted\t%d/%d\n", rec.Failed, rec.Attempted)
	if rec.Invalid != "" {
		fmt.Fprintf(w, "INVALID\t%s\n", rec.Invalid)
	}
	w.Flush()
}

// suiteFile is what `bench suite` writes and `bench compare` reads.
type suiteFile struct {
	Stamp stamp    `json:"stamp"`
	Runs  []record `json:"runs"`
}

// suiteMain runs every workload several times, each run a fresh process
// and a fresh seed, and gathers the records in one file.
func suiteMain(args []string) error {
	fs := flag.NewFlagSet("bench suite", flag.ContinueOnError)
	var opts runOptions
	var trace, runs int
	var only, outFile string
	runFlags(fs, &opts, &trace)
	fs.IntVar(&runs, "runs", 10, "runs per workload, with seeds seed, seed+1, …")
	fs.StringVar(&only, "workloads", strings.Join(workloadNames(), ","), "comma-separated subset")
	fs.StringVar(&outFile, "file", filepath.Join(buildDir, "out", "suite.json"), "suite file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts.trace = trace != 0
	if err := checkRunOptions(&opts); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var suite suiteFile
	var failed []string
	for i := 0; i < runs; i++ {
		for _, name := range strings.Split(only, ",") {
			seed := opts.seed + int64(i)
			cmd := exec.Command(self, "run", "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(opts.seconds), "--trace", fmt.Sprint(trace), "--conns", fmt.Sprint(opts.conns),
				"--data-dir", opts.dataDir, "--out", opts.outDir, fmt.Sprintf("--short=%v", opts.short))
			cmd.Stderr = os.Stderr
			path := recordPath(opts.outDir, name, seed, opts.trace)
			os.Remove(path) // never mistake an earlier run's record for this one's
			runErr := cmd.Run()
			var rec record
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &rec)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d left no record (%v): %w", name, seed, runErr, err)
			}
			if runErr != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d", name, seed))
			}
			suite.Stamp = rec.Stamp
			suite.Runs = append(suite.Runs, rec)
		}
	}
	if err := writeJSON(outFile, &suite); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d runs to %s\n", len(suite.Runs), outFile)
	if len(failed) > 0 {
		return errors.New("incorrect runs: " + strings.Join(failed, ", "))
	}
	return nil
}
