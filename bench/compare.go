package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"text/tabwriter"
)

// verdict is compare's judgement of one metric on one workload.
type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // the runs scatter more widely than the bound
)

// judge compares the repeat runs a (parent) and b (change) of one metric.
// Runs are paired by position. The rule is the one the choosing-metrics
// guide fixes: worse when b's median is worse than a's by more than the
// bound; better when b wins nine pairs in ten and the medians differ by
// more than a's own interquartile spread; unresolved when either side's
// spread exceeds the bound — unless every run of b beats every run of a.
func judge(d metricDef, a, b []float64) verdict {
	if len(a) < 2 || len(b) < 2 {
		return unresolved
	}
	sign := 1.0 // positive delta = b is worse
	if d.Better == "higher" {
		sign = -1
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	if allBetter {
		return better
	}
	ma, mb := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	if (q3a-q1a)/ma > d.Bound || (q3b-q1b)/mb > d.Bound {
		return unresolved
	}
	delta := sign * (mb - ma)
	if delta > d.Bound*ma {
		return worse
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if delta < 0 && wins*10 >= pairs*9 && -delta > q3a-q1a {
		return better
	}
	return same
}

func loadSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// series gathers one metric's values over a workload's valid runs, and the
// workload's failed and attempted totals over all of them.
func (s *suiteFile) series(workload, metric string) (vals []float64, failed, attempted int64) {
	for i := range s.Runs {
		r := &s.Runs[i]
		if r.Workload != workload || r.Trace {
			continue
		}
		failed, attempted = failed+r.Failed, attempted+r.Attempted
		if v, ok := r.EndToEnd[metric]; ok && r.Invalid == "" {
			vals = append(vals, v.Value)
		}
	}
	return vals, failed, attempted
}

// compareMain prints, per workload and end-to-end metric, both sides'
// medians and quartiles over the repeat runs, the bound and a verdict. It
// fails when anything is worse.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare A.json B.json (suite files; A is the parent)")
	}
	a, err := loadSuite(args[0])
	if err != nil {
		return err
	}
	b, err := loadSuite(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A: %s  commit %s, %d CPUs, %s, data on %s\n", args[0], a.Stamp.Commit, a.Stamp.NumCPU, a.Stamp.GoVersion, a.Stamp.DataDirFS)
	fmt.Printf("B: %s  commit %s, %d CPUs, %s, data on %s\n", args[1], b.Stamp.Commit, b.Stamp.NumCPU, b.Stamp.GoVersion, b.Stamp.DataDirFS)
	w := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	counts := map[verdict]int{}
	for _, sp := range specs {
		var fa, ta, fb, tb int64
		for _, d := range endToEnd {
			va, f, t := a.series(sp.name, d.Name)
			fa, ta = f, t
			vb, f, t := b.series(sp.name, d.Name)
			fb, tb = f, t
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			v := judge(d, va, vb)
			counts[v]++
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			fmt.Fprintf(w, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				sp.name, d.Name, d.Unit, median(va), q1a, q3a, median(vb), q1b, q3b,
				100*(median(vb)/median(va)-1), 100*d.Bound, v)
		}
		if ta+tb == 0 {
			continue
		}
		// Failures have no bound: any rise in the failed share is worse.
		v := same
		if float64(fb)*float64(ta) > float64(fa)*float64(tb) {
			v = worse
		}
		counts[v]++
		fmt.Fprintf(w, "%s\tfailed\tcount\t%d of %d\t%d of %d\t\t0%%\t%s\n", sp.name, fa, ta, fb, tb, v)
	}
	w.Flush()
	fmt.Printf("%d same, %d better, %d worse, %d unresolved\n", counts[same], counts[better], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return fmt.Errorf("%d metrics are worse in %s", counts[worse], args[1])
	}
	return nil
}
