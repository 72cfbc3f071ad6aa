package experiment

import (
	"fmt"
	"math"

	"proxdisc/internal/metrics"
)

// Fig1Config parameterizes the reproduction of the paper's single figure:
// D/Dclosest and Drandom/Dclosest as the number of peers grows.
type Fig1Config struct {
	// PeerCounts is the x-axis (default 600..1400 step 200, as in the
	// paper).
	PeerCounts []int
	// SamplePeers bounds the per-point evaluation cost; <= 0 evaluates all
	// peers (the paper's exact procedure, quadratic in n).
	SamplePeers int
	// Repeats replicates each point over that many topology seeds and
	// reports mean ± standard deviation (default 1: single seed, as a
	// quick run).
	Repeats int
	// World configures the deployment shared by all points.
	World WorldConfig
}

func (c *Fig1Config) applyDefaults() {
	if len(c.PeerCounts) == 0 {
		c.PeerCounts = []int{600, 800, 1000, 1200, 1400}
	}
	if c.Repeats == 0 {
		c.Repeats = 1
	}
}

// Fig1Point is one x-position of the figure. When the run was replicated
// over several seeds the ratios are means and the SD fields carry the
// sample standard deviations.
type Fig1Point struct {
	Peers               int
	DOverDclosest       float64
	DrandomOverDclosest float64
	DOverDclosestSD     float64
	DrandomSD           float64
	Quality             Quality
}

// Fig1Result is the reproduced figure.
type Fig1Result struct {
	Points []Fig1Point
	Config Fig1Config
}

// RunFig1 reproduces the paper's figure. Each point builds a fresh world
// with the same topology seed (so only the population differs), joins n
// peers through the full two-round protocol, and evaluates neighbour quality
// against the brute-force optimum and random selection.
func RunFig1(cfg Fig1Config) (*Fig1Result, error) {
	cfg.applyDefaults()
	res := &Fig1Result{Config: cfg}
	for _, n := range cfg.PeerCounts {
		var dRatios, rRatios []float64
		var lastQ Quality
		for rep := 0; rep < cfg.Repeats; rep++ {
			wc := cfg.World
			wc.Seed += int64(rep * 1000)
			wc.Topology.Seed += int64(rep * 1000)
			w, err := BuildWorld(wc)
			if err != nil {
				return nil, fmt.Errorf("fig1 n=%d rep=%d: %w", n, rep, err)
			}
			if err := w.JoinN(n); err != nil {
				return nil, fmt.Errorf("fig1 n=%d rep=%d: %w", n, rep, err)
			}
			q, err := w.EvaluateQuality(cfg.SamplePeers)
			if err != nil {
				return nil, fmt.Errorf("fig1 n=%d rep=%d: %w", n, rep, err)
			}
			dRatios = append(dRatios, q.DOverDclosest())
			rRatios = append(rRatios, q.DrandomOverDclosest())
			lastQ = q
		}
		dMean, dSD := meanSD(dRatios)
		rMean, rSD := meanSD(rRatios)
		res.Points = append(res.Points, Fig1Point{
			Peers:               n,
			DOverDclosest:       dMean,
			DrandomOverDclosest: rMean,
			DOverDclosestSD:     dSD,
			DrandomSD:           rSD,
			Quality:             lastQ,
		})
	}
	return res, nil
}

// meanSD returns the mean and sample standard deviation.
func meanSD(v []float64) (mean, sd float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if len(v) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(v)-1))
}

// Table renders the figure's series as rows, one per x-position. With
// replication the ± columns carry standard deviations across seeds.
func (r *Fig1Result) Table() *metrics.Table {
	if r.Config.Repeats > 1 {
		t := &metrics.Table{
			Title:   fmt.Sprintf("Figure 1 — neighbour-set quality vs number of peers (%d seeds)", r.Config.Repeats),
			Columns: []string{"peers", "D/Dclosest", "±sd", "Drandom/Dclosest", "±sd", "evaluated"},
		}
		for _, p := range r.Points {
			t.AddRow(p.Peers, p.DOverDclosest, p.DOverDclosestSD,
				p.DrandomOverDclosest, p.DrandomSD, p.Quality.Peers)
		}
		return t
	}
	t := &metrics.Table{
		Title:   "Figure 1 — neighbour-set quality vs number of peers",
		Columns: []string{"peers", "D/Dclosest", "Drandom/Dclosest", "evaluated"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Peers, p.DOverDclosest, p.DrandomOverDclosest, p.Quality.Peers)
	}
	return t
}
