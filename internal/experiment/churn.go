package experiment

import (
	"fmt"
	"maps"
	"slices"

	"proxdisc/internal/metrics"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/sim"
)

// ChurnConfig parameterizes E6: neighbour quality under peer churn, with and
// without stale-entry cleanup — the paper's "faulty peers and handover"
// future-work study.
type ChurnConfig struct {
	// World configures the deployment.
	World WorldConfig
	// Arrivals is the number of peers that join over the run (default 800).
	Arrivals int
	// MeanInterarrivalMS and MeanLifetimeMS drive the Poisson churn process
	// (defaults 100 ms and 60_000 ms: roughly 500 concurrent peers).
	MeanInterarrivalMS, MeanLifetimeMS float64
	// SamplePeers bounds evaluation cost.
	SamplePeers int
}

// staleFraction is the share of departures that are "faulty": the peer
// vanishes without telling the server.
const staleFraction = 0.5

func (c *ChurnConfig) applyDefaults() {
	if c.Arrivals == 0 {
		c.Arrivals = 800
	}
	if c.MeanInterarrivalMS == 0 {
		c.MeanInterarrivalMS = 100
	}
	if c.MeanLifetimeMS == 0 {
		c.MeanLifetimeMS = 60_000
	}
	if c.SamplePeers == 0 {
		c.SamplePeers = 150
	}
}

// ChurnPoint is one churn variant's outcome.
type ChurnPoint struct {
	Label string
	// Alive is the number of truly live peers at evaluation time.
	Alive int
	// Registered is the number the server believes is live (> Alive when
	// stale entries linger).
	Registered int
	// StaleAnswerFraction is the fraction of returned neighbours that had
	// already departed.
	StaleAnswerFraction float64
	// DOverDclosest scores the live neighbours only.
	DOverDclosest float64
}

// ChurnResult is the E6 outcome.
type ChurnResult struct {
	Points []ChurnPoint
}

// Table renders the churn study.
func (r *ChurnResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   "E6 — churn and faulty peers",
		Columns: []string{"variant", "alive", "registered", "stale-answers", "D/Dclosest (live)"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Label, p.Alive, p.Registered, p.StaleAnswerFraction, p.DOverDclosest)
	}
	return t
}

// RunChurn (E6) drives a Poisson join/leave process through the full
// protocol twice — once where faulty departures leave stale state on the
// server, and once where the server expires silent peers — and compares the
// damage stale entries do to answer quality.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.applyDefaults()
	res := &ChurnResult{}
	for _, cleanup := range []bool{false, true} {
		pt, err := runChurnVariant(cfg, cleanup)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func runChurnVariant(cfg ChurnConfig, cleanup bool) (ChurnPoint, error) {
	w, err := BuildWorld(cfg.World)
	if err != nil {
		return ChurnPoint{}, err
	}
	eng := sim.NewEngine()
	// Shuffle the leaf pool once; peer id i uses leaf (i-1) mod pool.
	pool := w.LeafPool
	w.rngShuffleLeaves()
	alive := make(map[pathtree.PeerID]bool)
	var joinErr error
	stale := 0
	err = sim.Churn(eng, sim.ChurnConfig{
		MeanInterarrival: cfg.MeanInterarrivalMS,
		MeanLifetime:     cfg.MeanLifetimeMS,
		Arrivals:         cfg.Arrivals,
		Seed:             cfg.World.Seed + 10,
	}, func(id int64) {
		p := pathtree.PeerID(id)
		att := pool[(int(id)-1)%len(pool)]
		if _, err := w.JoinPeer(p, att); err != nil && joinErr == nil {
			joinErr = err
			return
		}
		alive[p] = true
	}, func(id int64) {
		p := pathtree.PeerID(id)
		if !alive[p] {
			return
		}
		delete(alive, p)
		// Faulty departure: peer vanishes without a Leave. The attachment
		// record is kept so stale answers can be detected.
		if float64(int(id)%100)/100 < staleFraction {
			stale++
			if cleanup {
				// Expiry model: the server notices missed heartbeats and
				// removes the peer shortly after (we model the sweep as
				// prompt relative to evaluation time).
				w.Server.Leave(p)
			}
			return
		}
		w.Server.Leave(p)
		delete(w.Attachments, p)
	})
	if err != nil {
		return ChurnPoint{}, err
	}
	// Stop the clock mid-churn so a mixed population is registered.
	eng.Run(int64(cfg.MeanInterarrivalMS * float64(cfg.Arrivals) * 0.8))
	if joinErr != nil {
		return ChurnPoint{}, joinErr
	}
	label := "no-cleanup"
	if cleanup {
		label = "expiry-sweep"
	}
	pt := ChurnPoint{Label: label, Alive: len(alive), Registered: w.Server.NumPeers()}
	if len(alive) < 2 {
		return pt, fmt.Errorf("churn: only %d live peers at evaluation", len(alive))
	}
	// Evaluate: for sampled live peers, request neighbours; count stale
	// answers; score live neighbours against the live-only optimum.
	livePeers := slices.Sorted(maps.Keys(alive))
	if cfg.SamplePeers > 0 && cfg.SamplePeers < len(livePeers) {
		livePeers = livePeers[:cfg.SamplePeers]
	}
	liveAtt := make(metrics.Attachments, len(alive))
	for p := range alive {
		liveAtt[p] = w.Attachments[p]
	}
	var staleAnswers, totalAnswers int
	var q Quality
	for _, p := range livePeers {
		answer, err := w.Server.Lookup(p)
		if err != nil {
			return pt, err
		}
		liveIDs := make([]pathtree.PeerID, 0, len(answer))
		for _, c := range answer {
			if alive[c.Peer] {
				liveIDs = append(liveIDs, c.Peer)
			}
		}
		totalAnswers += len(answer)
		staleAnswers += len(answer) - len(liveIDs)
		if len(liveIDs) == 0 {
			continue
		}
		if err := q.add(w.Graph.HopsFrom(liveAtt[p]), liveAtt, p, liveIDs, nil); err != nil {
			return pt, err
		}
	}
	if totalAnswers > 0 {
		pt.StaleAnswerFraction = float64(staleAnswers) / float64(totalAnswers)
	}
	pt.DOverDclosest = q.DOverDclosest()
	return pt, nil
}
