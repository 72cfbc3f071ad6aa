package experiment

import (
	"fmt"
	"math/rand"

	"proxdisc/internal/gnp"
	"proxdisc/internal/latency"
	"proxdisc/internal/metrics"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/vivaldi"
)

// QuicknessConfig parameterizes E4, the headline comparison: how many
// network measurements must a newcomer spend before it knows good
// neighbours, under the path tree versus coordinate systems.
type QuicknessConfig struct {
	// Peers is the population size (default 400; the comparison needs an
	// all-pairs RTT matrix, so keep it modest).
	Peers int
	// World configures the underlying deployment.
	World WorldConfig
	// VivaldiRounds lists the gossip-round checkpoints to report.
	VivaldiRounds []int
	// SamplePeers bounds evaluation cost per checkpoint.
	SamplePeers int
}

// vivaldiNeighbors is the RTT samples each Vivaldi node takes per round.
const vivaldiNeighbors = 4

func (c *QuicknessConfig) applyDefaults() {
	if c.Peers == 0 {
		c.Peers = 400
	}
	if len(c.VivaldiRounds) == 0 {
		c.VivaldiRounds = []int{1, 2, 5, 10, 20, 50}
	}
	if c.SamplePeers == 0 {
		c.SamplePeers = 150
	}
}

// QuicknessPoint is one row of the comparison: a system at a measurement
// budget and the quality it achieves.
type QuicknessPoint struct {
	System string
	// ProbesPerPeer is the mean number of RTT/hop measurements the system
	// consumed per peer to reach this state.
	ProbesPerPeer float64
	// DOverDclosest is the neighbour-quality ratio achieved.
	DOverDclosest float64
}

// QuicknessResult is the E4 outcome.
type QuicknessResult struct {
	Points []QuicknessPoint
}

// Table renders the comparison.
func (r *QuicknessResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   "E4 — time-to-accuracy: probes per peer vs neighbour quality",
		Columns: []string{"system", "probes/peer", "D/Dclosest"},
	}
	for _, p := range r.Points {
		t.AddRow(p.System, p.ProbesPerPeer, p.DOverDclosest)
	}
	return t
}

// RunQuickness (E4) builds one deployment and measures, for each system, the
// neighbour quality attainable per measurement budget:
//
//   - path tree: one traceroute to the closest landmark per peer (plus the
//     landmark RTT probes), quality from the server's answers;
//   - Vivaldi: quality of coordinate-nearest neighbours after each gossip
//     checkpoint, with cumulative samples per peer as the cost;
//   - GNP: one probe per landmark per peer, quality of coordinate-nearest
//     neighbours under the solved embedding.
//
// All systems are scored with the same D/Dclosest metric on the same peers.
func RunQuickness(cfg QuicknessConfig) (*QuicknessResult, error) {
	cfg.applyDefaults()
	w, err := BuildWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	if err := w.JoinN(cfg.Peers); err != nil {
		return nil, err
	}
	res := &QuicknessResult{}

	// --- Path tree ---
	q, err := w.EvaluateQuality(cfg.SamplePeers)
	if err != nil {
		return nil, err
	}
	// Cost: one traceroute (ProbeCount hops total) + one RTT ping per
	// landmark for the first-round choice.
	probesPerPeer := float64(w.ProbeCount)/float64(cfg.Peers) + float64(len(w.Landmarks))
	res.Points = append(res.Points, QuicknessPoint{
		System:        "pathtree (1 traceroute)",
		ProbesPerPeer: probesPerPeer,
		DOverDclosest: q.DOverDclosest(),
	})

	// Shared ground truth for the coordinate systems: peer-to-peer RTT
	// matrix derived from the topology (2 ms per hop keeps units
	// consistent with the hop-based D metric).
	peerList := w.Server.Peers()
	n := len(peerList)
	m := latency.NewMatrix(n)
	hop := make([][]int32, n)
	for i, p := range peerList {
		hop[i] = w.Graph.HopsFrom(w.Attachments[p])
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := hop[i][w.Attachments[peerList[j]]]
			if d < 0 {
				return nil, fmt.Errorf("quickness: peer %d unreachable from %d", j, i)
			}
			rtt := 2 * float64(d)
			if rtt <= 0 {
				rtt = 0.5 // co-located peers: sub-hop RTT
			}
			m.SetRTT(i, j, rtt)
		}
	}

	// Each system's answers for the same sampled peers, scored like the
	// path tree's; closest(i, k) returns peer indices.
	evalSample := samplePeerIndices(n, cfg.SamplePeers, cfg.World.Seed+5)
	score := func(closest func(i, k int) []int) (float64, error) {
		var q Quality
		for _, i := range evalSample {
			picks := closest(i, w.Cfg.NeighborCount)
			ids := make([]pathtree.PeerID, len(picks))
			for x, j := range picks {
				ids[x] = peerList[j]
			}
			if err := q.add(hop[i], w.Attachments, peerList[i], ids, nil); err != nil {
				return 0, err
			}
		}
		if q.SumDclosest == 0 {
			return 0, fmt.Errorf("quickness: degenerate sample")
		}
		return q.DOverDclosest(), nil
	}

	// --- Vivaldi checkpoints ---
	vs := vivaldi.NewSystem(m, cfg.World.Seed+6)
	prevRounds := 0
	for _, rounds := range cfg.VivaldiRounds {
		for r := prevRounds; r < rounds; r++ {
			vs.Round(vivaldiNeighbors)
		}
		prevRounds = rounds
		ratio, err := score(vs.KClosest)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, QuicknessPoint{
			System:        fmt.Sprintf("vivaldi (%d rounds)", rounds),
			ProbesPerPeer: float64(vs.SamplesUsed()) / float64(n),
			DOverDclosest: ratio,
		})
	}

	// --- GNP ---
	gnpLandmarks := samplePeerIndices(n, len(w.Landmarks), cfg.World.Seed+7)
	gs, err := gnp.NewSystem(m, gnpLandmarks, cfg.World.Seed+8)
	if err != nil {
		return nil, err
	}
	coords, err := gs.EmbedAll()
	if err != nil {
		return nil, err
	}
	ratio, err := score(func(i, k int) []int {
		return latency.Nearest(n, i, k, func(j int) float64 { return gnp.Distance(coords[i], coords[j]) })
	})
	if err != nil {
		return nil, err
	}
	res.Points = append(res.Points, QuicknessPoint{
		System:        fmt.Sprintf("gnp (%d landmarks)", len(gnpLandmarks)),
		ProbesPerPeer: float64(gs.ProbesUsed()) / float64(n),
		DOverDclosest: ratio,
	})
	return res, nil
}

func samplePeerIndices(n, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rng.Perm(n)[:k]
}
