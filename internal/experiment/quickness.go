package experiment

import (
	"fmt"
	"math/rand"

	"proxdisc/internal/gnp"
	"proxdisc/internal/latency"
	"proxdisc/internal/metrics"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/routing"
	"proxdisc/internal/topology"
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
	att := make([]topology.NodeID, n)
	index := make(map[pathtree.PeerID]int, n)
	for i, p := range peerList {
		att[i] = w.Attachments[p]
		index[p] = i
	}
	m := latency.NewMatrix(n)
	hop := make([][]int32, n)
	for i := 0; i < n; i++ {
		dist, err := routing.BFSDistances(w.Graph, att[i])
		if err != nil {
			return nil, err
		}
		hop[i] = dist
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := dist[att[j]]
			if d == routing.Unreachable {
				return nil, fmt.Errorf("quickness: peer %d unreachable from %d", j, i)
			}
			rtt := 2 * float64(d)
			if rtt <= 0 {
				rtt = 0.5 // co-located peers: sub-hop RTT
			}
			m.SetRTT(i, j, rtt)
		}
	}

	evalSample := samplePeerIndices(n, cfg.SamplePeers, cfg.World.Seed+5)

	// --- Vivaldi checkpoints ---
	vs := vivaldi.NewSystem(m, cfg.World.Seed+6)
	prevRounds := 0
	for _, rounds := range cfg.VivaldiRounds {
		for r := prevRounds; r < rounds; r++ {
			vs.Round(vivaldiNeighbors)
		}
		prevRounds = rounds
		ratio, err := coordinateQuality(hop, att, evalSample, w.Cfg.NeighborCount, func(i, k int) []int {
			return vs.KClosest(i, k)
		})
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
	ratio, err := coordinateQuality(hop, att, evalSample, w.Cfg.NeighborCount, func(i, k int) []int {
		return gnpKClosest(coords, i, k)
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

// coordinateQuality scores a coordinate system's k-closest answers with the
// same ΣD/ΣDclosest ratio used everywhere else. hop[i] is the BFS distance
// vector from peer i's attachment router att[i]; closest(i,k) returns peer
// indices.
func coordinateQuality(hop [][]int32, att []topology.NodeID, sample []int, k int, closest func(i, k int) []int) (float64, error) {
	n := len(hop)
	sumD, sumBest := 0, 0
	for _, i := range sample {
		picks := closest(i, k)
		for _, j := range picks {
			sumD += int(hop[i][att[j]])
		}
		// Brute-force best k.
		ds := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			ds = append(ds, int(hop[i][att[j]]))
		}
		sortInts(ds)
		kk := k
		if kk > len(ds) {
			kk = len(ds)
		}
		for x := 0; x < kk; x++ {
			sumBest += ds[x]
		}
	}
	if sumBest == 0 {
		return 0, fmt.Errorf("quickness: degenerate sample")
	}
	return float64(sumD) / float64(sumBest), nil
}

func gnpKClosest(coords [][]float64, i, k int) []int {
	type cand struct {
		j int
		d float64
	}
	cands := make([]cand, 0, len(coords)-1)
	for j := range coords {
		if j == i {
			continue
		}
		cands = append(cands, cand{j, gnp.Distance(coords[i], coords[j])})
	}
	if k > len(cands) {
		k = len(cands)
	}
	for a := 0; a < k; a++ {
		best := a
		for b := a + 1; b < len(cands); b++ {
			if cands[b].d < cands[best].d || (cands[b].d == cands[best].d && cands[b].j < cands[best].j) {
				best = b
			}
		}
		cands[a], cands[best] = cands[best], cands[a]
	}
	out := make([]int, k)
	for a := 0; a < k; a++ {
		out[a] = cands[a].j
	}
	return out
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

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
