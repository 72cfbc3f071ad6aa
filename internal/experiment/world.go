// Package experiment builds complete simulated deployments of the proxdisc
// system and reproduces every figure of the paper plus the ablation studies
// the paper announces as future work. Each experiment returns both raw
// results and a formatted metrics.Table whose rows mirror what the paper
// plots.
package experiment

import (
	"fmt"
	"math/rand"

	"proxdisc/internal/cluster"
	"proxdisc/internal/metrics"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
	"proxdisc/internal/traceroute"
)

// WorldConfig describes one simulated deployment: a topology, a landmark
// placement policy, and the traceroute behaviour of peers.
type WorldConfig struct {
	// Topology configures the router map. Its zero fields take
	// topology.Generate's defaults, and a zero Seed the world's Seed.
	Topology topology.Config
	// NumLandmarks is the number of landmarks (default 8).
	NumLandmarks int
	// LandmarkBand is the degree band landmarks are placed in. The zero
	// value is the paper's medium band; the placement ablation varies it.
	LandmarkBand topology.DegreeBand
	// LandmarkPolicy selects the placement algorithm (default PlaceBand,
	// the paper's method; PlaceKCenter and PlaceDegreeWeighted implement
	// the future-work "policies for the management of landmarks").
	LandmarkPolicy topology.PlacementPolicy
	// NeighborCount is the k of the closest-peer answers (default 5).
	NeighborCount int
	// Shards is the management plane's shard count (default 1): a
	// landmark-sharded cluster answers the same as one shard, so every
	// experiment runs unchanged over any count.
	Shards int
	// BatchSize, when at least 2, registers newcomers through the
	// management plane's batched join path (Cluster.JoinBatchOp) in groups
	// of this size — the wire protocol's flash-crowd fast path — instead
	// of one join per call. Capped at proto.MaxBatch by the wire format;
	// simulations accept any positive value.
	BatchSize int
	// DataDir, when set, runs the management plane durably (WAL plus
	// on-disk snapshots, see cluster.Config.DataDir), so simulations
	// exercise the persistent write path end to end.
	DataDir string
	// Trace configures the peers' traceroute tool.
	Trace traceroute.Config
	// Seed drives all randomness in the world.
	Seed int64
}

func (c *WorldConfig) applyDefaults() {
	if c.Topology.Seed == 0 {
		c.Topology.Seed = c.Seed
	}
	if c.NumLandmarks == 0 {
		c.NumLandmarks = 8
	}
	if c.NeighborCount == 0 {
		c.NeighborCount = server.DefaultNeighborCount
	}
}

// World is a fully wired simulated deployment.
type World struct {
	Cfg       WorldConfig
	Graph     *topology.Graph
	Tracer    *traceroute.Tracer
	Landmarks []topology.NodeID
	Server    *cluster.Cluster
	// Attachments records where each joined peer is attached.
	Attachments metrics.Attachments
	// LeafPool is the set of degree-1 routers still available for peers.
	LeafPool []topology.NodeID

	rng      *rand.Rand
	traceRNG *rand.Rand
	// ProbeCount accumulates the number of traceroute hops measured across
	// all joins — the "measurement cost" axis of the quickness experiment.
	ProbeCount int
}

// BuildWorld generates the topology, places landmarks, and starts a
// management server.
func BuildWorld(cfg WorldConfig) (*World, error) {
	cfg.applyDefaults()
	g, err := topology.Generate(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("experiment: topology: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	landmarks, err := topology.PlaceLandmarks(g, cfg.LandmarkPolicy, cfg.NumLandmarks, cfg.LandmarkBand, rng)
	if err != nil {
		return nil, fmt.Errorf("experiment: landmark placement: %w", err)
	}
	srv, err := cluster.New(cluster.Config{
		Landmarks:     landmarks,
		Shards:        cfg.Shards,
		NeighborCount: cfg.NeighborCount,
		DataDir:       cfg.DataDir,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: server: %w", err)
	}
	leaves := topology.LeafRouters(g)
	// Exclude leaves that happen to be landmarks (possible in the "leaf"
	// placement ablation).
	lmSet := make(map[topology.NodeID]bool, len(landmarks))
	for _, lm := range landmarks {
		lmSet[lm] = true
	}
	pool := leaves[:0:0]
	for _, l := range leaves {
		if !lmSet[l] {
			pool = append(pool, l)
		}
	}
	return &World{
		Cfg:         cfg,
		Graph:       g,
		Tracer:      traceroute.New(g),
		Landmarks:   landmarks,
		Server:      srv,
		Attachments: make(metrics.Attachments),
		LeafPool:    pool,
		rng:         rng,
		traceRNG:    rand.New(rand.NewSource(cfg.Seed + 3)),
	}, nil
}

// Close shuts the management plane down cleanly: on a durable plane
// (WorldConfig.DataDir), a final snapshot flush and a clean WAL close.
// Worlds without a durable plane need no Close.
func (w *World) Close() error { return w.Server.Close() }

// ClosestLandmark returns the landmark with the lowest RTT from the given
// attachment router (ties to the smaller landmark ID), which is the peer's
// "first round" decision.
func (w *World) ClosestLandmark(att topology.NodeID) (topology.NodeID, error) {
	best := topology.InvalidNode
	bestRTT := 0.0
	for _, lm := range w.Landmarks {
		rtt, err := w.Tracer.RTTEstimate(att, lm)
		if err != nil {
			return topology.InvalidNode, err
		}
		if best == topology.InvalidNode || rtt < bestRTT || (rtt == bestRTT && lm < best) {
			best, bestRTT = lm, rtt
		}
	}
	return best, nil
}

// measurePeer performs the client-side rounds for one peer attached at
// router att — choose the closest landmark, traceroute to it — and
// returns the path to report, accounting the measurement cost. Shared by
// the singular and batched join paths so their probe accounting can never
// drift apart.
func (w *World) measurePeer(att topology.NodeID) ([]topology.NodeID, error) {
	lm, err := w.ClosestLandmark(att)
	if err != nil {
		return nil, err
	}
	res, err := w.Tracer.Trace(att, lm, w.Cfg.Trace, w.traceRNG)
	if err != nil {
		return nil, err
	}
	if !res.Complete {
		return nil, fmt.Errorf("experiment: trace from %d to landmark %d incomplete", att, lm)
	}
	w.ProbeCount += len(res.Hops)
	return res.KnownRouterPath(), nil
}

// JoinPeer runs the full two-round protocol for one peer attached at router
// att: choose the closest landmark, traceroute to it, report the path, and
// receive the closest-peers answer.
func (w *World) JoinPeer(p pathtree.PeerID, att topology.NodeID) ([]pathtree.Candidate, error) {
	path, err := w.measurePeer(att)
	if err != nil {
		return nil, err
	}
	cands, err := w.Server.Join(p, path)
	if err != nil {
		return nil, err
	}
	w.Attachments[p] = att
	return cands, nil
}

// JoinN attaches n peers to distinct degree-1 routers (chosen at random from
// the remaining pool) and joins them in arrival order with IDs 1..n offset
// by the number already joined. With WorldConfig.BatchSize ≥ 2 the joins
// travel through the management plane's batched path in groups, exercising
// the same single-lock insert the wire protocol's MsgBatchJoinRequest hits.
func (w *World) JoinN(n int) error {
	if n > len(w.LeafPool) {
		return fmt.Errorf("experiment: %d peers requested but only %d leaf routers available",
			n, len(w.LeafPool))
	}
	w.rng.Shuffle(len(w.LeafPool), func(i, j int) {
		w.LeafPool[i], w.LeafPool[j] = w.LeafPool[j], w.LeafPool[i]
	})
	base := len(w.Attachments)
	if w.Cfg.BatchSize >= 2 {
		if err := w.joinBatched(n, base); err != nil {
			return err
		}
		w.LeafPool = w.LeafPool[n:]
		return nil
	}
	for i := 0; i < n; i++ {
		p := pathtree.PeerID(base + i + 1)
		if _, err := w.JoinPeer(p, w.LeafPool[i]); err != nil {
			return err
		}
	}
	w.LeafPool = w.LeafPool[n:]
	return nil
}

// joinBatched performs JoinN's registrations in BatchSize groups: each
// peer still measures its own landmark and path (the two client-side
// rounds are per-peer no matter what), but the management-plane inserts
// land as batches.
func (w *World) joinBatched(n, base int) error {
	size := w.Cfg.BatchSize
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		items := make([]op.JoinEntry, 0, hi-lo)
		atts := make([]topology.NodeID, 0, hi-lo)
		for i := lo; i < hi; i++ {
			att := w.LeafPool[i]
			path, err := w.measurePeer(att)
			if err != nil {
				return err
			}
			items = append(items, op.JoinEntry{Peer: pathtree.PeerID(base + i + 1), Path: path})
			atts = append(atts, att)
		}
		for k, r := range w.Server.JoinBatchOp(op.BatchJoin(items, 0)) {
			if r.Err != nil {
				return fmt.Errorf("experiment: batched join of peer %d: %w", items[k].Peer, r.Err)
			}
			w.Attachments[items[k].Peer] = atts[k]
		}
	}
	return nil
}

// Quality aggregates the paper's evaluation sums over a set of peers; every
// series that reports ΣD/ΣDclosest scores its peers through add.
type Quality struct {
	// Peers is the number of peers evaluated.
	Peers int
	// SumD, SumDclosest, SumDrandom are the aggregated neighbour-set
	// distance sums for the server's answer, the brute-force optimum, and
	// random selection.
	SumD, SumDclosest, SumDrandom int
}

// DOverDclosest returns ΣD / ΣDclosest.
func (q Quality) DOverDclosest() float64 {
	if q.SumDclosest == 0 {
		return 0
	}
	return float64(q.SumD) / float64(q.SumDclosest)
}

// DrandomOverDclosest returns ΣDrandom / ΣDclosest.
func (q Quality) DrandomOverDclosest() float64 {
	if q.SumDclosest == 0 {
		return 0
	}
	return float64(q.SumDrandom) / float64(q.SumDclosest)
}

// add scores one peer p's answer: D over its picks, Dclosest over the
// len(picks) peers of among nearest p, and Drandom over as many peers of
// among drawn with rng, only when rng is non-nil. dist is the hop vector
// from p's router (topology.Graph.HopsFrom); among must hold every pick.
func (q *Quality) add(dist []int32, among metrics.Attachments, p pathtree.PeerID, picks []pathtree.PeerID, rng *rand.Rand) error {
	d, err := metrics.NeighborScore(dist, among, picks)
	if err != nil {
		return err
	}
	best, err := metrics.BestK(dist, among, p, len(picks))
	if err != nil {
		return err
	}
	if rng != nil {
		r, err := metrics.RandomK(dist, among, p, len(picks), rng)
		if err != nil {
			return err
		}
		q.SumDrandom += r
	}
	q.Peers++
	q.SumD += d
	q.SumDclosest += best
	return nil
}

// rngShuffleLeaves shuffles the remaining leaf pool in place with the
// world's RNG, letting churn experiments deal attachments deterministically.
func (w *World) rngShuffleLeaves() {
	w.rng.Shuffle(len(w.LeafPool), func(i, j int) {
		w.LeafPool[i], w.LeafPool[j] = w.LeafPool[j], w.LeafPool[i]
	})
}

// EvaluateQuality scores up to samplePeers randomly chosen joined peers:
// for each, it asks the server for the peer's current neighbour list and
// compares its total hop distance D against the brute-force optimum and a
// random pick of as many peers, exactly as the paper's evaluation does.
// samplePeers <= 0 evaluates every peer.
func (w *World) EvaluateQuality(samplePeers int) (Quality, error) {
	peers := w.Server.Peers()
	if len(peers) < 2 {
		return Quality{}, fmt.Errorf("experiment: need at least 2 peers, have %d", len(peers))
	}
	if samplePeers > 0 && samplePeers < len(peers) {
		w.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		peers = peers[:samplePeers]
	}
	evalRNG := rand.New(rand.NewSource(w.Cfg.Seed + 4))
	var q Quality
	for _, p := range peers {
		att, ok := w.Attachments[p]
		if !ok {
			return Quality{}, fmt.Errorf("experiment: peer %d has no attachment", p)
		}
		neighbors, err := w.Server.Lookup(p)
		if err != nil {
			return Quality{}, err
		}
		if len(neighbors) == 0 {
			continue
		}
		ids := make([]pathtree.PeerID, len(neighbors))
		for i, c := range neighbors {
			ids[i] = c.Peer
		}
		if err := q.add(w.Graph.HopsFrom(att), w.Attachments, p, ids, evalRNG); err != nil {
			return Quality{}, err
		}
	}
	if q.SumDclosest == 0 {
		return q, fmt.Errorf("experiment: degenerate evaluation (ΣDclosest = 0 over %d peers)", q.Peers)
	}
	return q, nil
}
