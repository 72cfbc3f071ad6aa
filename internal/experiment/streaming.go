package experiment

import (
	"fmt"
	"math/rand"

	"proxdisc/internal/metrics"
	"proxdisc/internal/overlay"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/routing"
	"proxdisc/internal/streaming"
)

// StreamingConfig parameterizes E9, the motivation experiment: live
// streaming over a proximity mesh versus a random mesh.
type StreamingConfig struct {
	// World configures the deployment.
	World WorldConfig
	// Peers is the mesh size (default 300).
	Peers int
}

func (c *StreamingConfig) applyDefaults() {
	if c.Peers == 0 {
		c.Peers = 300
	}
}

// StreamingPoint is one mesh variant's outcome.
type StreamingPoint struct {
	Label string
	// MeanLinkHops is the mean underlay hop distance across overlay links:
	// the network cost (and ISP-friendliness) of the mesh. This is where
	// proximity discovery pays off.
	MeanLinkHops float64
	streaming.Result
}

// StreamingResult is the E9 outcome.
type StreamingResult struct {
	Points []StreamingPoint
}

// Table renders the comparison.
func (r *StreamingResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title: "E9 — live streaming over proximity vs random vs hybrid mesh",
		Columns: []string{"mesh", "peers", "link-hops", "delivered", "missing",
			"mean-delivery-ms", "p95-delivery-ms", "mean-setup-ms", "p95-setup-ms"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Label, p.Peers, p.MeanLinkHops, p.DeliveredChunks, p.MissingChunks,
			p.MeanDeliveryMS, p.P95DeliveryMS, p.MeanSetupMS, p.P95SetupMS)
	}
	return t
}

// RunStreaming (E9) joins peers through the full protocol and broadcasts the
// same stream over three meshes built with the same degree budget:
//
//   - proximity: neighbours are the server's closest-peer answers. Minimal
//     per-link network cost (hop distance), but the clustered mesh has a
//     larger overlay diameter, so raw flood latency can suffer;
//   - random: uniformly random neighbours. Great expansion (low overlay
//     diameter, fast flooding) but each transfer crosses half the Internet;
//   - hybrid: the proximity mesh plus one random long link per peer — the
//     standard locality/expansion compromise, which keeps transfers local
//     while restoring flooding speed.
//
// The table reports both delivery latency and the mean underlay hop count
// per overlay link (the network cost where proximity discovery pays off).
func RunStreaming(cfg StreamingConfig) (*StreamingResult, error) {
	cfg.applyDefaults()
	w, err := BuildWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	if err := w.JoinN(cfg.Peers); err != nil {
		return nil, err
	}
	peers := w.Server.Peers()
	// Precompute pairwise hop distances between peer attachments.
	hopTable := make(map[pathtree.PeerID][]int32, len(peers))
	for _, p := range peers {
		dist, err := routing.BFSDistances(w.Graph, w.Attachments[p])
		if err != nil {
			return nil, err
		}
		hopTable[p] = dist
	}
	hops := func(a, b pathtree.PeerID) (int, error) {
		row, ok := hopTable[a]
		if !ok {
			return 0, fmt.Errorf("streaming: unknown peer %d", a)
		}
		att, ok := w.Attachments[b]
		if !ok {
			return 0, fmt.Errorf("streaming: unknown peer %d", b)
		}
		d := row[att]
		if d == routing.Unreachable {
			return 0, fmt.Errorf("streaming: unreachable pair (%d,%d)", a, b)
		}
		return int(d), nil
	}

	res := &StreamingResult{}
	for _, variant := range []string{"proximity", "random", "hybrid"} {
		mesh := overlay.New()
		for _, p := range peers {
			if err := mesh.AddPeer(p); err != nil {
				return nil, err
			}
		}
		connectProximity := func() error {
			for _, p := range peers {
				answer, err := w.Server.Lookup(p)
				if err != nil {
					return err
				}
				for _, c := range answer {
					if err := mesh.Connect(p, c.Peer); err != nil {
						return err
					}
				}
			}
			return nil
		}
		connectRandom := func(perPeer int, seed int64) error {
			rng := rand.New(rand.NewSource(seed))
			for _, p := range peers {
				added := 0
				for t := 0; added < perPeer && t < 40*perPeer; t++ {
					q := peers[rng.Intn(len(peers))]
					if q == p {
						continue
					}
					before := mesh.Degree(p)
					if err := mesh.Connect(p, q); err != nil {
						return err
					}
					if mesh.Degree(p) > before {
						added++
					}
				}
			}
			return nil
		}
		switch variant {
		case "proximity":
			if err := connectProximity(); err != nil {
				return nil, err
			}
		case "random":
			if err := connectRandom(w.Cfg.NeighborCount, cfg.World.Seed+20); err != nil {
				return nil, err
			}
		case "hybrid":
			if err := connectProximity(); err != nil {
				return nil, err
			}
			if err := connectRandom(1, cfg.World.Seed+21); err != nil {
				return nil, err
			}
		}
		// Both meshes can be disconnected (per-landmark islands for the
		// proximity mesh); bridge all components to the first peer so the
		// broadcast reaches everyone, mirroring the tracker fallback real
		// systems use.
		bridgeComponents(mesh, peers)
		sess, err := streaming.NewSession(mesh, peers[0], hops, streaming.Config{})
		if err != nil {
			return nil, err
		}
		out, err := sess.Run()
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, StreamingPoint{
			Label:        variant,
			MeanLinkHops: meanLinkHops(mesh, hops),
			Result:       *out,
		})
	}
	return res, nil
}

// meanLinkHops averages the underlay hop distance over all overlay links.
func meanLinkHops(mesh *overlay.Overlay, hops streaming.HopFunc) float64 {
	total, count := 0, 0
	for _, p := range mesh.Peers() {
		for _, q := range mesh.Neighbors(p) {
			if q <= p {
				continue
			}
			h, err := hops(p, q)
			if err != nil {
				continue
			}
			total += h
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// bridgeComponents links every overlay component to the first peer's
// component with a single edge.
func bridgeComponents(mesh *overlay.Overlay, peers []pathtree.PeerID) {
	if len(peers) == 0 {
		return
	}
	main := map[pathtree.PeerID]bool{}
	for _, p := range mesh.ConnectedComponentOf(peers[0]) {
		main[p] = true
	}
	for _, p := range peers {
		if main[p] {
			continue
		}
		comp := mesh.ConnectedComponentOf(p)
		_ = mesh.Connect(peers[0], p)
		for _, q := range comp {
			main[q] = true
		}
	}
}
