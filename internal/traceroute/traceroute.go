// Package traceroute simulates the traceroute-like tool the paper's peers
// use to discover the router path toward a landmark.
//
// The simulation reproduces the observable behaviour of the real tool over a
// simulated topology: an ordered list of router hops with round-trip times,
// per-hop probe loss producing anonymous ("*") hops, a TTL ceiling, and the
// "decreased version" of the tool the paper sketches in §3 — keeping only a
// subset of the routers along the path (every k-th hop and/or a prefix),
// since the path tree only needs some routers to estimate proximity.
package traceroute

import (
	"fmt"
	"math/rand"
	"sync"

	"proxdisc/internal/routing"
	"proxdisc/internal/topology"
)

// AnonymousRouter marks a hop whose router did not answer probes (the "*"
// lines of real traceroute output).
const AnonymousRouter = topology.InvalidNode

// Hop is one line of traceroute output.
type Hop struct {
	// Router is the responding router, or AnonymousRouter when all probes
	// for this TTL were lost.
	Router topology.NodeID
	// RTT is the measured round-trip time to this hop in milliseconds
	// (zero for anonymous hops).
	RTT float64
}

// Result is a completed traceroute.
type Result struct {
	// Source is the probing host's attachment router.
	Source topology.NodeID
	// Dest is the landmark router probed.
	Dest topology.NodeID
	// Hops lists the routers after Source, in travel order. When the trace
	// completed, the last hop is Dest.
	Hops []Hop
	// Complete reports whether Dest was reached before MaxTTL.
	Complete bool
}

// KnownRouterPath returns the router path with anonymous hops removed.
// This is the list a peer reports to the management server.
func (r *Result) KnownRouterPath() []topology.NodeID {
	path := make([]topology.NodeID, 0, len(r.Hops)+1)
	path = append(path, r.Source)
	for _, h := range r.Hops {
		if h.Router != AnonymousRouter {
			path = append(path, h.Router)
		}
	}
	return path
}

// Config tunes a simulated trace.
type Config struct {
	// MaxTTL bounds the number of hops probed (default 64).
	MaxTTL int
	// ProbesPerHop is the number of probes sent per TTL (default 3). A hop
	// is anonymous only when every probe is lost.
	ProbesPerHop int
	// LossRate is the per-probe loss probability in [0,1).
	LossRate float64
	// KeepEvery reports only every k-th hop (plus the final landmark hop),
	// implementing the paper's "decreased version" of traceroute. Zero or
	// one keeps all hops.
	KeepEvery int
	// PrefixHops, when positive, keeps only the first PrefixHops reported
	// hops (the landmark hop is still appended if reached). This models a
	// tool that probes only the edge portion of the path.
	PrefixHops int
}

func (c *Config) applyDefaults() {
	if c.MaxTTL == 0 {
		c.MaxTTL = 64
	}
	if c.ProbesPerHop == 0 {
		c.ProbesPerHop = 3
	}
}

// Tracer runs simulated traceroutes over a topology. Routes follow the
// deterministic hop-count shortest-path tree toward each destination,
// mimicking a converged routing plane, and every hop adds 1 ms of one-way
// latency. Tracer caches one tree per destination and is safe for
// concurrent use.
type Tracer struct {
	g *topology.Graph

	mu    sync.Mutex
	trees map[topology.NodeID]*routing.Tree
}

// New returns a Tracer over g: routes minimize hop count, and RTTs are
// 2 ms per hop.
func New(g *topology.Graph) *Tracer {
	return &Tracer{g: g, trees: make(map[topology.NodeID]*routing.Tree)}
}

// routeTo returns the forward router path src → … → dst and per-hop one-way
// cumulative latencies.
func (t *Tracer) routeTo(src, dst topology.NodeID) ([]topology.NodeID, []float64, error) {
	t.mu.Lock()
	tree, ok := t.trees[dst]
	t.mu.Unlock()
	if !ok {
		var err error
		tree, err = routing.BFSTree(t.g, dst)
		if err != nil {
			return nil, nil, err
		}
		t.mu.Lock()
		t.trees[dst] = tree
		t.mu.Unlock()
	}
	path := tree.PathFrom(src)
	if path == nil {
		return nil, nil, fmt.Errorf("traceroute: no route from %d to %d", src, dst)
	}
	lat := make([]float64, len(path))
	for i := range path {
		lat[i] = float64(i) // 1 ms per hop
	}
	return path, lat, nil
}

// Trace probes the path from src to dst. rng drives probe loss; passing
// the same seeded rng reproduces the trace exactly.
func (t *Tracer) Trace(src, dst topology.NodeID, cfg Config, rng *rand.Rand) (*Result, error) {
	cfg.applyDefaults()
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("traceroute: loss rate %g outside [0,1)", cfg.LossRate)
	}
	if src == dst {
		return &Result{Source: src, Dest: dst, Complete: true}, nil
	}
	path, lat, err := t.routeTo(src, dst)
	if err != nil {
		return nil, err
	}
	res := &Result{Source: src, Dest: dst}
	// path[0]==src; hops are path[1..]. TTL i probes path[i].
	for i := 1; i < len(path); i++ {
		if i > cfg.MaxTTL {
			return t.reduce(res, cfg), nil
		}
		answered := false
		for p := 0; p < cfg.ProbesPerHop; p++ {
			if rng == nil || rng.Float64() >= cfg.LossRate {
				answered = true
				break
			}
		}
		if !answered {
			res.Hops = append(res.Hops, Hop{Router: AnonymousRouter})
			continue
		}
		res.Hops = append(res.Hops, Hop{Router: path[i], RTT: 2 * lat[i]})
	}
	res.Complete = true
	return t.reduce(res, cfg), nil
}

// reduce applies the "decreased traceroute" knobs: hop subsampling and
// prefix truncation. The final landmark hop is always preserved on complete
// traces so the server can root the path tree.
func (t *Tracer) reduce(res *Result, cfg Config) *Result {
	hops := res.Hops
	if cfg.KeepEvery > 1 {
		kept := make([]Hop, 0, len(hops)/cfg.KeepEvery+1)
		for i, h := range hops {
			if (i+1)%cfg.KeepEvery == 0 {
				kept = append(kept, h)
			}
		}
		hops = kept
	}
	if cfg.PrefixHops > 0 && len(hops) > cfg.PrefixHops {
		hops = hops[:cfg.PrefixHops]
	}
	if res.Complete {
		// Re-append the landmark if truncation dropped it.
		if len(hops) == 0 || hops[len(hops)-1].Router != res.Dest {
			var lastRTT float64
			if n := len(res.Hops); n > 0 {
				lastRTT = res.Hops[n-1].RTT
			}
			hops = append(hops, Hop{Router: res.Dest, RTT: lastRTT})
		}
	}
	res.Hops = hops
	return res
}

// RTTEstimate returns the round-trip latency from src to dst along the
// installed route, without probing (used by peers to pick their closest
// landmark, and by baselines needing ground-truth RTTs).
func (t *Tracer) RTTEstimate(src, dst topology.NodeID) (float64, error) {
	if src == dst {
		return 0, nil
	}
	_, lat, err := t.routeTo(src, dst)
	if err != nil {
		return 0, err
	}
	return 2 * lat[len(lat)-1], nil
}
