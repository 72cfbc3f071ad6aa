// Package streaming simulates mesh-based live streaming over a peer
// overlay — the paper's motivating workload (§1, PULSE-style systems).
//
// A source emits chunks at a fixed interval; peers push newly received
// chunks to neighbours that lack them, constrained by per-peer upload
// capacity. Chunk transfer latency between two peers is proportional to the
// hop distance between their attachment routers, so a proximity-aware mesh
// (neighbours chosen by the management server) delivers chunks faster than
// a random mesh — which is exactly why quick closest-peer discovery matters
// for setup delay.
package streaming

import (
	"fmt"
	"math/rand"
	"sort"

	"proxdisc/internal/overlay"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/sim"
)

// The session's timing: the source emits a chunk every chunkIntervalMS, an
// upload serializes for serializeMS, a transfer costs hopLatencyMS per
// router hop, and playback starts once a peer holds the first
// bufferChunks chunks (setup delay is measured against that).
const (
	chunkIntervalMS = 500
	serializeMS     = 5
	hopLatencyMS    = 2
	bufferChunks    = 3
)

// Config tunes a streaming session.
type Config struct {
	// Chunks is the number of chunks streamed (default 40).
	Chunks int
	// UploadSlots is each peer's concurrent-upload capacity: pushing the
	// i-th simultaneous copy of a chunk adds i*serializeMS of queueing
	// (default 4).
	UploadSlots int
	// Seed breaks push-order ties deterministically.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.Chunks == 0 {
		c.Chunks = 40
	}
	if c.UploadSlots == 0 {
		c.UploadSlots = 4
	}
}

// HopFunc returns the hop distance between two peers' attachments.
type HopFunc func(a, b pathtree.PeerID) (int, error)

// Result aggregates a finished session.
type Result struct {
	// Peers is the number of non-source peers.
	Peers int
	// DeliveredChunks counts (peer, chunk) deliveries.
	DeliveredChunks int
	// MissingChunks counts chunks never delivered to some peer.
	MissingChunks int
	// MeanDeliveryMS and P95DeliveryMS summarize chunk delivery latency
	// (delivery time − creation time) over all (peer, chunk) pairs.
	MeanDeliveryMS, P95DeliveryMS float64
	// MeanSetupMS and P95SetupMS summarize per-peer setup delay: the
	// virtual time at which the peer first held the initial bufferChunks
	// chunks.
	MeanSetupMS, P95SetupMS float64
}

// Session is a single simulated broadcast.
type Session struct {
	cfg     Config
	mesh    *overlay.Overlay
	source  pathtree.PeerID
	hops    HopFunc
	engine  *sim.Engine
	rng     *rand.Rand
	have    map[pathtree.PeerID][]bool
	deliver map[pathtree.PeerID][]int64 // delivery time per chunk, -1 absent
}

// NewSession prepares a broadcast from source over the given mesh. hops
// supplies ground-truth hop distances between peers.
func NewSession(mesh *overlay.Overlay, source pathtree.PeerID, hops HopFunc, cfg Config) (*Session, error) {
	cfg.applyDefaults()
	if !mesh.Contains(source) {
		return nil, fmt.Errorf("streaming: source %d not in overlay", source)
	}
	if hops == nil {
		return nil, fmt.Errorf("streaming: nil hop function")
	}
	s := &Session{
		cfg:     cfg,
		mesh:    mesh,
		source:  source,
		hops:    hops,
		engine:  sim.NewEngine(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		have:    make(map[pathtree.PeerID][]bool),
		deliver: make(map[pathtree.PeerID][]int64),
	}
	for _, p := range mesh.Peers() {
		s.have[p] = make([]bool, cfg.Chunks)
		times := make([]int64, cfg.Chunks)
		for i := range times {
			times[i] = -1
		}
		s.deliver[p] = times
	}
	return s, nil
}

// Run streams all chunks to quiescence and returns the aggregate result.
func (s *Session) Run() (*Result, error) {
	for c := 0; c < s.cfg.Chunks; c++ {
		chunk := c
		if err := s.engine.At(int64(c)*chunkIntervalMS, func() {
			s.receive(s.source, chunk)
		}); err != nil {
			return nil, err
		}
	}
	s.engine.RunAll()
	return s.collect(), nil
}

// receive marks a chunk held and schedules pushes to lacking neighbours.
func (s *Session) receive(p pathtree.PeerID, chunk int) {
	held, ok := s.have[p]
	if !ok || held[chunk] {
		return
	}
	held[chunk] = true
	s.deliver[p][chunk] = s.engine.Now()
	nbrs := s.mesh.Neighbors(p)
	// Push to neighbours lacking the chunk; nearest-attachment first with
	// a deterministic shuffle among equals keeps the mesh from always
	// favouring low IDs.
	type target struct {
		q   pathtree.PeerID
		hop int
	}
	targets := make([]target, 0, len(nbrs))
	for _, q := range nbrs {
		if hv, ok := s.have[q]; ok && !hv[chunk] {
			h, err := s.hops(p, q)
			if err != nil {
				continue
			}
			targets = append(targets, target{q, h})
		}
	}
	s.rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	sort.SliceStable(targets, func(i, j int) bool { return targets[i].hop < targets[j].hop })
	slot := 0
	for _, t := range targets {
		queue := int64(slot/s.cfg.UploadSlots) * serializeMS
		lat := int64(hopLatencyMS*t.hop) + serializeMS + queue
		if lat < 1 {
			lat = 1
		}
		q, ch := t.q, chunk
		_ = s.engine.Schedule(lat, func() { s.receive(q, ch) })
		slot++
	}
}

// collect computes the aggregate result after the run.
func (s *Session) collect() *Result {
	res := &Result{}
	var delays []float64
	var setups []float64
	for p, times := range s.deliver {
		if p == s.source {
			continue
		}
		res.Peers++
		setupAt := int64(-1)
		okPrefix := true
		for c, t := range times {
			if t < 0 {
				res.MissingChunks++
				if c < bufferChunks {
					okPrefix = false
				}
				continue
			}
			res.DeliveredChunks++
			created := int64(c) * chunkIntervalMS
			delays = append(delays, float64(t-created))
			if c < bufferChunks && t > setupAt {
				setupAt = t
			}
		}
		if okPrefix && setupAt >= 0 {
			setups = append(setups, float64(setupAt))
		}
	}
	res.MeanDeliveryMS, res.P95DeliveryMS = meanP95(delays)
	res.MeanSetupMS, res.P95SetupMS = meanP95(setups)
	return res
}

func meanP95(v []float64) (mean, p95 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	sort.Float64s(v)
	var sum float64
	for _, x := range v {
		sum += x
	}
	idx := int(0.95*float64(len(v))) - 1
	if idx < 0 {
		idx = 0
	}
	return sum / float64(len(v)), v[idx]
}
