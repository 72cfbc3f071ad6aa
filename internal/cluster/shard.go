package cluster

import (
	"sync"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
)

// opResult carries whatever answer an op produced on its shard.
type opResult struct {
	// cands answers a KindJoin.
	cands []pathtree.Candidate
	// batch answers a KindBatchJoin, positionally.
	batch []server.BatchResult
	// expired lists the peers a KindExpire removed.
	expired []pathtree.PeerID
}

// shard is one shard of the cluster: a server.Server behind the handoff
// gate. The server serialises its own writers (its writer mutex), so the
// shard adds no write lock of its own;
// copies of a shard live in other processes, fed by the committed op
// stream (see netserver.StartFollower).
type shard struct {
	// opMu is the shard's operation gate: held in read mode across every
	// table-routed mutation of this shard, and in write mode by the
	// operations that must observe (and freeze) a quiescent shard — a
	// landmark handoff to or from this shard, while the tree changes
	// servers, and a cluster-wide expiry sweep. Scoping the gate to the
	// shard keeps a handoff's freeze away from every uninvolved shard's
	// write path; any code path that takes several shards' gates at once
	// acquires them in ascending shard order, which is what makes the
	// pairwise and cluster-wide freezes deadlock-free against each other.
	opMu sync.RWMutex

	srv *server.Server

	// applies counts ops through applyOp, the shard's one write door.
	// newShard seeds a private counter; Cluster.initMetrics swaps in the
	// registered per-shard series before the shard takes traffic.
	applies *telemetry.Counter
}

// newShard builds a shard over the given landmarks, its server reading and
// writing the node's one peer index. A shard over zero landmarks is legal:
// it is an elastic shard, which acquires landmarks through rebalancing
// handoffs rather than assignment.
func newShard(lms []topology.NodeID, cfg Config, idx *server.Index) (*shard, error) {
	srv, err := server.NewSharing(server.Config{
		Landmarks:     lms,
		NeighborCount: cfg.NeighborCount,
		PeerTTL:       cfg.PeerTTL,
		Clock:         cfg.Clock,
	}, idx)
	if err != nil {
		return nil, err
	}
	return &shard{srv: srv, applies: telemetry.NewCounter("proxdisc_shard_apply_total")}, nil
}

// applyOp is the one write path of a shard: it applies a typed op to the
// shard's server and returns its answer — with the answering entry point
// for its kind, or silently (server.Apply) when quiet, the mode of replayed
// and replicated ops, which skips answer computation. What reaches the
// write-ahead log is decided by the caller from the answer: only accepted
// batch entries, and no sweep that expired nobody (see Cluster.JoinBatchOp,
// Cluster.Expire).
func (g *shard) applyOp(o op.Op, quiet bool) (opResult, error) {
	g.applies.Inc()
	var res opResult
	if quiet {
		return res, g.srv.Apply(o)
	}
	var err error
	switch o.Kind {
	case op.KindJoin:
		res.cands, err = g.srv.JoinOp(o)
	case op.KindBatchJoin:
		res.batch = g.srv.JoinBatchOp(o)
	case op.KindExpire:
		res.expired = g.srv.ExpireOp(o)
	default:
		err = g.srv.Apply(o)
	}
	return res, err
}
