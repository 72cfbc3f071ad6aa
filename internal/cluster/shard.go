package cluster

import (
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

// shard is one shard of the cluster: a server.Server and its apply counter.
// The server serialises its own writers (its writer mutex), so the shard
// adds no lock of its own. Copies of a shard live in other processes, fed by
// the committed op stream (see netserver.StartFollower).
type shard struct {
	srv *server.Server

	// applies counts ops through applyOp, the shard's write door, and the
	// groups the checkpoint loader hands the server whole.
	// newShard seeds a private counter; Cluster.initMetrics swaps in the
	// registered per-shard series before the shard takes traffic.
	applies *telemetry.Counter
}

// newShard builds a shard over its share of the node's landmarks, its server
// reading and writing the node's one peer index.
func newShard(lms []topology.NodeID, cfg Config, idx *server.Index) (*shard, error) {
	srv, err := server.NewSharing(server.Config{
		Landmarks:     lms,
		NeighborCount: cfg.NeighborCount,
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
	var err error
	switch {
	case quiet:
		err = g.srv.Apply(o)
	case o.Kind == op.KindJoin:
		res.cands, err = g.srv.JoinOp(o)
	case o.Kind == op.KindBatchJoin:
		res.batch = g.srv.JoinBatchOp(o)
	case o.Kind == op.KindExpire:
		res.expired = g.srv.ExpireOp(o)
	default:
		err = g.srv.Apply(o)
	}
	return res, err
}
