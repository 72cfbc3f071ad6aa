package cluster

import (
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
)

// shard is one shard of the cluster: a server.Server and its apply counter.
// The server serialises its own writers (its writer mutex), so the shard
// adds no lock of its own. Copies of a shard live in other processes, fed by
// the committed op stream (see netserver.StartFollower).
type shard struct {
	srv *server.Server

	// applies counts the ops the cluster's roads hand the server, one per
	// server call, and the groups the checkpoint loader hands it whole.
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
