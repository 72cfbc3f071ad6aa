// Package proxdisc is a library for quick discovery of nearby peers,
// reproducing "A Quicker Way to Discover Nearby Peers" (Simon, Chen,
// Boudani, Straub — ACM CoNEXT 2007).
//
// A newcomer in a peer-to-peer system traceroutes to its closest landmark
// and reports the router path to a management server. The server organizes
// all reported paths in per-landmark prefix trees; the deepest common router
// between two paths yields the inferred distance
//
//	dtree(p,q) = depth(p) + depth(q) − 2·depth(dca(p,q)),
//
// which tracks the true hop distance closely on heavy-tailed router
// topologies. One traceroute is enough for a good answer — no multi-round
// coordinate convergence (Vivaldi/GNP) is needed.
//
// # Entry points
//
// The package holds what the programs under examples/ use, each of them a
// runnable starting point:
//
//   - NewCluster builds the management plane: a landmark-sharded cluster of
//     server shards, each owning a fixed share of the landmarks, with
//     scatter-gather fan-out for cross-landmark operations — the same
//     answers as a single server. Every node runs one, of one shard or more.
//   - ListenAndServe exposes a cluster over TCP and ListenLandmark answers a
//     landmark's UDP probes; Dial connects a Client, and an Agent runs the
//     newcomer's whole protocol through it: probe the landmarks, obtain the
//     path to the closest one (PathProvider), join. Client.Subscribe keeps
//     a live Query's answer cached on the client.
//   - NewSimulation generates an Internet-like router topology and runs the
//     complete two-round protocol over a cluster of one shard or of
//     SimulationConfig.Shards; SimulationConfig.BatchSize routes simulated
//     arrivals through the batched join path. HopDistances scores answers
//     against true hop distances, NewOverlay builds a peer mesh from them,
//     and NewStreamSession broadcasts over that mesh.
//
// # Where each guarantee lives
//
// Each guarantee is stated, with the test that pins it, in the doc of the
// package whose code keeps it:
//
//   - the wire protocol and its handshake: internal/proto; the server's two
//     roads, pipelining and the locks a lookup takes: internal/netserver;
//     sessions, redirects, the redial rule, batching and the context-first
//     methods: internal/client;
//   - replication — the follower, its catch-up, what it guarantees and how
//     it is monitored: internal/netserver, follower.go;
//   - durability: the write-ahead log and its group commit in internal/wal;
//     checkpoints, recovery and the static landmark table in
//     internal/cluster; the op every layer logs and ships in internal/op;
//   - live subscriptions: internal/sub (the server's plane) and
//     internal/client, subscribe.go (the client's cache and its resync);
//   - metrics: internal/telemetry (the registry) and cmd/proxdisc-server
//     (the series /metrics exports, and what a node keeps on disk);
//   - what a resident peer costs and how reads stay off the writers' path:
//     internal/server and internal/pathtree.
//
// Throughput has one ruler, the repository benchmark in bench/ (its README
// defines the workloads and how two builds are compared): flash_crowd's
// ops_per_s counts batched joins per second, wire to fsync, on a durable
// 4-shard node, and BENCHMARK.json bounds how far a change may walk it
// back; what the instrumentation adds to a join is its
// telemetry.join_overhead_ns. cmd/proxdisc-loadgen drives the four traffic
// shapes (one request at a time or pipelined, singular or batched) against
// a live server for a quick look.
package proxdisc

import (
	"fmt"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/experiment"
	"proxdisc/internal/netserver"
	"proxdisc/internal/overlay"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/streaming"
	"proxdisc/internal/topology"
	"proxdisc/internal/traceroute"
)

// PeerID identifies a peer.
type PeerID = pathtree.PeerID

// RouterID identifies a router in a topology.
type RouterID = topology.NodeID

// Candidate is one closest-peer answer entry: the peer, its inferred
// path-tree distance in router hops and, in a management server's answers,
// the overlay address the peer advertised.
type Candidate = pathtree.Candidate

// ClusterConfig configures a landmark-sharded management cluster. See
// cluster.Config for field documentation.
type ClusterConfig = cluster.Config

// Cluster is a landmark-sharded management service: N server shards, each
// dealt a fixed share of the landmarks at NewCluster; it routes every
// request to the shard that owns it and scatter-gathers cross-landmark
// operations. Copies of it live in other processes as followers (package
// netserver, follower.go). With ClusterConfig.DataDir it is durable: writes
// commit to a write-ahead log, snapshots land on disk (Checkpoint), a
// restart recovers what was acknowledged (package cluster says exactly
// what), and Close shuts it down cleanly. A cluster of one shard and one of
// many return identical answers. Safe for concurrent use.
type Cluster = cluster.Cluster

// NewCluster builds a sharded management cluster for a set of landmark
// routers.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NetServerConfig configures the TCP front end.
type NetServerConfig = netserver.Config

// NetServer is a running TCP management-server front end.
type NetServer = netserver.NetServer

// ListenAndServe exposes a management cluster over TCP. Close the returned
// NetServer to stop.
func ListenAndServe(cfg NetServerConfig) (*NetServer, error) { return netserver.Listen(cfg) }

// LandmarkResponder answers UDP RTT probes for one landmark.
type LandmarkResponder = netserver.LandmarkResponder

// ListenLandmark starts a landmark probe responder on a UDP address.
func ListenLandmark(addr string) (*LandmarkResponder, error) {
	return netserver.ListenLandmark(addr)
}

// Client talks to a management server over one TCP session per node it
// has reached, redialing a session that died. It is safe for concurrent
// use: concurrent requests are pipelined over a session without
// serializing behind each other.
type Client = client.Client

// Query describes a read — which peers the caller cares about. One Query
// value drives both the pull path (Client.LookupContext) and the push
// path (Client.Subscribe); KClosestQuery builds the one both take.
type Query = client.Query

// KClosestQuery is the query Lookup and Subscribe share: the k-closest
// answer set of a registered peer, at the server's configured size.
func KClosestQuery(peer PeerID) Query { return client.KClosest(int64(peer)) }

// Subscription is one live query against a management server, holding a
// coherent local cache of the query's current answer (package client,
// subscribe.go).
type Subscription = client.Subscription

// SubscriptionEvent is one pushed subscription delta.
type SubscriptionEvent = client.Event

// Subscription event kinds.
const (
	// EventEnter reports a peer entering the subscribed set.
	EventEnter = client.EventEnter
	// EventLeave reports a peer leaving the subscribed set; a k-closest
	// subscription whose subject itself deregistered reports the subject.
	EventLeave = client.EventLeave
	// EventUpdate reports a peer already in the set whose record changed.
	EventUpdate = client.EventUpdate
	// EventResync replaces the subscriber's whole cached set.
	EventResync = client.EventResync
)

// Dial connects to a management server with default configuration: it
// opens the client's first session, whose hello must be acked at protocol
// version 2.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return client.Dial(addr, timeout)
}

// Agent runs the complete newcomer protocol: probe landmarks over UDP,
// obtain the router path to the closest one from a PathProvider, and join
// through the management server.
type Agent = client.Agent

// PathProvider abstracts the traceroute-like tool.
type PathProvider = client.PathProvider

// PathProviderFunc adapts a function to PathProvider.
type PathProviderFunc = client.PathProviderFunc

// WireCandidate is a closest-peer answer received over the network; unlike
// Candidate it carries the peer's dialable overlay address.
type WireCandidate = proto.Candidate

// SimulationConfig configures a simulated deployment. See
// experiment.WorldConfig for field documentation.
type SimulationConfig = experiment.WorldConfig

// Simulation is a complete in-process deployment over a generated
// router-level topology: landmarks, tracer, and management server.
type Simulation = experiment.World

// NewSimulation builds a simulated deployment.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	return experiment.BuildWorld(cfg)
}

// HopDistances returns the hop distance from one router to every router of
// the simulation's topology (−1 for routers it cannot reach); a router
// outside the topology is an error. Examples and applications use it to
// score neighbour sets.
func HopDistances(sim *Simulation, from RouterID) ([]int32, error) {
	if n := sim.Graph.NumNodes(); from < 0 || int(from) >= n {
		return nil, fmt.Errorf("proxdisc: router %d out of range [0,%d)", from, n)
	}
	return sim.Graph.HopsFrom(from), nil
}

// Overlay is the peer mesh built from closest-peer answers. Safe for
// concurrent use.
type Overlay = overlay.Overlay

// NewOverlay returns an empty overlay mesh.
func NewOverlay() *Overlay { return overlay.New() }

// StreamConfig tunes a simulated live-streaming session.
type StreamConfig = streaming.Config

// StreamResult aggregates a finished streaming session.
type StreamResult = streaming.Result

// StreamSession is a mesh-based live-streaming broadcast simulation.
type StreamSession = streaming.Session

// HopFunc reports the underlay hop distance between two peers.
type HopFunc = streaming.HopFunc

// NewStreamSession prepares a broadcast from source over the mesh; hops
// supplies ground-truth hop distances (see HopDistances).
func NewStreamSession(mesh *Overlay, source PeerID, hops HopFunc, cfg StreamConfig) (*StreamSession, error) {
	return streaming.NewSession(mesh, source, hops, cfg)
}

// TopologyConfig configures topology generation for simulations.
type TopologyConfig = topology.Config

// TraceConfig tunes the simulated traceroute tool.
type TraceConfig = traceroute.Config
