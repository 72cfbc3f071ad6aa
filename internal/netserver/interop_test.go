package netserver

import (
	"errors"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// startReplicaPair runs the replica deployment: a durable primary behind
// one front end, and a replica front end over a follower's copy of it. The
// follower is returned so tests can wait for the copy to catch up before
// reading from it (replication is asynchronous).
func startReplicaPair(t *testing.T, landmarks ...topology.NodeID) (primary, replica *NetServer, logic *cluster.Cluster, f *Follower) {
	t.Helper()
	logic, err := cluster.New(cluster.Config{
		Landmarks: landmarks,
		Shards:    len(landmarks),
		DataDir:   t.TempDir(),
		NoSync:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logic.Close() })
	primary, err = Listen(Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	copySrv := newCluster(t, cluster.Config{Landmarks: landmarks, Shards: len(landmarks)})
	f = newFollowerNode(t, primary.Addr(), 0, copySrv)
	t.Cleanup(func() { f.Close() })
	replica, err = Listen(Config{
		Addr:        "127.0.0.1:0",
		Server:      copySrv,
		Replication: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	return primary, replica, logic, f
}

// TestReplicaRoleRedirectsWrites dials the REPLICA node: joins must be
// redirected to the primary transparently, and peer-keyed writes must fail
// over to the primary via CodeNotPrimary. A client's reads stay on the
// replica, served from its follower-fed copy, until some write taught the
// client the primary; from then on the primary serves them too.
func TestReplicaRoleRedirectsWrites(t *testing.T) {
	primary, replica, logic, f := startReplicaPair(t, 0, 100)
	lookups := func(ns *NetServer) uint64 { return ns.met.reqs[proto.MsgLookupRequest].Value() }

	c, err := client.DialConfig(replica.Addr(), client.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Status reporting: the replica names its primary.
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != proto.RoleReplica || st.PrimaryAddr != primary.Addr() {
		t.Fatalf("status=%+v", st)
	}

	// A join through the replica lands (via redirect) on the primary.
	if _, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil {
		t.Fatalf("join via replica: %v", err)
	}
	if logic.NumPeers() != 1 {
		t.Fatalf("peers=%d", logic.NumPeers())
	}
	// The join's redirect taught the client the primary, which serves its
	// reads from here on.
	waitApplied(t, f, logic)
	if _, err := c.Lookup(1); err != nil {
		t.Fatalf("lookup via replica: %v", err)
	}
	if r, p := lookups(replica), lookups(primary); r != 0 || p != 1 {
		t.Fatalf("lookups served: replica %d, primary %d; want 0 and 1", r, p)
	}
	// Peer-keyed writes fail over to the primary.
	if err := c.Refresh(1); err != nil {
		t.Fatalf("refresh via replica: %v", err)
	}
	if err := c.Leave(1); err != nil {
		t.Fatalf("leave via replica: %v", err)
	}
	if logic.NumPeers() != 0 {
		t.Fatalf("peers=%d after leave", logic.NumPeers())
	}

	// A second client that never joined through this connection: its reads
	// and peer-keyed writes start at the replica, and the writes must
	// follow the CodeNotPrimary answer to the primary.
	if _, err := c.Join(7, "127.0.0.1:9007", []int32{20, 0}); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, logic)
	c2, err := client.DialConfig(replica.Addr(), client.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Lookup(7); err != nil {
		t.Fatalf("cold lookup via replica: %v", err)
	}
	if r, p := lookups(replica), lookups(primary); r != 1 || p != 1 {
		t.Fatalf("cold lookup served: replica %d, primary %d lookups in all; want 1 and 1", r, p)
	}
	if err := c2.Refresh(7); err != nil {
		t.Fatalf("cold refresh via replica (not-primary failover): %v", err)
	}
	if err := c2.Leave(7); err != nil {
		t.Fatalf("cold leave via replica (not-primary failover): %v", err)
	}
	if logic.NumPeers() != 0 {
		t.Fatalf("peers=%d after cold leave", logic.NumPeers())
	}
	// The departures reach the replica's copy through the stream. The
	// refresh taught c2 the primary, which answers this lookup.
	waitApplied(t, f, logic)
	if _, err := c2.Lookup(7); err == nil {
		t.Fatal("replica still answers for a peer that left")
	}
	if r, p := lookups(replica), lookups(primary); r != 1 || p != 2 {
		t.Fatalf("lookup after the leave: replica %d, primary %d lookups in all; want 1 and 2", r, p)
	}
}

// TestReplicaJoinLearnsPrimary pins what a client dialled at a replica
// learns from its first join. The replica serves that one join and no
// leave, the client's next batch and refresh go straight to the primary,
// and a second client that only reads keeps its lookups on the replica.
func TestReplicaJoinLearnsPrimary(t *testing.T) {
	primary, replica, logic, f := startReplicaPair(t, 0)
	dialReplica := func() *client.Client {
		t.Helper()
		c, err := client.DialConfig(replica.Addr(), client.Config{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	served := func(ns *NetServer, typ proto.MsgType) uint64 { return ns.met.reqs[typ].Value() }

	c := dialReplica()
	if _, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil {
		t.Fatalf("join via replica: %v", err)
	}
	if j, l := served(replica, proto.MsgJoinRequest), served(replica, proto.MsgLeaveRequest); j != 1 || l != 0 {
		t.Fatalf("replica served %d joins and %d leaves, want 1 and 0", j, l)
	}
	res, err := c.JoinBatch([]client.BatchItem{{Peer: 2, Addr: "127.0.0.1:9002", Path: []int32{11, 10, 0}}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("batch join after the redirect: %v %v", err, res)
	}
	if err := c.Refresh(1); err != nil {
		t.Fatalf("refresh after the redirect: %v", err)
	}
	if b, r := served(replica, proto.MsgBatchJoinRequest), served(replica, proto.MsgRefreshRequest); b != 0 || r != 0 {
		t.Fatalf("replica served %d batches and %d refreshes, want none", b, r)
	}
	if b, r := served(primary, proto.MsgBatchJoinRequest), served(primary, proto.MsgRefreshRequest); b != 1 || r != 1 {
		t.Fatalf("primary served %d batches and %d refreshes, want 1 and 1", b, r)
	}
	if logic.NumPeers() != 2 {
		t.Fatalf("primary peers=%d, want 2", logic.NumPeers())
	}

	waitApplied(t, f, logic)
	reader := dialReplica()
	for i := 0; i < 3; i++ {
		before := served(replica, proto.MsgLookupRequest)
		if _, err := reader.Lookup(int64(1 + i%2)); err != nil {
			t.Fatalf("lookup %d via replica: %v", i, err)
		}
		if got := served(replica, proto.MsgLookupRequest) - before; got != 1 {
			t.Fatalf("lookup %d: replica served %d lookups, want 1", i, got)
		}
	}
	if n := served(primary, proto.MsgLookupRequest); n != 0 {
		t.Fatalf("primary served %d lookups of the reading client, want 0", n)
	}
}

// TestRejoinThroughLearnedPrimaryKeepsPeer: a client dialled at a replica
// joins a peer, which the replica redirects to the primary, and then
// re-joins it by batch on the primary road it learned. The primary keeps
// the peer, and no Leave reaches it.
func TestRejoinThroughLearnedPrimaryKeepsPeer(t *testing.T) {
	primary, replica, logic, _ := startReplicaPair(t, 0)
	c, err := client.DialConfig(replica.Addr(), client.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil { // redirected to the primary
		t.Fatal(err)
	}
	// A write of a peer the primary does not hold is answered there.
	var werr *proto.Error
	if err := c.Refresh(99); !errors.As(err, &werr) || werr.Code != proto.CodeUnknownPeer {
		t.Fatalf("refresh of an unknown peer: %v", err)
	}
	res, err := c.JoinBatch([]client.BatchItem{{Peer: 1, Addr: "127.0.0.1:9001", Path: []int32{11, 0}}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("batch re-join: %v %v", err, res)
	}
	if logic.NumPeers() != 1 || primary.met.reqs[proto.MsgLeaveRequest].Value() != 0 {
		t.Fatalf("primary peers=%d leaves=%d, want 1 and 0",
			logic.NumPeers(), primary.met.reqs[proto.MsgLeaveRequest].Value())
	}
}

// TestPrimaryStatus pins the status answer of a primary node: NumShards,
// each shard one live copy.
func TestPrimaryStatus(t *testing.T) {
	ns, _ := startServer(t)
	c := dial(t, ns)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != proto.RolePrimary || st.Shards != 1 || st.Replicas != 1 || st.Live != 1 || st.PrimaryAddr != "" {
		t.Fatalf("status=%+v", st)
	}

	clu := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	cns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cns.Close() })
	st, err = dial(t, cns).Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != proto.RolePrimary || st.Shards != 2 || st.Replicas != 1 || st.Live != 2 {
		t.Fatalf("cluster status=%+v", st)
	}
}

// TestExpiryOverTCPWithInjectedClock drives the TTL expiry flow end to end
// — join over TCP, advance a fake clock past the TTL, sweep, observe the
// unknown-peer answer — without a single real-clock sleep, so the test
// cannot flake on a slow runner.
func TestExpiryOverTCPWithInjectedClock(t *testing.T) {
	var (
		mu  sync.Mutex
		now = time.Unix(1000, 0)
	)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	logic := newCluster(t, cluster.Config{
		Landmarks: []topology.NodeID{0},
		PeerTTL:   time.Minute,
		Clock:     clock,
	})
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	c := dial(t, ns)
	if _, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(2, "127.0.0.1:9002", []int32{11, 0}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(30 * time.Second)
	mu.Unlock()
	if err := c.Refresh(2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(45 * time.Second)
	mu.Unlock()
	if expired := logic.Expire(); len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired=%v", expired)
	}
	var werr *proto.Error
	if _, err := c.Lookup(1); !errors.As(err, &werr) || werr.Code != proto.CodeUnknownPeer {
		t.Fatalf("expired peer lookup err=%v", err)
	}
	if _, err := c.Lookup(2); err != nil {
		t.Fatalf("refreshed peer expired too: %v", err)
	}
}

// TestIdleDroppedSessionRedials: the server drops a connection that stays
// idle past its ReadTimeout. A default client's next calls must redial
// the dropped session, not fail on it for good.
func TestIdleDroppedSessionRedials(t *testing.T) {
	const readTimeout = 100 * time.Millisecond
	ns := twoLandmarkNode(t, readTimeout, t.Logf)
	c := dial(t, ns)
	if _, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * readTimeout)
	if err := c.Refresh(1); err != nil {
		t.Fatalf("refresh after an idle drop: %v", err)
	}
	if _, err := c.Lookup(1); err != nil {
		t.Fatalf("lookup after an idle drop: %v", err)
	}
	res, err := c.JoinBatch([]client.BatchItem{{Peer: 2, Addr: "127.0.0.1:9002", Path: []int32{11, 0}}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("batch join after an idle drop: %v %v", err, res)
	}
}

// TestClientFailoverRedialsPrimary kills the dialled node and rebinds its
// address, as a crashed-and-replaced management server: a default client
// must ride through on the next request.
func TestClientFailoverRedialsPrimary(t *testing.T) {
	logic := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}})
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.DialConfig(ns.Addr(), client.Config{
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil {
		t.Fatal(err)
	}
	addr := ns.Addr()
	ns.Close()
	ns2, err := Listen(Config{Addr: addr, Server: logic})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { ns2.Close() })
	// The join hits the dead session first: the transport failure drops
	// it, and the join is sent again on a fresh dial.
	if _, err := c.Join(2, "127.0.0.1:9002", []int32{11, 10, 0}); err != nil {
		t.Fatalf("join after server restart: %v", err)
	}
	if _, err := c.Lookup(1); err != nil {
		t.Fatalf("lookup after server restart: %v", err)
	}
	if err := c.Refresh(2); err != nil {
		t.Fatalf("refresh after server restart: %v", err)
	}
}
