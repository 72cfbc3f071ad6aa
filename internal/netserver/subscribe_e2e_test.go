package netserver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// These tests are the end-to-end contract of the push read plane: a
// client-side subscription cache, fed only by pushed deltas, converges to
// exactly what a fresh wire lookup answers — through arbitrary concurrent
// churn, through TTL expiry, and across a primary crash/restart that
// forces the subscription down its resubscribe-and-resync road.

// stepClock is a race-safe, manually advanced clock for TTL tests: time
// stands still until the test advances it, so staleness is a deterministic
// step instead of a real-clock sleep.
type stepClock struct{ ns atomic.Int64 }

func newStepClock() *stepClock {
	c := &stepClock{}
	c.ns.Store(time.Now().UnixNano())
	return c
}

func (c *stepClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *stepClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// churnPath builds a router path for peer i inside the landmark-0 tree:
// a leaf router, one of a handful of shared aggregation routers, then the
// landmark — enough shape that k-closest answers actually change as peers
// come and go.
func churnPath(i int) []int32 {
	return []int32{int32(10000 + i), int32(10 + i%7), int32(1 + i%3), 0}
}

// candidatesEqual compares two wire answers element-wise; unlike
// reflect.DeepEqual it treats an empty answer and a nil one as the same
// (the wire decodes empty lists as non-nil).
func candidatesEqual(a, b []proto.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cachedAnswer asks c.CachedLookup for subject's k-closest answer and
// reports whether a subscription's cache served it: ns, the node c's
// requests reach, answered no lookup meanwhile. Nothing else may send ns a
// lookup during the call.
func cachedAnswer(ns *NetServer, c *client.Client, subject int64) ([]proto.Candidate, bool) {
	lookups := ns.met.reqs[proto.MsgLookupRequest]
	before := lookups.Value()
	cands, err := c.CachedLookup(context.Background(), subject)
	return cands, err == nil && lookups.Value() == before
}

// waitCacheCoherent polls until c's subscription to subject's k-closest
// answer serves CachedLookup from its cache, byte-identical to a fresh
// wire lookup of the subject, failing the test with the diff on timeout.
// ns is the node c's requests reach. The push plane is asynchronous
// (commit → dispatcher → sender → client fold), so at a quiescent point
// equality is eventual; this is the "quiescent points" check of the
// acceptance criteria.
func waitCacheCoherent(t *testing.T, ns *NetServer, c *client.Client, subject int64) {
	t.Helper()
	var (
		cache []proto.Candidate
		ok    bool
		fresh []proto.Candidate
		err   error
	)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cache, ok = cachedAnswer(ns, c, subject)
		fresh, err = c.Lookup(subject)
		if err == nil && ok && candidatesEqual(cache, fresh) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("subscription cache never converged (served from the cache=%v, lookup err=%v):\n cache: %v\n fresh: %v",
		ok, err, cache, fresh)
}

// TestSubscribeChurnCoherence drives concurrent joins, leaves, refreshes,
// and a TTL expiry sweep under a live k-closest subscription, checking the
// client cache against fresh lookups at every quiescent point — then kills
// the primary, restarts it on the same address and data directory, and
// checks the resubscribed cache converges again.
func TestSubscribeChurnCoherence(t *testing.T) {
	dir := t.TempDir()
	// TTL expiry runs on an injected clock, so the staleness step below is
	// a deterministic clock advance instead of a real 350ms sleep.
	clk := newStepClock()
	clu, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100},
		Shards:    1,
		DataDir:   dir,
		NoSync:    true,
		PeerTTL:   300 * time.Millisecond,
		Clock:     clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		clu.Close()
		t.Fatal(err)
	}
	addr := ns.Addr()
	defer func() {
		ns.Close()
		clu.Close()
	}()

	c, err := client.DialConfig(addr, client.Config{
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const subject = int64(1)
	if _, err := c.Join(subject, "peer-1:7000", churnPath(1)); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 10; i++ {
		if _, err := c.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}

	sub, err := c.Subscribe(context.Background(), client.KClosest(subject))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Consumers are optional; drain so the delivery path is exercised too.
	go func() {
		for range sub.Events() {
		}
	}()
	waitCacheCoherent(t, ns, c, subject)

	// Concurrent churn: several writers joining, leaving, and refreshing
	// disjoint peer ranges while the subscription watches.
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := 100 + w*100
			for round := 0; round < 40; round++ {
				p := int64(base + rng.Intn(30))
				switch rng.Intn(3) {
				case 0:
					if _, err := c.Join(p, fmt.Sprintf("peer-%d:7000", p), churnPath(int(p))); err != nil {
						t.Errorf("join %d: %v", p, err)
						return
					}
				case 1:
					c.Leave(p) // leaving an absent peer acks; both are fine churn
				case 2:
					c.Refresh(p) // refreshing an absent peer errors; ignore
				}
			}
		}(w)
	}
	wg.Wait()
	waitCacheCoherent(t, ns, c, subject)

	// TTL expiry: age the churned peers past the TTL on the injected
	// clock, keep the subject alive, and sweep. The expire op reaches the
	// plane as a single deadline op that must re-derive the same survivor
	// set the server keeps.
	clk.Advance(350 * time.Millisecond)
	if err := c.Refresh(subject); err != nil {
		t.Fatal(err)
	}
	clu.Expire()
	waitCacheCoherent(t, ns, c, subject)
	if _, err := c.Join(2, "peer-2:7000", churnPath(2)); err != nil {
		t.Fatal(err)
	}
	waitCacheCoherent(t, ns, c, subject)

	// Crash the primary and restart it on the same address and data
	// directory. The subscription must ride over: reconnect, resubscribe,
	// and install the restart-recovered answer via resync.
	ns.Close()
	clu.Close()
	clu2, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100},
		Shards:    1,
		DataDir:   dir,
		NoSync:    true,
		PeerTTL:   time.Hour, // recovery replays old timestamps; don't expire them
	})
	if err != nil {
		t.Fatal(err)
	}
	ns2, err := Listen(Config{Addr: addr, Server: clu2})
	if err != nil {
		clu2.Close()
		t.Fatal(err)
	}
	defer func() {
		ns2.Close()
		clu2.Close()
	}()
	waitCacheCoherent(t, ns2, c, subject)

	// Post-failover churn still flows.
	for i := 20; i < 30; i++ {
		if _, err := c.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitCacheCoherent(t, ns2, c, subject)
	if sub.Err() != nil {
		t.Fatalf("subscription reported terminal error while alive: %v", sub.Err())
	}
}

// TestSubscribeSubjectLeaveAndRejoin pins the orphan contract end to end:
// the subject deregistering empties the cache and makes it non-covering
// (CachedLookup falls back to the wire and reports unknown-peer exactly
// like a fresh lookup); the subject rejoining rebuilds it.
func TestSubscribeSubjectLeaveAndRejoin(t *testing.T) {
	clu, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100},
		Shards:    1,
		DataDir:   t.TempDir(),
		NoSync:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const subject = int64(1)
	for i := 1; i <= 6; i++ {
		if _, err := c.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := c.Subscribe(context.Background(), client.KClosest(subject))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitCacheCoherent(t, ns, c, subject)
	// A second subscriber, whose answer holds the subject.
	const bystander = int64(2)
	other, err := c.Subscribe(context.Background(), client.KClosest(bystander))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	waitCacheCoherent(t, ns, c, bystander)
	if cache, ok := cachedAnswer(ns, c, bystander); !ok || !slices.ContainsFunc(cache, func(cd proto.Candidate) bool { return cd.Peer == subject }) {
		t.Fatalf("peer %d's answer %v does not hold the subject", bystander, cache)
	}

	if err := c.Leave(subject); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := cachedAnswer(ns, c, subject); !ok {
			break
		}
		if time.Now().After(deadline) {
			cache, _ := cachedAnswer(ns, c, subject)
			t.Fatalf("cache not voided after subject left: %v", cache)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Non-covering now: CachedLookup must answer like the wire, which is
	// an unknown-peer error.
	if _, err := c.CachedLookup(context.Background(), subject); err == nil {
		t.Fatal("CachedLookup answered for a departed subject")
	}
	// Only the subject's own cache is voided: the other one drops the
	// subject from its answer and stays coherent.
	waitCacheCoherent(t, ns, c, bystander)

	if _, err := c.Join(subject, "peer-1:7000", churnPath(1)); err != nil {
		t.Fatal(err)
	}
	waitCacheCoherent(t, ns, c, subject)
}

// TestSubscribeReplicaRoads pins where a replica sends a subscriber: it
// serves the subscription itself from its Follower's applied stream.
func TestSubscribeReplicaRoads(t *testing.T) {
	clu, ns := newFollowedPlane(t, t.TempDir())
	defer clu.Close()
	defer ns.Close()

	const subject = int64(1)
	pc, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for i := 1; i <= 5; i++ {
		if _, err := pc.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}

	backend := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	fol := newFollowerNode(t, ns.Addr(), 0, backend)
	defer fol.Close()
	waitApplied(t, fol, clu)
	frep, err := Listen(Config{
		Addr: "127.0.0.1:0", Server: backend, Replication: fol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer frep.Close()
	fc, err := client.Dial(frep.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fsub, err := fc.Subscribe(context.Background(), client.KClosest(subject))
	if err != nil {
		t.Fatalf("subscribe at follower-backed replica: %v", err)
	}
	defer fsub.Close()
	// New joins land at the primary, replicate to the follower, and must
	// reach the follower-served subscription as pushed deltas.
	for i := 30; i < 36; i++ {
		if _, err := pc.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, fol, clu)
	// Compare against the FOLLOWER's own read plane: the subscription is
	// served from the local copy, and the local copy converges to the
	// primary.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cache, ok := cachedAnswer(frep, fc, subject)
		fresh, err := fc.Lookup(subject)
		if err == nil && ok && candidatesEqual(cache, fresh) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower-served cache never converged (served from the cache=%v, err=%v):\n cache: %v\n fresh: %v",
				ok, err, cache, fresh)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubscribeNonDurablePrimary pins the no-op-stream answer: a primary
// without a DataDir has nothing to evaluate filters against and must
// refuse crisply rather than accept and never push.
func TestSubscribeNonDurablePrimary(t *testing.T) {
	srv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}})
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	c, err := client.Dial(ns.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Join(1, "peer-1:7000", churnPath(1)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Subscribe(context.Background(), client.KClosest(1))
	if err == nil {
		t.Fatal("subscribe against a non-durable primary succeeded")
	}
	werr, ok := err.(*proto.Error)
	if !ok || werr.Code != proto.CodeBadRequest {
		t.Fatalf("want CodeBadRequest, got %v", err)
	}
}
