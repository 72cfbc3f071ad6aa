package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// testLandmarks is a convenient landmark set spread over several shards.
var testLandmarks = []topology.NodeID{0, 100, 200, 300, 400, 500, 600, 700}

// synthPath builds a deterministic peer→landmark path in a per-landmark ID
// space: each landmark's routers live in their own block, so trees never
// share router IDs with other trees.
func synthPath(lm topology.NodeID, leaf int) []topology.NodeID {
	base := topology.NodeID(1_000_000 * (int(lm) + 1))
	r := base + topology.NodeID(1+leaf)
	var path []topology.NodeID
	for r > base {
		path = append(path, r)
		r = base + (r-base-1)/8
	}
	return append(path, lm)
}

func newTestCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(Config{Landmarks: testLandmarks, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// populate joins n peers round-robin over the landmarks and returns each
// peer's landmark.
func populate(t *testing.T, c *Cluster, n int) map[pathtree.PeerID]topology.NodeID {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	byPeer := make(map[pathtree.PeerID]topology.NodeID, n)
	for i := 0; i < n; i++ {
		p := pathtree.PeerID(i + 1)
		lm := testLandmarks[i%len(testLandmarks)]
		if _, err := c.Join(p, synthPath(lm, rng.Intn(50_000))); err != nil {
			t.Fatalf("join %d: %v", p, err)
		}
		byPeer[p] = lm
	}
	return byPeer
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted empty landmark set")
	}
	if _, err := New(Config{Landmarks: testLandmarks, Shards: -1}); err == nil {
		t.Fatal("accepted negative shard count")
	}
}

// TestNewRefusesShardsBeyondLandmarks pins that New refuses more shards than
// landmarks, naming both counts: the landmark is the unit of sharding and the
// table New deals never changes, so a shard dealt no landmark would stay
// empty for good.
func TestNewRefusesShardsBeyondLandmarks(t *testing.T) {
	_, err := New(Config{Landmarks: []topology.NodeID{1, 2}, Shards: 3})
	if err == nil || !strings.Contains(err.Error(), "3 shards") || !strings.Contains(err.Error(), "2 landmarks") {
		t.Fatalf("3 shards for 2 landmarks: %v, want an error naming both counts", err)
	}
	if c, err := New(Config{Landmarks: []topology.NodeID{1, 2}, Shards: 2}); err != nil {
		t.Fatalf("refused a shard per landmark: %v", err)
	} else if got := c.NumShards(); got != 2 {
		t.Fatalf("cluster has %d shards, want 2", got)
	}
}

// TestRoundRobinLandmarkTable pins the landmark table New deals:
// round-robin, so every shard of four owns two of the eight landmarks.
func TestRoundRobinLandmarkTable(t *testing.T) {
	c := newTestCluster(t, 4)
	counts := make(map[int]int)
	for _, lm := range testLandmarks {
		shard, ok := c.table[lm]
		if !ok {
			t.Fatalf("landmark %d unassigned", lm)
		}
		counts[shard]++
	}
	for shard := 0; shard < 4; shard++ {
		if counts[shard] != 2 {
			t.Fatalf("round-robin shard %d owns %d landmarks: %v", shard, counts[shard], counts)
		}
	}
}

func TestJoinRoutesByLandmark(t *testing.T) {
	c := newTestCluster(t, 4)
	byPeer := populate(t, c, 64)
	if got := c.NumPeers(); got != 64 {
		t.Fatalf("NumPeers=%d", got)
	}
	for p, lm := range byPeer {
		shard, ok := c.table[lm]
		if !ok {
			t.Fatalf("no shard for landmark %d", lm)
		}
		info, err := c.shards[shard].srv.PeerInfo(p)
		if err != nil {
			t.Fatalf("peer %d not on owning shard %d: %v", p, shard, err)
		}
		if info.Landmark != lm {
			t.Fatalf("peer %d landmark %d want %d", p, info.Landmark, lm)
		}
	}
	// Sharded peers total must equal sum of per-shard populations.
	sum := 0
	for i := 0; i < c.NumShards(); i++ {
		sum += c.shards[i].srv.NumPeers()
	}
	if sum != 64 {
		t.Fatalf("per-shard sum=%d", sum)
	}
	if got := len(c.Peers()); got != 64 {
		t.Fatalf("Peers()=%d entries", got)
	}
	if lms := c.Landmarks(); !reflect.DeepEqual(lms, testLandmarks) {
		t.Fatalf("Landmarks()=%v", lms)
	}
}

func TestUnknownLandmarkAndPeer(t *testing.T) {
	c := newTestCluster(t, 2)
	if _, err := c.Join(1, []topology.NodeID{5, 999}); !errors.Is(err, server.ErrUnknownLandmark) {
		t.Fatalf("err=%v", err)
	}
	if _, err := c.Join(1, nil); err == nil {
		t.Fatal("accepted empty path")
	}
	if _, err := c.Lookup(42); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
	if err := c.Refresh(42); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
	if c.Leave(42) {
		t.Fatal("left an unknown peer")
	}
}

// TestClusterMatchesSingleServer is the core equivalence property: sharding
// must change capacity, never answers.
func TestClusterMatchesSingleServer(t *testing.T) {
	single, err := server.New(server.Config{Landmarks: testLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, 4)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		p := pathtree.PeerID(i + 1)
		lm := testLandmarks[rng.Intn(len(testLandmarks))]
		path := synthPath(lm, rng.Intn(20_000))
		a, errA := single.JoinOp(op.Join(p, path, "", 0))
		b, errB := c.Join(p, path)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("join %d: single err=%v cluster err=%v", p, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("join %d answers differ:\nsingle  %+v\ncluster %+v", p, a, b)
		}
	}
	if single.NumPeers() != c.NumPeers() {
		t.Fatalf("peers: single=%d cluster=%d", single.NumPeers(), c.NumPeers())
	}
	for _, p := range single.Peers() {
		a, errA := single.Lookup(p)
		b, errB := c.Lookup(p)
		if errA != nil || errB != nil {
			t.Fatalf("lookup %d: %v / %v", p, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("lookup %d answers differ:\nsingle  %+v\ncluster %+v", p, a, b)
		}
	}
}

func TestRejoinAcrossShards(t *testing.T) {
	c := newTestCluster(t, 4)
	lmA, lmB := testLandmarks[0], testLandmarks[1]
	shardA := c.table[lmA]
	shardB := c.table[lmB]
	if shardA == shardB {
		t.Fatal("test landmarks landed on the same shard; adjust the set")
	}
	if _, err := c.Join(1, synthPath(lmA, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(1, synthPath(lmB, 9)); err != nil {
		t.Fatal(err)
	}
	if got := c.NumPeers(); got != 1 {
		t.Fatalf("NumPeers=%d after re-join", got)
	}
	if _, err := c.shards[shardA].srv.PeerInfo(1); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatalf("stale record on old shard: err=%v", err)
	}
	info, err := c.PeerInfo(1)
	if err != nil || info.Landmark != lmB {
		t.Fatalf("info=%+v err=%v", info, err)
	}
}

func TestLeaveRefreshExpire(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, err := New(Config{
		Landmarks: testLandmarks,
		Shards:    4,
		PeerTTL:   time.Minute,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p := pathtree.PeerID(i + 1)
		if _, err := c.Join(p, synthPath(testLandmarks[i%len(testLandmarks)], i)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Leave(3) {
		t.Fatal("leave failed")
	}
	if got := c.NumPeers(); got != 15 {
		t.Fatalf("NumPeers=%d", got)
	}
	now = now.Add(2 * time.Minute)
	if err := c.Refresh(5); err != nil {
		t.Fatal(err)
	}
	expired := c.Expire()
	if len(expired) != 14 {
		t.Fatalf("expired %d peers: %v", len(expired), expired)
	}
	for i := 1; i < len(expired); i++ {
		if expired[i-1] >= expired[i] {
			t.Fatalf("expired IDs not sorted: %v", expired)
		}
	}
	if got := c.NumPeers(); got != 1 {
		t.Fatalf("NumPeers=%d after expiry", got)
	}
	if _, err := c.Lookup(5); err != nil {
		t.Fatalf("survivor lookup: %v", err)
	}
}

func TestExpireDisabledWithoutTTL(t *testing.T) {
	c := newTestCluster(t, 1)
	if _, err := c.Join(1, synthPath(testLandmarks[0], 1)); err != nil {
		t.Fatal(err)
	}
	if got := c.Expire(); got != nil {
		t.Fatalf("expiry ran without TTL: %v", got)
	}
}

func TestStatsAggregation(t *testing.T) {
	c := newTestCluster(t, 4)
	populate(t, c, 32)
	c.Leave(1)
	for p := pathtree.PeerID(2); p <= 9; p++ {
		if _, err := c.Lookup(p); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Peers != 31 {
		t.Fatalf("Peers=%d", st.Peers)
	}
	if st.Queries != 32+8 {
		t.Fatalf("Queries=%d, want 40 (32 join answers + 8 lookups)", st.Queries)
	}
	if st.Joins != 32 || st.Leaves != 1 {
		t.Fatalf("Joins=%d Leaves=%d", st.Joins, st.Leaves)
	}
}

func TestConcurrentJoinsAcrossShards(t *testing.T) {
	c := newTestCluster(t, 4)
	const workers, each = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				p := pathtree.PeerID(w*each + i + 1)
				lm := testLandmarks[rng.Intn(len(testLandmarks))]
				if _, err := c.Join(p, synthPath(lm, rng.Intn(10_000))); err != nil {
					errs <- err
					return
				}
				if _, err := c.Lookup(p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.NumPeers(); got != workers*each {
		t.Fatalf("NumPeers=%d want %d", got, workers*each)
	}
}

func TestJoinBatchAcrossShards(t *testing.T) {
	c := newTestCluster(t, 4)
	single := newTestCluster(t, 1)
	var items []op.JoinEntry
	for i := 0; i < 24; i++ {
		lm := testLandmarks[i%len(testLandmarks)]
		items = append(items, op.JoinEntry{
			Peer: pathtree.PeerID(i + 1),
			Path: synthPath(lm, i*13),
		})
	}
	res, want := new(pathtree.Answers), new(pathtree.Answers)
	c.JoinBatchInto(op.BatchJoin(items, 0), res)
	single.JoinBatchInto(op.BatchJoin(items, 0), want)
	for i := range items {
		r, w := res.Entries[i], want.Entries[i]
		if (r.Err == nil) != (w.Err == nil) {
			t.Fatalf("entry %d: err=%v want %v", i, r.Err, w.Err)
		}
		if got, want := res.Candidates(r.Lo, r.Hi), want.Candidates(w.Lo, w.Hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %d: %+v want %+v", i, got, want)
		}
	}
	if c.NumPeers() != 24 {
		t.Fatalf("peers=%d", c.NumPeers())
	}
	// Every peer must be findable through the index afterwards.
	for i := range items {
		if _, err := c.Lookup(items[i].Peer); err != nil {
			t.Fatalf("lookup %d: %v", items[i].Peer, err)
		}
	}
}

func TestJoinBatchUnknownLandmarkEntry(t *testing.T) {
	c := newTestCluster(t, 2)
	res := c.JoinBatchOp(op.BatchJoin([]op.JoinEntry{
		{Peer: 1, Path: synthPath(0, 5)},
		{Peer: 2, Path: []topology.NodeID{1, 2, 99999}},
		{Peer: 3, Path: nil},
	}, 0))
	if res[0].Err != nil {
		t.Fatalf("good entry failed: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, server.ErrUnknownLandmark) {
		t.Fatalf("entry 1 err=%v", res[1].Err)
	}
	if res[2].Err == nil {
		t.Fatal("empty path accepted")
	}
	if c.NumPeers() != 1 {
		t.Fatalf("peers=%d", c.NumPeers())
	}
}

func TestJoinBatchRejoinMovesShards(t *testing.T) {
	c := newTestCluster(t, 4)
	if _, err := c.Join(1, synthPath(0, 3)); err != nil {
		t.Fatal(err)
	}
	oldShard := c.table[0]
	newShard := c.table[100]
	if oldShard == newShard {
		t.Fatalf("landmarks 0 and 100 on the same shard; pick others")
	}
	res := c.JoinBatchOp(op.BatchJoin([]op.JoinEntry{{Peer: 1, Path: synthPath(100, 3)}}, 0))
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if c.NumPeers() != 1 {
		t.Fatalf("peers=%d", c.NumPeers())
	}
	if got := c.shards[oldShard].srv.NumPeers(); got != 0 {
		t.Fatalf("old shard still holds %d peers", got)
	}
}

// TestJoinBatchDuplicatePeerLastEntryWins pins the sequential-join
// semantics for a degenerate batch: a peer joining twice in one batch
// under landmarks owned by different shards must end up registered by its
// LAST entry, deterministically.
func TestJoinBatchDuplicatePeerLastEntryWins(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		c := newTestCluster(t, 4)
		res := c.JoinBatchOp(op.BatchJoin([]op.JoinEntry{
			{Peer: 1, Path: synthPath(0, 5)},
			{Peer: 1, Path: synthPath(100, 5)},
		}, 0))
		if res[0].Err != nil || res[1].Err != nil {
			t.Fatalf("errs: %v %v", res[0].Err, res[1].Err)
		}
		if c.NumPeers() != 1 {
			t.Fatalf("peers=%d", c.NumPeers())
		}
		info, err := c.PeerInfo(1)
		if err != nil {
			t.Fatal(err)
		}
		if info.Landmark != 100 {
			t.Fatalf("trial %d: registered under landmark %d, want the last entry's 100", trial, info.Landmark)
		}
		oldShard := c.table[0]
		if got := c.shards[oldShard].srv.NumPeers(); got != 0 {
			t.Fatalf("trial %d: first entry's shard still holds %d peers", trial, got)
		}
	}
}
