package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
)

// BenchmarkHandoff measures one fenced landmark handoff of a 10k-peer tree
// while concurrent writers keep joining peers under the other landmarks.
// The handoff pauses only the source's and destination's writers, for the
// instant the tree changes hands, so the bystander writers should stay
// mostly unimpeded; ns/op is the wall-clock cost of waiting out the two
// servers' writes in flight, handing the tree over, and committing the move
// — none of it depends on the tree's population.
func BenchmarkHandoff(b *testing.B) {
	const treePeers = 10_000
	c, err := New(Config{Landmarks: testLandmarks, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	lm := testLandmarks[0]
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < treePeers; i++ {
		if _, err := c.Join(pathtree.PeerID(i+1), synthPath(lm, rng.Intn(200_000))); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	var next atomic.Int64
	next.Store(1_000_000)
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			wrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				other := testLandmarks[1+wrng.Intn(len(testLandmarks)-1)]
				if _, err := c.Join(pathtree.PeerID(next.Add(1)), synthPath(other, wrng.Intn(200_000))); err != nil {
					return
				}
			}
		}(int64(w))
	}
	src, ok := c.ShardFor(lm)
	if !ok {
		b.Fatalf("landmark %d has no shard", lm)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := (src + 1) % 4
		if err := c.MoveLandmark(lm, dst); err != nil {
			b.Fatal(err)
		}
		src = dst
	}
	b.StopTimer()
	close(stop)
	writers.Wait()
	b.ReportMetric(treePeers, "peers/handoff")
}

func TestMoveLandmarkValidation(t *testing.T) {
	c := newTestCluster(t, 4)
	if err := c.MoveLandmark(999, 0); err == nil {
		t.Fatal("moved unknown landmark")
	}
	if err := c.MoveLandmark(testLandmarks[0], 99); err == nil {
		t.Fatal("moved to out-of-range shard")
	}
	src, _ := c.ShardFor(testLandmarks[0])
	if err := c.MoveLandmark(testLandmarks[0], src); err != nil {
		t.Fatalf("self-move errored: %v", err)
	}
}

func TestMoveLandmarkPreservesPeers(t *testing.T) {
	c := newTestCluster(t, 4)
	byPeer := populate(t, c, 96)
	lm := testLandmarks[2]
	src, _ := c.ShardFor(lm)
	dst := (src + 1) % c.NumShards()

	before := make(map[pathtree.PeerID][]pathtree.Candidate)
	for p := range byPeer {
		ans, err := c.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		before[p] = ans
	}
	numBefore := c.NumPeers()

	if err := c.MoveLandmark(lm, dst); err != nil {
		t.Fatal(err)
	}

	if got, _ := c.ShardFor(lm); got != dst {
		t.Fatalf("landmark on shard %d want %d", got, dst)
	}
	if got := c.NumPeers(); got != numBefore {
		t.Fatalf("NumPeers=%d want %d (handoff lost peers)", got, numBefore)
	}
	for _, srcLM := range c.Shard(src).Landmarks() {
		if srcLM == lm {
			t.Fatal("source shard still lists the moved landmark")
		}
	}
	for p := range byPeer {
		ans, err := c.Lookup(p)
		if err != nil {
			t.Fatalf("lookup %d after handoff: %v", p, err)
		}
		if !reflect.DeepEqual(ans, before[p]) {
			t.Fatalf("lookup %d changed across handoff:\nbefore %+v\nafter  %+v", p, before[p], ans)
		}
	}
	// Moved peers must be fully owned by the destination: joins for the
	// landmark now land there.
	if _, err := c.Join(1000, synthPath(lm, 77)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Shard(dst).PeerInfo(1000); err != nil {
		t.Fatalf("new joiner not on destination shard: %v", err)
	}
}

// TestMoveLandmarkUnderLiveJoins is the no-dropped-joins property: peers
// keep joining the moving landmark throughout the handoff and every one of
// them must be registered afterwards.
func TestMoveLandmarkUnderLiveJoins(t *testing.T) {
	c := newTestCluster(t, 4)
	lm := testLandmarks[5]
	src, _ := c.ShardFor(lm)
	dst := (src + 2) % c.NumShards()

	var (
		stop   atomic.Bool
		joined atomic.Int64
		wg     sync.WaitGroup
		errCh  = make(chan error, 4)
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load(); i++ {
				p := pathtree.PeerID(1 + w*1_000_000 + i)
				if _, err := c.Join(p, synthPath(lm, rng.Intn(30_000))); err != nil {
					errCh <- err
					return
				}
				joined.Add(1)
			}
		}(w)
	}
	// Bounce the landmark between the two shards while joins are in flight,
	// pacing each round so joins interleave with the transfers.
	for round := 0; round < 6; round++ {
		target := joined.Load() + 50
		for joined.Load() < target {
			runtime.Gosched()
		}
		to := dst
		if round%2 == 1 {
			to = src
		}
		if err := c.MoveLandmark(lm, to); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if joined.Load() == 0 {
		t.Fatal("no joins completed during the handoffs")
	}
	if got := int64(c.NumPeers()); got != joined.Load() {
		t.Fatalf("NumPeers=%d but %d peers joined (handoff lost or duplicated peers)", got, joined.Load())
	}
	// Every joined peer must be findable and owned by exactly one shard.
	owners := 0
	for i := 0; i < c.NumShards(); i++ {
		owners += c.Shard(i).NumPeers()
	}
	if int64(owners) != joined.Load() {
		t.Fatalf("per-shard population %d want %d", owners, joined.Load())
	}
	for _, p := range c.Peers() {
		if _, err := c.Lookup(p); err != nil {
			t.Fatalf("lookup %d after handoffs: %v", p, err)
		}
	}
}

func TestMoveLandmarkWithConcurrentLeaves(t *testing.T) {
	c := newTestCluster(t, 2)
	lm := testLandmarks[0]
	for i := 0; i < 200; i++ {
		if _, err := c.Join(pathtree.PeerID(i+1), synthPath(lm, i)); err != nil {
			t.Fatal(err)
		}
	}
	src, _ := c.ShardFor(lm)
	dst := 1 - src
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c.Leave(pathtree.PeerID(i + 1))
		}
	}()
	if err := c.MoveLandmark(lm, dst); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The 100 leavers must stay gone; the 100 stayers must all survive.
	if got := c.NumPeers(); got != 100 {
		t.Fatalf("NumPeers=%d want 100", got)
	}
	for i := 100; i < 200; i++ {
		if _, err := c.Lookup(pathtree.PeerID(i + 1)); err != nil {
			t.Fatalf("stayer %d lost: %v", i+1, err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Lookup(pathtree.PeerID(i + 1)); !errors.Is(err, server.ErrUnknownPeer) {
			t.Fatalf("leaver %d resurrected: err=%v", i+1, err)
		}
	}
}

func TestClusterSnapshotRestorable(t *testing.T) {
	c := newTestCluster(t, 4)
	populate(t, c, 48)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newTestCluster(t, 4)
	if err := restored.ResetFromSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.NumPeers() != c.NumPeers() {
		t.Fatalf("restored peers=%d want %d", restored.NumPeers(), c.NumPeers())
	}
	if !reflect.DeepEqual(restored.Landmarks(), c.Landmarks()) {
		t.Fatalf("restored landmarks=%v want %v", restored.Landmarks(), c.Landmarks())
	}
	for _, p := range c.Peers() {
		a, err := c.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("lookup %d differs after restore", p)
		}
	}
}
