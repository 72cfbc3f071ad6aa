package cluster

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// join is a typed wrapper over the shard's single applyOp write path,
// pre-stamped the way the cluster layer stamps live ops.
func (g *shard) join(p pathtree.PeerID, path []topology.NodeID) ([]pathtree.Candidate, error) {
	res, err := g.applyOp(op.Join(p, path, "", time.Now().UnixNano()), false)
	return res.cands, err
}

// TestReconcileMoved covers the handoff reconciliation arms directly: a
// stale absorbed record is retired, a record re-pointed at this shard by
// the index survives, and a record under a different landmark is ignored.
func TestReconcileMoved(t *testing.T) {
	cfg := Config{Landmarks: []topology.NodeID{0, 100}}
	g, err := newShard(cfg.Landmarks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := newPeerIndex()
	if _, err := g.join(1, synthPath(0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.join(2, synthPath(100, 5)); err != nil {
		t.Fatal(err)
	}
	// Peer 1: index says it lives on shard 3, not here (shard 0) — the
	// absorbed record is stale and must be retired.
	idx.swap(1, 3)
	g.reconcileMoved(1, 0, idx, 0)
	if g.srv.NumPeers() != 1 {
		t.Fatal("stale record not retired")
	}
	// Peer 2 under landmark 0? Registered under 100: ignored.
	g.reconcileMoved(2, 0, idx, 0)
	if g.srv.NumPeers() != 1 {
		t.Fatal("record under another landmark was retired")
	}
	// Peer 2 with the index pointing here: the live record wins.
	idx.swap(2, 0)
	g.reconcileMoved(2, 100, idx, 0)
	if g.srv.NumPeers() != 1 {
		t.Fatal("live record was retired")
	}
}

// TestSetSuperPeerPropagates flags a peer through the cluster API: the
// flag lands on the shard holding the peer, and an unknown peer is refused.
func TestSetSuperPeerPropagates(t *testing.T) {
	c := newTestCluster(t, 2)
	populate(t, c, 16)
	if err := c.SetSuperPeer(1, true); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSuperPeer(999, true); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
	info, err := c.PeerInfo(1)
	if err != nil || !info.SuperPeer {
		t.Fatalf("super-peer flag lost: info=%+v err=%v", info, err)
	}
	if err := c.SetSuperPeer(1, false); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJoinsMatchSerial: nothing above the server serialises a
// shard's writers, and they need nothing to: 16 goroutines joining into one
// shard leave exactly the state a serial run of the same joins leaves.
func TestConcurrentJoinsMatchSerial(t *testing.T) {
	const workers, each = 16, 200
	lm := testLandmarks[0]
	join := func(c *Cluster, i int) {
		o := op.Join(pathtree.PeerID(i+1), synthPath(lm, i), "", 1)
		if _, err := c.JoinOp(o); err != nil {
			t.Error(err)
		}
	}
	c := newTestCluster(t, 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for i := first; i < first+each; i++ {
				join(c, i)
			}
		}(w * each)
	}
	wg.Wait()
	shard, _ := c.ShardFor(lm)
	if applies := int(c.shards[shard].applies.Value()); applies != workers*each {
		t.Fatalf("%d applies, want %d", applies, workers*each)
	}

	serial := newTestCluster(t, 2)
	for i := 0; i < workers*each; i++ {
		join(serial, i)
	}
	var want, got bytes.Buffer
	if err := serial.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("concurrent run's state differs from the serial run's")
	}
}
