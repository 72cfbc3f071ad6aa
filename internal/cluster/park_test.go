package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// parkAcrossMove runs write with the request parked between its routing and
// its apply — the first time it resolves the owner of lm — while lm is
// handed to the next shard, and returns the write's error. Nothing holds the
// owner across that gap, so the move completes while the write is parked;
// the write, released, finds the tree gone and must route again.
func parkAcrossMove(t *testing.T, c *Cluster, lm topology.NodeID, write func() error) error {
	t.Helper()
	parked, release := make(chan struct{}), make(chan struct{})
	armed := true
	c.routeHook = func(at topology.NodeID) {
		if at == lm && armed {
			armed = false
			close(parked)
			<-release
		}
	}
	defer func() { c.routeHook = nil }()
	done := make(chan error, 1)
	go func() { done <- write() }()
	<-parked
	src, _ := c.ShardFor(lm)
	if err := c.MoveLandmark(lm, (src+1)%c.NumShards()); err != nil {
		t.Fatal(err)
	}
	close(release)
	return <-done
}

// TestWriteParkedAcrossHandoff parks each kind of write between its routing
// and its apply while its landmark changes shards: a join, an entry of an
// answered batch, a leave, a refresh, a super-peer flag, an entry of a batch
// applied quietly through Apply (whose server-side batch skips an entry
// whose tree it does not hold), and the retirement of the record a
// re-homing join orphaned under the moving landmark. Each applies exactly
// once, on the landmark's new owner, and leaves no record behind in the
// moved tree; a write fenced at the landmark's epoch before the move is
// refused with ErrStaleEpoch. A crash at rest then recovers the same state,
// every write replayed on the new owner.
func TestWriteParkedAcrossHandoff(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lm, other := testLandmarks[2], testLandmarks[5]
	from, _ := c.ShardFor(lm)
	if to, _ := c.ShardFor(other); to == from {
		t.Fatalf("landmarks %d and %d share shard %d", lm, other, to)
	}
	for p := pathtree.PeerID(1); p <= 40; p++ {
		at := lm
		if p%2 == 0 {
			at = other
		}
		if _, err := c.JoinOp(op.Join(p, synthPath(at, int(p)), fmt.Sprintf("10.0.0.%d:41", p), 0)); err != nil {
			t.Fatal(err)
		}
	}
	const at = int64(1_800_000_000) * int64(time.Second)
	// onOwner fails unless p is registered under lm on lm's owner.
	onOwner := func(t *testing.T, c *Cluster, p pathtree.PeerID) server.PeerInfo {
		t.Helper()
		owner, _ := c.ShardFor(lm)
		info, err := c.Shard(owner).PeerInfo(p)
		if err != nil || info.Landmark != lm {
			t.Fatalf("peer %d on landmark %d's owner, shard %d: %+v, %v", p, lm, owner, info, err)
		}
		return info
	}
	cases := []struct {
		name                 string
		write                func() error
		joins, leaves, peers int // how each counter moves: exactly once
		check                func(t *testing.T, c *Cluster)
	}{
		{"join", func() error {
			_, err := c.JoinOp(op.Join(101, synthPath(lm, 101), "10.0.1.1:41", 0))
			return err
		}, 1, 0, 1, func(t *testing.T, c *Cluster) { onOwner(t, c, 101) }},
		{"batch entry", func() error {
			for _, res := range c.JoinBatchOp(op.BatchJoin([]op.JoinEntry{
				{Peer: 102, Path: synthPath(other, 102)},
				{Peer: 103, Addr: "10.0.1.3:41", Path: synthPath(lm, 103)},
			}, 0)) {
				if res.Err != nil {
					return res.Err
				}
			}
			return nil
		}, 2, 0, 2, func(t *testing.T, c *Cluster) { onOwner(t, c, 103) }},
		{"leave", func() error { return c.Apply(op.Leave(1)) }, 0, 1, -1, func(t *testing.T, c *Cluster) {
			if _, err := c.PeerInfo(1); !errors.Is(err, server.ErrUnknownPeer) {
				t.Fatalf("peer 1 after its leave: %v", err)
			}
		}},
		{"refresh", func() error { return c.Apply(op.Refresh(3, at)) }, 0, 0, 0, func(t *testing.T, c *Cluster) {
			if info := onOwner(t, c, 3); info.LastRefresh.UnixNano() != at {
				t.Fatalf("peer 3 refreshed at %v, want %d", info.LastRefresh, at)
			}
		}},
		{"super-peer flag", func() error { return c.SetSuperPeer(5, true) }, 0, 0, 0, func(t *testing.T, c *Cluster) {
			if !onOwner(t, c, 5).SuperPeer {
				t.Fatal("peer 5 not flagged")
			}
		}},
		{"quiet batch entry", func() error {
			return c.Apply(op.BatchJoin([]op.JoinEntry{
				{Peer: 104, Path: synthPath(lm, 104)},
				{Peer: 105, Path: synthPath(other, 105)},
				{Peer: 106, Addr: "10.0.1.6:41", Path: synthPath(lm, 106)},
			}, at))
		}, 3, 0, 3, func(t *testing.T, c *Cluster) {
			onOwner(t, c, 104)
			onOwner(t, c, 106)
		}},
		{"re-homing join's orphan", func() error {
			// Peer 7 leaves lm for other: the join routes by other, and the
			// record it orphans under lm is retired by lm's route, the one
			// parked.
			_, err := c.JoinOp(op.Join(7, synthPath(other, 7), "10.0.0.77:41", 0))
			return err
		}, 1, 0, 0, func(t *testing.T, c *Cluster) {
			records := 0
			for i := 0; i < c.NumShards(); i++ {
				for _, p := range c.Shard(i).Peers() {
					if p == 7 {
						records++
					}
				}
			}
			if records != 1 {
				t.Fatalf("%d records of peer 7: the moved tree kept its old one", records)
			}
			if info, err := c.PeerInfo(7); err != nil || info.Landmark != other {
				t.Fatalf("peer 7 after re-homing: %+v, %v", info, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, peers, epoch := c.Stats(), c.NumPeers(), c.Epoch(lm)
			if err := parkAcrossMove(t, c, lm, tc.write); err != nil {
				t.Fatal(err)
			}
			after := c.Stats()
			if c.Epoch(lm) != epoch+1 {
				t.Fatalf("landmark %d at epoch %d after one move from %d", lm, c.Epoch(lm), epoch)
			}
			if j, l, n := after.Joins-before.Joins, after.Leaves-before.Leaves, c.NumPeers()-peers; j != tc.joins || l != tc.leaves || n != tc.peers {
				t.Fatalf("%d joins, %d leaves, %+d peers; want %d, %d, %+d", j, l, n, tc.joins, tc.leaves, tc.peers)
			}
			tc.check(t, c)
			if err := checkIndex(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("fenced at the old epoch", func(t *testing.T) {
		fenced := op.Join(108, synthPath(lm, 108), "", 0)
		fenced.Epoch = c.Epoch(lm)
		err := parkAcrossMove(t, c, lm, func() error { _, err := c.JoinOp(fenced); return err })
		if !errors.Is(err, server.ErrStaleEpoch) {
			t.Fatalf("a join fenced at the epoch before the move: %v, want ErrStaleEpoch", err)
		}
		if _, err := c.PeerInfo(108); !errors.Is(err, server.ErrUnknownPeer) {
			t.Fatalf("the refused join registered its peer: %v", err)
		}
	})
	if t.Failed() {
		return
	}

	crash := t.TempDir()
	copyDataDir(t, dir, crash)
	re, err := New(durableConfig(crash, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameState(t, c, re, "recovered")
	for _, p := range []pathtree.PeerID{3, 5, 101, 103, 104, 106} {
		onOwner(t, re, p)
	}
	if err := checkIndex(re); err != nil {
		t.Fatal(err)
	}
}
