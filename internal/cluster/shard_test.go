package cluster

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
)

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
	shard := c.table[lm]
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
