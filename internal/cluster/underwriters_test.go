package cluster

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// TestCheckpointUnderWriters checkpoints a durable 4-shard node, fsync on,
// while everything that writes runs beside it: four writers join, re-home,
// leave, refresh, flag super-peers and batch-join, and a sweeper expires
// peers. The node then
// crashes at rest (its data directory is copied) and the copy must recover
// the live state exactly, 20 times over. A checkpoint is walked one shard at
// a time while the others take writes, so it can hold ops past its mark and
// name a re-homed peer twice; the test logs how many of the recovered
// checkpoints did.
//
// Two limits keep the histories replayable. Each peer has one writer: a
// write takes its log sequence after it applies, so two writers racing on
// one peer can log in the other order than they applied. And the sweep's
// only victims are peers that no writer touches after they go stale: the
// sweeper joins each one already stale and nobody writes it again, while
// every writer's op is stamped well inside the TTL.
func TestCheckpointUnderWriters(t *testing.T) {
	const (
		iterations = 20
		writers    = 4
		owned      = 100 // peers per writer
		busy       = 100 * time.Millisecond
	)
	base := time.Unix(1_700_000_000, 0)
	now := base.Add(1000 * time.Second)
	var writes, swept, checkpoints atomic.Int64
	doubled := 0 // checkpoints that named a peer in two sections
	for it := 0; it < iterations; it++ {
		dir := t.TempDir()
		cfg := durableConfig(dir, 4)
		cfg.PeerTTL = 500 * time.Second // the sweep's deadline is base+500s
		cfg.Clock = func() time.Time { return now }
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stamp atomic.Int64 // every writer's op lands past base+600s
		fresh := func() int64 { return base.Add(600*time.Second).UnixNano() + stamp.Add(1) }
		path := func(rng *rand.Rand) []topology.NodeID {
			return synthPath(testLandmarks[rng.Intn(len(testLandmarks))], rng.Intn(5_000))
		}
		var stop atomic.Bool
		var work, side sync.WaitGroup
		fail := func(format string, args ...any) {
			t.Errorf("iteration %d: "+format, append([]any{it}, args...)...)
			stop.Store(true)
		}
		for w := 0; w < writers; w++ {
			work.Add(1)
			go func(w int) {
				defer work.Done()
				rng := rand.New(rand.NewSource(int64(it*writers + w)))
				mine := func() pathtree.PeerID { return pathtree.PeerID(1 + w + writers*rng.Intn(owned)) }
				for start := time.Now(); time.Since(start) < busy && !stop.Load(); writes.Add(1) {
					p := mine()
					switch r := rng.Intn(100); {
					case r < 30: // a join, a re-homing one whenever the landmark's shard changes
						if _, err := c.JoinOp(op.Join(p, path(rng), fmt.Sprintf("10.%d.0.%d:41", w, p%250), fresh())); err != nil {
							fail("join %d: %v", p, err)
						}
					case r < 45:
						c.Leave(p) // false when p is not registered
					case r < 60:
						if err := c.Apply(op.Refresh(p, fresh())); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
							fail("refresh %d: %v", p, err)
						}
					case r < 70:
						if err := c.SetSuperPeer(p, rng.Intn(2) == 0); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
							fail("flag %d: %v", p, err)
						}
					default:
						entries := make([]op.JoinEntry, 1+rng.Intn(8))
						for i := range entries {
							entries[i] = op.JoinEntry{Peer: mine(), Path: path(rng)}
						}
						for i, res := range c.JoinBatchOp(op.BatchJoin(entries, fresh())) {
							if res.Err != nil {
								fail("batch entry %d (peer %d): %v", i, entries[i].Peer, res.Err)
							}
						}
					}
				}
			}(w)
		}
		side.Add(2)
		go func() { // the sweeper: each round one peer joins stale and goes
			defer side.Done()
			rng := rand.New(rand.NewSource(int64(-it)))
			for k := 0; !stop.Load(); k++ {
				p := pathtree.PeerID(1_000_000 + k)
				if _, err := c.JoinOp(op.Join(p, path(rng), "", base.UnixNano())); err != nil {
					fail("stale join %d: %v", p, err)
				}
				swept.Add(int64(len(c.Expire())))
			}
		}()
		go func() { // the checkpointer
			defer side.Done()
			for !stop.Load() {
				if err := c.Checkpoint(); err != nil {
					fail("checkpoint: %v", err)
				}
				checkpoints.Add(1)
			}
		}()
		work.Wait()
		stop.Store(true)
		side.Wait()
		if t.Failed() {
			c.Close()
			return
		}

		crash := t.TempDir()
		copyDataDir(t, dir, crash)
		if namedTwice(t, crash) {
			doubled++
		}
		rcfg := cfg
		rcfg.DataDir = crash
		re, err := New(rcfg)
		if err != nil {
			t.Fatalf("iteration %d: recover: %v", it, err)
		}
		label := fmt.Sprintf("iteration %d", it)
		assertSameState(t, c, re, label)
		for _, n := range []*Cluster{c, re} {
			if err := checkIndex(n); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		re.Close()
		c.Close()
	}
	t.Logf("%d writes, %d peers swept, %d checkpoints; %d of %d recovered checkpoints named a peer twice",
		writes.Load(), swept.Load(), checkpoints.Load(), doubled, iterations)
	if swept.Load() == 0 || checkpoints.Load() == 0 {
		t.Fatal("a side loop never ran")
	}
}

// namedTwice reports whether dir holds a checkpoint that names a peer in
// two sections: restored off to the side, it holds fewer peers than its end
// frame's total, which counts every section's.
func namedTwice(t *testing.T, dir string) bool {
	t.Helper()
	f, _, ok, err := wal.OpenLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return false
	}
	defer f.Close()
	sr, err := op.NewStreamReader(f)
	if err != nil {
		t.Fatal(err)
	}
	probe := newTestCluster(t, 4)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if err := probe.ResetFromSnapshot(f); err != nil {
		t.Fatal(err)
	}
	return uint64(probe.NumPeers()) < sr.Peers
}
