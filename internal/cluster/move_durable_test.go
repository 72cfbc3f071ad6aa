package cluster

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// copyDataDir snapshots a durable node's data directory file by file —
// the moral equivalent of the disk image left behind by kill -9. The
// copy points are quiescent with respect to the write-ahead log (the
// move hook runs on the moving goroutine, and these tests drive no
// concurrent writers), so the copy is byte-stable.
func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copy data dir: %v", err)
	}
}

// ownersOf lists the shards whose primaries hold a tree for lm.
func ownersOf(c *Cluster, lm topology.NodeID) []int {
	var owners []int
	for i := 0; i < c.NumShards(); i++ {
		for _, l := range c.Shard(i).Landmarks() {
			if l == lm {
				owners = append(owners, i)
			}
		}
	}
	return owners
}

// TestMoveLandmarkCrashAtEveryStage kills the node (kill -9 style: the
// data directory is copied at the injection point and the original
// cluster abandoned) at every observable stage of a landmark handoff and
// reopens from the copy. Whatever the stage, recovery must land on
// exactly one owner with zero lost peers and unchanged answers: stages
// before the WAL commit recover the pre-move ownership, the stage after
// it recovers the post-move ownership. This is the regression test for
// the headline bug — the checkpoint restore re-dealing trees by the configured
// table, silently undoing completed moves and replaying the WAL tail
// against the wrong owner.
func TestMoveLandmarkCrashAtEveryStage(t *testing.T) {
	stages := []struct {
		name    string
		stage   moveStage
		wantDst bool
	}{
		{"post-handoff", moveStageHandoff, false},
		{"post-table-flip", moveStageFlip, false},
		{"post-commit", moveStageCommit, true},
	}
	for _, tc := range stages {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(durableConfig(dir, 4))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				p := pathtree.PeerID(i + 1)
				lm := testLandmarks[i%len(testLandmarks)]
				if _, err := c.JoinOp(op.Join(p, synthPath(lm, i), fmt.Sprintf("10.9.0.%d:41", i), 0)); err != nil {
					t.Fatalf("join %d: %v", p, err)
				}
			}
			want := captureAnswers(t, c)
			lm := testLandmarks[2]
			src, _ := c.ShardFor(lm)
			dst := (src + 1) % c.NumShards()

			killDir := t.TempDir()
			c.moveHook = func(s moveStage) {
				if s == tc.stage {
					copyDataDir(t, dir, killDir)
				}
			}
			if err := c.MoveLandmark(lm, dst); err != nil {
				t.Fatal(err)
			}
			c.moveHook = nil

			re, err := New(durableConfig(killDir, 4))
			if err != nil {
				t.Fatalf("reopen from crash image: %v", err)
			}
			defer re.Close()

			wantOwner := src
			if tc.wantDst {
				wantOwner = dst
			}
			if got, ok := re.ShardFor(lm); !ok || got != wantOwner {
				t.Fatalf("recovered table places landmark %d on shard %d, want %d", lm, got, wantOwner)
			}
			if owners := ownersOf(re, lm); len(owners) != 1 || owners[0] != wantOwner {
				t.Fatalf("recovered with owners %v of landmark %d, want exactly [%d]", owners, lm, wantOwner)
			}
			if got := re.NumPeers(); got != len(want.peers) {
				t.Fatalf("recovered %d peers, want %d (crash mid-handoff lost peers)", got, len(want.peers))
			}
			assertSameAnswers(t, want, captureAnswers(t, re), tc.name)
			if tc.wantDst {
				if got := re.Epoch(lm); got != 1 {
					t.Fatalf("recovered epoch %d, want 1", got)
				}
			}
			// The recovered node keeps accepting writes for the landmark.
			if _, err := re.Join(9999, synthPath(lm, 555)); err != nil {
				t.Fatalf("join after recovery: %v", err)
			}
		})
	}
}

// TestMoveSurvivesCheckpointAndRestart covers the checkpointed half of
// recovery: after a completed move and a checkpoint, the reopened node
// must adopt the checkpoint's own table — not the configured assignment —
// so the move stays in effect even with an empty WAL tail.
func TestMoveSurvivesCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		p := pathtree.PeerID(i + 1)
		lm := testLandmarks[i%len(testLandmarks)]
		if _, err := c.JoinOp(op.Join(p, synthPath(lm, i), "", 0)); err != nil {
			t.Fatal(err)
		}
	}
	lm := testLandmarks[1]
	src, _ := c.ShardFor(lm)
	dst := (src + 2) % c.NumShards()
	if err := c.MoveLandmark(lm, dst); err != nil {
		t.Fatal(err)
	}
	want := captureAnswers(t, c)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c = nil // crash after the checkpoint

	re, err := New(durableConfig(dir, 4))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got, _ := re.ShardFor(lm); got != dst {
		t.Fatalf("checkpointed move reverted: landmark %d on shard %d, want %d", lm, got, dst)
	}
	if got := re.Epoch(lm); got != 1 {
		t.Fatalf("recovered epoch %d, want 1", got)
	}
	assertSameAnswers(t, want, captureAnswers(t, re), "after checkpoint restart")
}

// TestStaleEpochFencing moves a landmark twice and checks the fence: a
// write stamped with the post-first-move epoch succeeds while that epoch
// is current, and is rejected loudly (server.ErrStaleEpoch) after the
// second move deposes it. Unfenced writes (epoch zero) always pass —
// compatibility for writers that predate epochs.
func TestStaleEpochFencing(t *testing.T) {
	c := newTestCluster(t, 4)
	lm := testLandmarks[3]
	src, _ := c.ShardFor(lm)
	if err := c.MoveLandmark(lm, (src+1)%c.NumShards()); err != nil {
		t.Fatal(err)
	}
	epoch1 := c.Epoch(lm)
	if epoch1 != 1 {
		t.Fatalf("epoch after first move = %d, want 1", epoch1)
	}
	// The move op was applied to the new owner, not just the table.
	if got := c.Shard((src + 1) % c.NumShards()).Epoch(lm); got != 1 {
		t.Fatalf("destination shard fences at epoch %d, want 1", got)
	}

	fenced := op.Join(1, synthPath(lm, 10), "", 0)
	fenced.Epoch = epoch1
	if _, err := c.JoinOp(fenced); err != nil {
		t.Fatalf("current-epoch fenced join rejected: %v", err)
	}

	if err := c.MoveLandmark(lm, src); err != nil {
		t.Fatal(err)
	}
	if got := c.Epoch(lm); got != 2 {
		t.Fatalf("epoch after second move = %d, want 2", got)
	}
	stale := op.Join(2, synthPath(lm, 11), "", 0)
	stale.Epoch = epoch1
	if _, err := c.JoinOp(stale); !errors.Is(err, server.ErrStaleEpoch) {
		t.Fatalf("stale-epoch join returned %v, want server.ErrStaleEpoch", err)
	}
	if _, err := c.Lookup(2); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatal("rejected stale write still registered the peer")
	}

	unfenced := op.Join(3, synthPath(lm, 12), "", 0)
	if _, err := c.JoinOp(unfenced); err != nil {
		t.Fatalf("unfenced join rejected: %v", err)
	}
}

// TestMoveFreezeIsScopedToShardPair: while a handoff between two shards is
// held open — the tree handed over, the table not yet flipped — writes
// routed to an uninvolved shard must complete. A freeze that spanned the
// whole cluster would deadlock here (the join waits on the frozen node, the
// test waits on the join, the move waits on the test).
func TestMoveFreezeIsScopedToShardPair(t *testing.T) {
	c := newTestCluster(t, 4)
	populate(t, c, 32)
	lm := testLandmarks[0]
	src, _ := c.ShardFor(lm)
	dst := (src + 1) % c.NumShards()
	// A landmark owned by neither side of the move.
	var bystander = testLandmarks[2]
	if s, _ := c.ShardFor(bystander); s == src || s == dst {
		t.Fatalf("test landmark layout changed: bystander on shard %d (move %d->%d)", s, src, dst)
	}

	holdPoint := make(chan struct{})
	release := make(chan struct{})
	c.moveHook = func(s moveStage) {
		if s == moveStageHandoff {
			close(holdPoint)
			<-release
		}
	}
	moveDone := make(chan error, 1)
	go func() { moveDone <- c.MoveLandmark(lm, dst) }()
	<-holdPoint // the move is held after its handoff returned, holding no lock

	joined := make(chan error, 1)
	go func() {
		_, err := c.Join(777, synthPath(bystander, 99))
		joined <- err
	}()
	// The bystander join must complete while the move is frozen. No
	// timeout: if the freeze still spans the whole cluster this blocks
	// forever and the test fails by deadline — the unambiguous signal.
	if err := <-joined; err != nil {
		t.Fatalf("bystander join during frozen move: %v", err)
	}
	close(release)
	if err := <-moveDone; err != nil {
		t.Fatal(err)
	}
	if got, _ := c.ShardFor(lm); got != dst {
		t.Fatalf("move landed on shard %d, want %d", got, dst)
	}
}

// TestRebalanceFillsEmptyShard is the elastic-resharding acceptance: a
// cluster whose landmarks all sit on one shard (an empty elastic shard
// beside it) rebalances automatically — the empty shard absorbs load
// through fenced handoffs — with zero lost peers and identical lookups.
func TestRebalanceFillsEmptyShard(t *testing.T) {
	c := newTestCluster(t, 2)
	for _, lm := range testLandmarks {
		if shard, _ := c.ShardFor(lm); shard != 0 {
			if err := c.MoveLandmark(lm, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	populate(t, c, 96)
	want := captureAnswers(t, c)
	if got := c.Shard(1).NumPeers(); got != 0 {
		t.Fatalf("elastic shard starts with %d peers, want 0", got)
	}

	moves, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("rebalancer left a maximally skewed cluster alone")
	}
	if got := c.Shard(1).NumPeers(); got == 0 {
		t.Fatal("elastic shard still empty after rebalance")
	}
	if got := c.NumPeers(); got != len(want.peers) {
		t.Fatalf("rebalance lost peers: %d, want %d", got, len(want.peers))
	}
	spread := c.Shard(0).NumPeers() - c.Shard(1).NumPeers()
	if spread < 0 {
		spread = -spread
	}
	// The greedy planner stops when no single landmark move can narrow
	// the spread; with 8 similar landmarks it must get close to even.
	if spread > c.NumPeers()/2 {
		t.Fatalf("rebalance left spread %d over %d peers", spread, c.NumPeers())
	}
	assertSameAnswers(t, want, captureAnswers(t, c), "after rebalance")

	// A second pass finds nothing to do: the planner strictly improves or
	// stops, so a balanced cluster is left untouched.
	again, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("rebalance of a balanced cluster made %d moves", again)
	}
}
