package netserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// joinOp builds a wire-style join op for direct backend application.
func joinOp(peer int64, addr string, path []int32) op.Op {
	p := make([]topology.NodeID, len(path))
	for i, r := range path {
		p[i] = topology.NodeID(r)
	}
	return op.Join(pathtree.PeerID(peer), p, addr, 0)
}

// newFollowedPlane builds a durable sharded cluster behind a TCP front
// end — the followable primary of these tests.
func newFollowedPlane(t *testing.T, dir string) (*cluster.Cluster, *NetServer) {
	t.Helper()
	clu, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100},
		Shards:    2,
		DataDir:   dir,
		NoSync:    true,
		// Tiny segments so checkpoints actually retire log files and the
		// catch-up tests exercise the snapshot road, not just the tail.
		SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		clu.Close()
		t.Fatal(err)
	}
	return clu, ns
}

// newFollowerNode builds a follower fed from the primary's op stream, its
// local copy a cluster with the primary's two shards unless one is given.
func newFollowerNode(t *testing.T, primaryAddr string, after uint64, backend *cluster.Cluster) *Follower {
	t.Helper()
	if backend == nil {
		backend = newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	}
	f, err := StartFollower(FollowerConfig{
		Logger:      t.Logf,
		PrimaryAddr: primaryAddr,
		Backend:     backend,
		After:       after,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitApplied blocks until the follower has applied every op the cluster
// has committed.
func waitApplied(t *testing.T, f *Follower, clu *cluster.Cluster) {
	t.Helper()
	head := clu.CommittedHead()
	deadline := time.Now().Add(10 * time.Second)
	for f.Applied() < head {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d of %d (lag %d, last err %v)",
				f.Applied(), head, f.Lag(), f.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertSameSnapshot asserts the follower's local copy is byte-identical
// to the primary cluster's state, whatever shard count each runs: both
// serialize through the same canonical snapshot format (sorted landmarks,
// sorted peers), so equality is exact.
func assertSameSnapshot(t *testing.T, clu, follower *cluster.Cluster) {
	t.Helper()
	var want, got bytes.Buffer
	if err := clu.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := follower.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("follower state diverged from primary: primary %d peers, follower %d peers",
			clu.NumPeers(), follower.NumPeers())
	}
}

// TestFollowerConvergesUnderConcurrentWrites is the acceptance contract
// of cross-process replication: a follower process connected over TCP
// converges to the primary's exact peer set while a concurrent write
// workload (pipelined joins, leaves, refreshes from several goroutines)
// is still hammering the primary. Both are 2-shard clusters, compared by
// their snapshots' bytes and their placement.
func TestFollowerConvergesUnderConcurrentWrites(t *testing.T) {
	clu, ns := newFollowedPlane(t, t.TempDir())
	defer clu.Close()
	defer ns.Close()

	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	f := newFollowerNode(t, ns.Addr(), 0, fsrv)
	defer f.Close()

	const (
		writers       = 4
		peersPerWrite = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(ns.Addr(), 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			lm := int32(0)
			if w%2 == 1 {
				lm = 100
			}
			for i := 0; i < peersPerWrite; i++ {
				peer := int64(w*1000 + i + 1)
				path := []int32{int32(w*100 + i + 1000), lm}
				if _, err := c.Join(peer, fmt.Sprintf("10.0.%d.%d:7000", w, i), path); err != nil {
					errs <- fmt.Errorf("join %d: %w", peer, err)
					return
				}
				switch i % 4 {
				case 1:
					if err := c.Refresh(peer); err != nil {
						errs <- fmt.Errorf("refresh %d: %w", peer, err)
						return
					}
				case 3:
					if err := c.Leave(peer); err != nil {
						errs <- fmt.Errorf("leave %d: %w", peer, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	waitApplied(t, f, clu)
	assertSameSnapshot(t, clu, fsrv)
	if f.Lag() != 0 {
		t.Fatalf("converged follower reports lag %d", f.Lag())
	}
}

// TestFollowerByteIdenticalAcrossMidStreamMove commits a move record as
// older builds logged one, a super-peer flag and a TTL expiry sweep on the
// primary while concurrent writers are still streaming joins, and asserts
// the follower converges to a byte-identical copy. Every one of them rides
// the committed op stream like any other record: the move names another
// shard and leaves the landmark on the one both tables deal it, and the
// sweep — which spans both shards — lands as ONE deadline-carrying expire
// op, never as per-peer leaves, so the canonical snapshots (flags and
// refresh times included) and every landmark's shard must match exactly.
func TestFollowerByteIdenticalAcrossMidStreamMove(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(9000, 0)
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	clu, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100},
		Shards:    2,
		DataDir:   t.TempDir(),
		NoSync:    true,
		PeerTTL:   time.Minute,
		Clock:     clock,
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

	// The copy has no TTL of its own: it expires peers only through the
	// primary's expire ops.
	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	f := newFollowerNode(t, ns.Addr(), 0, fsrv)
	defer f.Close()
	var kindMu sync.Mutex
	kinds := make(map[op.Kind]int)
	f.SetApplyTap(func(_ uint64, o op.Op) {
		kindMu.Lock()
		kinds[o.Kind]++
		kindMu.Unlock()
	})

	// Six early arrivals on both landmarks, then the clock passes their
	// TTL; only peer 9001 refreshes in time.
	for p := int64(9001); p <= 9006; p++ {
		if _, err := clu.JoinOp(joinOp(p, "", []int32{int32(p), int32(p % 2 * 100)})); err != nil {
			t.Fatal(err)
		}
	}
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	if err := clu.Refresh(9001); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			lm := int32(0)
			if w%2 == 1 {
				lm = 100
			}
			for i := 0; i < 30; i++ {
				peer := int64(w*1000 + i + 1)
				o := joinOp(peer, fmt.Sprintf("10.2.%d.%d:7000", w, i), []int32{int32(w*100 + i + 3000), lm})
				if _, err := clu.JoinOp(o); err != nil {
					errs <- fmt.Errorf("join %d: %w", peer, err)
					return
				}
			}
		}(w)
	}
	close(start)
	// The move record, the flag and the sweep land mid-stream, racing the
	// writers above.
	if err := clu.Apply(op.Op{Kind: op.KindMoveLandmark, Move: op.MoveEntry{Landmark: 0, Src: 0, Dst: 1, Epoch: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := clu.SetSuperPeer(9001, true); err != nil {
		t.Fatal(err)
	}
	if expired := clu.Expire(); len(expired) != 5 {
		t.Fatalf("sweep expired %v, want the five unrefreshed early arrivals", expired)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	waitApplied(t, f, clu)
	assertSameSnapshot(t, clu, fsrv)
	if info, err := fsrv.PeerInfo(9001); err != nil || !info.SuperPeer {
		t.Fatalf("follower lost the super-peer flag: info=%+v err=%v", info, err)
	}
	if _, err := fsrv.PeerInfo(9002); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatalf("follower kept an expired peer: %v", err)
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if kinds[op.KindExpire] != 1 || kinds[op.KindLeave] != 0 {
		t.Fatalf("two-shard sweep reached the follower as %d expire ops and %d leaves, want 1 and 0",
			kinds[op.KindExpire], kinds[op.KindLeave])
	}
	if kinds[op.KindMoveLandmark] != 1 || kinds[op.KindSetSuperPeer] != 1 {
		t.Fatalf("follower applied ops by kind %v", kinds)
	}
}

// TestFollowerCatchupAfterKill kills a follower mid-stream, keeps writing,
// compacts the primary's WAL (checkpoint + truncation), and restarts the
// follower from its last applied sequence: the resume is below the log's
// retention floor, so catch-up must run snapshot + tail — and still
// converge byte-identical to the primary, every landmark on the primary's
// shard.
func TestFollowerCatchupAfterKill(t *testing.T) {
	clu, ns := newFollowedPlane(t, t.TempDir())
	defer clu.Close()
	defer ns.Close()

	join := func(peer int64, lm int32) {
		t.Helper()
		o := joinOp(peer, fmt.Sprintf("10.1.0.%d:7000", peer), []int32{int32(peer + 2000), lm})
		if _, err := clu.JoinOp(o); err != nil {
			t.Fatalf("join %d: %v", peer, err)
		}
	}
	for p := int64(1); p <= 30; p++ {
		join(p, 0)
	}

	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	f := newFollowerNode(t, ns.Addr(), 0, fsrv)
	waitApplied(t, f, clu)
	resumeAt := f.Applied()
	f.Close() // kill the follower mid-deployment

	// The primary keeps moving: more joins, some departures, then a
	// checkpoint that truncates the WAL below the follower's resume point.
	for p := int64(31); p <= 60; p++ {
		join(p, 100)
	}
	for p := int64(1); p <= 10; p++ {
		if !clu.Leave(pathtree.PeerID(p)) {
			t.Fatalf("leave %d rejected", p)
		}
	}
	if err := clu.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if floor, err := clu.CommittedFloor(); err != nil || floor <= resumeAt {
		t.Fatalf("WAL floor %d (err %v) does not force snapshot catch-up past resume %d", floor, err, resumeAt)
	}

	// Restart: same local state, resuming after what it already applied.
	// The primary must ship snapshot + tail, and the restore must replace
	// (not merge) — peers 1..10 left while the follower was down.
	f2 := newFollowerNode(t, ns.Addr(), resumeAt, fsrv)
	defer f2.Close()
	waitApplied(t, f2, clu)
	assertSameSnapshot(t, clu, fsrv)

	// A brand-new follower from scratch exercises the same snapshot road.
	f3 := newFollowerNode(t, ns.Addr(), 0, nil)
	defer f3.Close()
	waitApplied(t, f3, clu)
}

// TestOneShardFollowerOfTwoShardPrimary: no record and no checkpoint names
// an owning shard, so a follower runs a table of its own. A 1-shard copy of
// a 2-shard primary, fed while writers join, re-home between the
// landmarks' shards and leave, ends with the primary's snapshot bytes; so
// does it after a kill, more writes and a checkpoint that retires its tail,
// when it catches up from the checkpoint.
func TestOneShardFollowerOfTwoShardPrimary(t *testing.T) {
	clu, ns := newFollowedPlane(t, t.TempDir())
	defer clu.Close()
	defer ns.Close()
	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 1})

	write := func(base int64) {
		t.Helper()
		const writers = 4
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := int64(0); w < writers; w++ {
			wg.Add(1)
			go func(w int64) {
				defer wg.Done()
				for i := int64(0); i < 30; i++ {
					peer := base + w*100 + i
					lm := int32(peer % 2 * 100)
					if _, err := clu.JoinOp(joinOp(peer, fmt.Sprintf("10.3.%d.%d:7000", w, i), []int32{int32(peer + 5000), lm})); err != nil {
						errs <- fmt.Errorf("join %d: %w", peer, err)
						return
					}
					switch i % 3 {
					case 1: // re-home under the other landmark, on the primary's other shard
						if _, err := clu.JoinOp(joinOp(peer, "", []int32{int32(peer + 6000), 100 - lm})); err != nil {
							errs <- fmt.Errorf("re-join %d: %w", peer, err)
							return
						}
					case 2:
						clu.Leave(pathtree.PeerID(peer))
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	f := newFollowerNode(t, ns.Addr(), 0, fsrv)
	write(1)
	waitApplied(t, f, clu)
	assertSameSnapshot(t, clu, fsrv)
	resumeAt := f.Applied()
	f.Close()

	write(10_000)
	if err := clu.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if floor, err := clu.CommittedFloor(); err != nil || floor <= resumeAt {
		t.Fatalf("WAL floor %d (err %v) does not force snapshot catch-up past resume %d", floor, err, resumeAt)
	}
	f2 := newFollowerNode(t, ns.Addr(), resumeAt, fsrv)
	defer f2.Close()
	waitApplied(t, f2, clu)
	assertSameSnapshot(t, clu, fsrv)
}

// TestFollowerLiveStreamAndStatus checks the operational surface: a
// replica front end over the follower copy reports its replication
// position (applied/head) through MsgStatusResponse, and the durable
// primary reports snapshot seq, WAL tail, and replay time.
func TestFollowerLiveStreamAndStatus(t *testing.T) {
	clu, ns := newFollowedPlane(t, t.TempDir())
	defer clu.Close()
	defer ns.Close()

	for p := int64(1); p <= 20; p++ {
		if _, err := clu.JoinOp(joinOp(p, "", []int32{int32(p + 3000), 0})); err != nil {
			t.Fatal(err)
		}
	}
	if err := clu.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for p := int64(21); p <= 25; p++ {
		if _, err := clu.JoinOp(joinOp(p, "", []int32{int32(p + 3000), 0})); err != nil {
			t.Fatal(err)
		}
	}

	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	f := newFollowerNode(t, ns.Addr(), 0, fsrv)
	defer f.Close()
	waitApplied(t, f, clu)

	fns, err := Listen(Config{
		Addr:        "127.0.0.1:0",
		Server:      fsrv,
		Replication: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fns.Close()

	fc, err := client.Dial(fns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	st, err := fc.Status()
	if err != nil {
		t.Fatal(err)
	}
	head := clu.CommittedHead()
	if st.Role != proto.RoleReplica || st.PrimaryAddr != ns.Addr() {
		t.Fatalf("follower role %d naming primary %q, want replica naming %s", st.Role, st.PrimaryAddr, ns.Addr())
	}
	if st.Applied != head || st.Head != head {
		t.Fatalf("follower status applied=%d head=%d, want both %d", st.Applied, st.Head, head)
	}

	// Reads are served from the local copy.
	if _, err := fc.Lookup(5); err != nil {
		t.Fatalf("lookup on follower: %v", err)
	}

	pc, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pst, err := pc.Status()
	if err != nil {
		t.Fatal(err)
	}
	if pst.SnapshotSeq == 0 {
		t.Fatal("primary status reports no snapshot after a checkpoint")
	}
	if pst.WalTail != head-pst.SnapshotSeq {
		t.Fatalf("primary status WAL tail %d, want %d", pst.WalTail, head-pst.SnapshotSeq)
	}
	if pst.Head != head {
		t.Fatalf("primary status head %d, want %d", pst.Head, head)
	}
}

// TestFollowRejectedWithoutDurableLog: a non-durable backend has no
// committed stream to serve; the subscription must fail loudly instead of
// silently never delivering.
func TestFollowRejectedWithoutDurableLog(t *testing.T) {
	srv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}})
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	backend := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}})
	if _, err := StartFollower(FollowerConfig{
		PrimaryAddr: ns.Addr(),
		Backend:     backend,
		Timeout:     2 * time.Second,
	}); err == nil {
		t.Fatal("following a non-durable node succeeded; want a loud rejection")
	}
}

// TestFollowerShipsOversizedOps commits a batch-join op too large for a
// single wire frame (a maximal flash-crowd batch of long paths): the
// primary must ship it fragmented (MsgOpChunk), both on the live stream
// and on the WAL catch-up road, and the follower must reassemble it into
// the identical state.
func TestFollowerShipsOversizedOps(t *testing.T) {
	clu, ns := newFollowedPlane(t, t.TempDir())
	defer clu.Close()
	defer ns.Close()

	// Live-path follower, subscribed before the big commit.
	liveSrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	live := newFollowerNode(t, ns.Addr(), 0, liveSrv)
	defer live.Close()

	entries := make([]op.JoinEntry, op.MaxBatch)
	for i := range entries {
		path := make([]topology.NodeID, 250)
		for h := range path {
			path[h] = topology.NodeID(1_000_000 + i*300 + h)
		}
		path[len(path)-1] = 0 // terminate at landmark 0
		entries[i] = op.JoinEntry{
			Peer: pathtree.PeerID(i + 1),
			Addr: fmt.Sprintf("10.9.%d.%d:7000", i/256, i%256),
			Path: path,
		}
	}
	if rec, err := op.Encode(op.BatchJoin(entries, 1)); err != nil {
		t.Fatal(err)
	} else if len(rec) <= proto.MaxFrameSize {
		t.Fatalf("test op of %d bytes fits one frame; it must not", len(rec))
	}
	for _, r := range clu.JoinBatchOp(op.BatchJoin(entries, 0)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	waitApplied(t, live, clu)
	assertSameSnapshot(t, clu, liveSrv)

	// Catch-up follower, subscribed after: the same record comes off the
	// WAL instead of the live buffer, chunked the same way.
	lateSrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	late := newFollowerNode(t, ns.Addr(), 0, lateSrv)
	defer late.Close()
	waitApplied(t, late, clu)
	assertSameSnapshot(t, clu, lateSrv)

	// After a checkpoint the snapshot itself (256 long-path peers, several
	// hundred KB) exceeds one frame: a from-scratch follower must receive
	// it as multiple fragments and reassemble it exactly.
	if err := clu.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if floor, err := clu.CommittedFloor(); err != nil || floor <= 1 {
		t.Fatalf("WAL floor %d (err %v): checkpoint did not force the snapshot road", floor, err)
	}
	snapSrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	snapF := newFollowerNode(t, ns.Addr(), 0, snapSrv)
	defer snapF.Close()
	waitApplied(t, snapF, clu)
	assertSameSnapshot(t, clu, snapSrv)
}

// TestFollowRejectedOnReplicaRole: a replica's copy is not the source of
// truth; a follow subscription must bounce to the primary.
func TestFollowRejectedOnReplicaRole(t *testing.T) {
	_, replica, _, _ := startReplicaPair(t, 0, 100)
	backend := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	_, err := StartFollower(FollowerConfig{
		PrimaryAddr: replica.Addr(),
		Backend:     backend,
		Timeout:     2 * time.Second,
	})
	var werr *proto.Error
	if !errors.As(err, &werr) || werr.Code != proto.CodeNotPrimary {
		t.Fatalf("following a replica node: %v, want CodeNotPrimary", err)
	}
}

// TestFollowerReconnectsAfterPrimaryRestart bounces the primary's front
// end (same durable cluster, same address) and checks the follower rides
// the outage: bounded-backoff redial, resume from its acknowledged
// offset, convergence over the post-restart writes.
func TestFollowerReconnectsAfterPrimaryRestart(t *testing.T) {
	clu, ns := newFollowedPlane(t, t.TempDir())
	defer clu.Close()
	for p := int64(1); p <= 20; p++ {
		if _, err := clu.JoinOp(joinOp(p, "", []int32{int32(p + 5000), 0})); err != nil {
			t.Fatal(err)
		}
	}
	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	f := newFollowerNode(t, ns.Addr(), 0, fsrv)
	defer f.Close()
	waitApplied(t, f, clu)

	addr := ns.Addr()
	ns.Close() // the outage: every connection dies, the port frees up

	// More writes land while the follower is cut off.
	for p := int64(21); p <= 40; p++ {
		if _, err := clu.JoinOp(joinOp(p, "", []int32{int32(p + 5000), 100})); err != nil {
			t.Fatal(err)
		}
	}
	var ns2 *NetServer
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ns2, err = Listen(Config{Addr: addr, Server: clu})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer ns2.Close()
	waitApplied(t, f, clu)
	assertSameSnapshot(t, clu, fsrv)
}

// TestStalledFollowerIsBounded subscribes a raw follower that never reads
// and never acks, then commits far more records than the live buffer and
// response queue hold: the primary must stay bounded — overflowing the
// live buffer into the WAL road, blocking on the send window, and finally
// killing the stalled connection on its write deadline — while a healthy
// follower on the same hub keeps converging.
func TestStalledFollowerIsBounded(t *testing.T) {
	clu, err := cluster.New(cluster.Config{
		Landmarks:    []topology.NodeID{0, 100},
		Shards:       2,
		DataDir:      t.TempDir(),
		NoSync:       true,
		SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu, ReadTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	// The stalled subscriber: handshake, subscribe, then total silence.
	conn, err := net.Dial("tcp", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.WriteFrame(conn, proto.MsgHello, proto.EncodeHello(&proto.Hello{MaxVersion: proto.MaxVersion})); err != nil {
		t.Fatal(err)
	}
	if typ, payload, err := proto.ReadFrame(conn); err != nil || typ != proto.MsgHelloAck {
		t.Fatalf("hello ack: %d %v", typ, err)
	} else {
		proto.PutBuf(payload)
	}
	if err := proto.WriteFrameID(conn, proto.MsgFollowRequest, 1, proto.EncodeFollowRequest(&proto.FollowRequest{})); err != nil {
		t.Fatal(err)
	}
	// A second subscription on the same connection is a protocol error;
	// the rejection frame lands among the stream frames we never read.
	if err := proto.WriteFrameID(conn, proto.MsgFollowRequest, 2, proto.EncodeFollowRequest(&proto.FollowRequest{})); err != nil {
		t.Fatal(err)
	}

	// A healthy follower rides the same hub.
	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	f := newFollowerNode(t, ns.Addr(), 0, fsrv)
	defer f.Close()

	for p := int64(1); p <= 4000; p++ {
		lm := int32(0)
		if p%2 == 0 {
			lm = 100
		}
		if _, err := clu.JoinOp(joinOp(p, "", []int32{int32(p + 10_000), lm})); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, f, clu)
	assertSameSnapshot(t, clu, fsrv)
	// The stalled connection must be dead (deadline kill), not wedging the
	// server: its socket sees EOF/reset once the buffered frames drain.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1<<16)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
}

// TestStartFollowerValidation: config errors fail at start, loudly.
func TestStartFollowerValidation(t *testing.T) {
	backend := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}})
	if _, err := StartFollower(FollowerConfig{PrimaryAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("nil backend accepted")
	}
	if _, err := StartFollower(FollowerConfig{Backend: backend}); err == nil {
		t.Fatal("empty primary address accepted")
	}
	if _, err := StartFollower(FollowerConfig{
		Backend:     backend,
		PrimaryAddr: "127.0.0.1:1", // nothing listens on the reserved port
		Timeout:     time.Second,
	}); err == nil {
		t.Fatal("unreachable primary accepted")
	}
}

// newTestFollowConn fabricates a followConn over a pipe-backed wireConn,
// for unit tests of the sender's buffer and window state machine.
func newTestFollowConn(t *testing.T) (*followConn, *NetServer) {
	t.Helper()
	s := &NetServer{closed: make(chan struct{}), cfg: Config{Logger: t.Logf}}
	t.Cleanup(func() { close(s.closed) })
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	wc := &wireConn{
		Conn: c1,
		out:  make(chan outFrame, respQueueLen),
		stop: make(chan struct{}),
		dead: make(chan struct{}),
	}
	f := &followConn{
		hub:    &followHub{s: s, followers: map[*wireConn]*followConn{}},
		wc:     wc,
		id:     1,
		notify: make(chan struct{}, 1),
	}
	return f, s
}

// TestFollowConnBufferStateMachine drives offer/take through the live,
// gap, and overflow transitions without a network in the loop.
func TestFollowConnBufferStateMachine(t *testing.T) {
	f, _ := newTestFollowConn(t)
	// Caught up: empty buffer at the head means wait.
	if _, state := f.take(0); state != liveWait {
		t.Fatalf("empty buffer state %d, want liveWait", state)
	}
	// Contiguous records stream.
	f.offer(1, []byte("a"))
	f.offer(2, []byte("b"))
	recs, state := f.take(0)
	if state != liveReady || len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("take: %v %d", recs, state)
	}
	// A gap between the cursor and the buffer forces the WAL road.
	f.offer(5, []byte("e"))
	if _, state := f.take(2); state != needCatchup {
		t.Fatalf("gapped buffer state %d, want needCatchup", state)
	}
	// Records at or below the cursor are pruned, not re-shipped.
	f.offer(6, []byte("f"))
	recs, state = f.take(5)
	if state != liveReady || len(recs) != 1 || recs[0].Seq != 6 {
		t.Fatalf("pruned take: %v %d", recs, state)
	}
	// Behind the head with an empty buffer: catch up from the WAL.
	if _, state := f.take(3); state != needCatchup {
		t.Fatalf("behind-head state %d, want needCatchup", state)
	}
	// Overflow: the live buffer is bounded; the overflowed sender resyncs.
	for seq := uint64(7); seq < 7+followLiveBuf+10; seq++ {
		f.offer(seq, []byte("x"))
	}
	f.mu.Lock()
	overflowed := f.overflow
	f.mu.Unlock()
	if !overflowed {
		t.Fatal("live buffer never overflowed")
	}
	if _, state := f.take(6); state != needCatchup {
		t.Fatalf("overflow state %d, want needCatchup", state)
	}
	// A non-contiguous offer (a hole) also forces a resync.
	f.offer(100, []byte("y"))
	f.offer(200, []byte("z"))
	f.mu.Lock()
	overflowed = f.overflow
	f.mu.Unlock()
	if !overflowed {
		t.Fatal("hole in the tap stream tolerated")
	}
}

// TestFollowConnWindowBlocksUntilAck: a sender past its unacknowledged
// window must block, resume on ack, and abort when the connection dies.
func TestFollowConnWindowBlocksUntilAck(t *testing.T) {
	f, _ := newTestFollowConn(t)
	f.mu.Lock()
	f.lastSent = followWindow + 5
	f.acked = 0
	f.mu.Unlock()
	unblocked := make(chan bool, 1)
	go func() { unblocked <- f.waitWindow() }()
	select {
	case <-unblocked:
		t.Fatal("window did not block")
	case <-time.After(20 * time.Millisecond):
	}
	f.mu.Lock()
	f.acked = 6 // lastSent-acked = window-1: room again
	f.mu.Unlock()
	f.nudge()
	if ok := <-unblocked; !ok {
		t.Fatal("window wait aborted despite ack")
	}
	// A dead connection aborts the wait.
	f.mu.Lock()
	f.acked = 0
	f.mu.Unlock()
	go func() { unblocked <- f.waitWindow() }()
	close(f.wc.dead)
	if ok := <-unblocked; ok {
		t.Fatal("window wait survived a dead connection")
	}
}

// TestFollowConnTakeRespectsFrameBudget: a take never assembles a batch
// that cannot fit one frame; an oversized record travels alone.
func TestFollowConnTakeRespectsFrameBudget(t *testing.T) {
	f, _ := newTestFollowConn(t)
	big := make([]byte, proto.MaxFrameSize/2)
	f.offer(1, big)
	f.offer(2, big)
	f.offer(3, []byte("small"))
	recs, state := f.take(0)
	if state != liveReady || len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("first budgeted take: %d records state %d", len(recs), state)
	}
	recs, state = f.take(1)
	if state != liveReady || len(recs) != 2 {
		t.Fatalf("second budgeted take: %d records state %d", len(recs), state)
	}
}

// TestFollowerAccessors pins the small observability surface.
func TestFollowerAccessors(t *testing.T) {
	f := &Follower{}
	if f.Err() != nil {
		t.Fatal("fresh follower reports an error")
	}
	f.noteErr(errors.New("stream hiccup"))
	if f.Err() == nil {
		t.Fatal("noted error not reported")
	}
	f.head.Store(10)
	f.applied.Store(3)
	if f.Lag() != 7 {
		t.Fatalf("lag %d, want 7", f.Lag())
	}
	f.noteHead(4) // head never regresses
	if f.Head() != 10 {
		t.Fatalf("head regressed to %d", f.Head())
	}
}

// stubSource scripts a FollowSource for catch-up unit tests.
type stubSource struct {
	floor    uint64
	floorErr error
	readErr  error
	records  []proto.OpRecord
	snap     []byte
	snapSeq  uint64
	snapErr  error
	head     uint64
}

func (s *stubSource) SetCommitTap(func(uint64, []byte)) (uint64, bool) { return s.head, true }
func (s *stubSource) CommittedFloor() (uint64, error)                  { return s.floor, s.floorErr }
func (s *stubSource) CommittedHead() uint64                            { return s.head }
func (s *stubSource) ReadCommitted(after uint64, fn func(uint64, []byte) error) error {
	for _, r := range s.records {
		if r.Seq <= after {
			continue
		}
		if err := fn(r.Seq, r.Data); err != nil {
			return err
		}
	}
	return s.readErr
}
func (s *stubSource) CatchupSnapshot() (io.ReadCloser, uint64, error) {
	if s.snapErr != nil {
		return nil, 0, s.snapErr
	}
	return io.NopCloser(bytes.NewReader(s.snap)), s.snapSeq, nil
}

// drainFrames empties a test followConn's outgoing queue.
func drainFrames(f *followConn) []outFrame {
	var out []outFrame
	for {
		select {
		case fr := <-f.wc.out:
			out = append(out, fr)
		default:
			return out
		}
	}
}

// TestFollowConnCatchupFallsBackToSnapshot: a WAL read that dies mid-way
// (truncated underneath by a checkpoint) must fall through to the
// snapshot road and resume the cursor at the snapshot's sequence.
func TestFollowConnCatchupFallsBackToSnapshot(t *testing.T) {
	f, _ := newTestFollowConn(t)
	src := &stubSource{
		floor:   1,
		readErr: errors.New("segment vanished"),
		snap:    bytes.Repeat([]byte("snapshot"), 20_000), // > one chunk
		snapSeq: 42,
		head:    42,
	}
	f.hub.src = src
	next, ok := f.catchup(0)
	if !ok || next != 42 {
		t.Fatalf("catchup -> %d %v, want 42 true", next, ok)
	}
	frames := drainFrames(f)
	var snapBytes int
	finals := 0
	for _, fr := range frames {
		if fr.typ != proto.MsgSnapshotChunk {
			continue
		}
		m, err := proto.DecodeStreamChunk(fr.payload)
		if err != nil {
			t.Fatal(err)
		}
		snapBytes += len(m.Data)
		if m.Final {
			finals++
			if m.Seq != 42 {
				t.Fatalf("final chunk seq %d, want 42", m.Seq)
			}
		}
	}
	if finals != 1 || snapBytes != len(src.snap) {
		t.Fatalf("snapshot shipped as %d bytes, %d finals; want %d bytes, 1 final", snapBytes, finals, len(src.snap))
	}
}

// TestFollowConnCatchupTransientStall: when the WAL read makes no
// progress and the snapshot predates the cursor (an unflushed batch), the
// catch-up must report "no progress" rather than regress or fail.
func TestFollowConnCatchupTransientStall(t *testing.T) {
	f, _ := newTestFollowConn(t)
	f.hub.src = &stubSource{
		floor:   1,
		readErr: errors.New("not yet flushed"),
		snap:    []byte("old"),
		snapSeq: 5,
		head:    20,
	}
	next, ok := f.catchup(10)
	if !ok || next != 10 {
		t.Fatalf("catchup -> %d %v, want 10 true (no progress, retry later)", next, ok)
	}
}

// TestFollowConnCatchupSnapshotFailure: an unreadable snapshot makes the
// follower undeliverable; the sender must drop it, not loop.
func TestFollowConnCatchupSnapshotFailure(t *testing.T) {
	f, _ := newTestFollowConn(t)
	f.hub.src = &stubSource{
		floor:   50, // cursor below the floor: the snapshot road is forced
		snapErr: errors.New("disk gone"),
		head:    60,
	}
	if _, ok := f.catchup(1); ok {
		t.Fatal("catchup survived an unreadable snapshot")
	}
}

// TestFollowConnShipTailBatches: the WAL road batches records to the
// frame budget and reports the last shipped sequence.
func TestFollowConnShipTailBatches(t *testing.T) {
	f, _ := newTestFollowConn(t)
	src := &stubSource{floor: 1, head: 300}
	for seq := uint64(1); seq <= 300; seq++ {
		src.records = append(src.records, proto.OpRecord{Seq: seq, Data: []byte("rec")})
	}
	f.hub.src = src
	next, ok := f.catchup(0)
	if !ok || next != 300 {
		t.Fatalf("catchup -> %d %v, want 300 true", next, ok)
	}
	var got []uint64
	for _, fr := range drainFrames(f) {
		if fr.typ != proto.MsgOpRecords {
			continue
		}
		m, err := proto.DecodeOpRecords(fr.payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range m.Records {
			got = append(got, r.Seq)
		}
	}
	if len(got) != 300 || got[0] != 1 || got[299] != 300 {
		t.Fatalf("shipped %d records (first %v)", len(got), got[:min(5, len(got))])
	}
}

// TestIdleStreamHeartbeats: with no writes flowing, the primary's head
// announcements must keep the stream alive across several read-deadline
// windows on both sides — the idle deployment must not flap.
func TestIdleStreamHeartbeats(t *testing.T) {
	clu, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100},
		DataDir:   t.TempDir(),
		NoSync:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	// A short read timeout makes the heartbeat interval (ReadTimeout/3)
	// short too: one second of idling spans several heartbeat rounds.
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu, ReadTimeout: 450 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	fsrv := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0, 100}})
	f := newFollowerNode(t, ns.Addr(), 0, fsrv)
	defer f.Close()
	if _, err := clu.JoinOp(joinOp(1, "", []int32{7, 0})); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, clu)

	// Idle across several primary heartbeat rounds, condition-waited, not
	// slept: a second, raw follow connection to the same primary counts
	// head announcements — one per heartbeat interval while the stream
	// idles, each answered with an ack as a follower does — so the test
	// proceeds the moment enough rounds have demonstrably fired instead of
	// trusting a wall-clock estimate.
	heads := make(chan struct{}, 16)
	obs, err := net.Dial("tcp", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	br := bufio.NewReader(obs)
	if _, err := client.Hello(obs, br, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	obs.SetDeadline(time.Time{})
	after := clu.CommittedHead()
	if err := proto.WriteFrameID(obs, proto.MsgFollowRequest, 1, proto.EncodeFollowRequest(&proto.FollowRequest{After: after})); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			typ, _, payload, err := proto.ReadFrameID(br)
			if err != nil {
				return
			}
			proto.PutBuf(payload)
			if typ != proto.MsgFollowHead {
				continue
			}
			if proto.WriteFrameID(obs, proto.MsgOpAck, 1, proto.EncodeOpAck(&proto.OpAck{Seq: after})) != nil {
				return
			}
			select {
			case heads <- struct{}{}:
			default:
			}
		}
	}()
	for round := 0; round < 4; round++ {
		select {
		case <-heads:
		case <-time.After(10 * time.Second):
			t.Fatalf("saw only %d heartbeat rounds", round)
		}
	}

	// The stream must still be live: a fresh write arrives promptly, with
	// no reconnect having been needed.
	if _, err := clu.JoinOp(joinOp(2, "", []int32{8, 100})); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, clu)
	assertSameSnapshot(t, clu, fsrv)
	if err := f.Err(); err != nil {
		t.Fatalf("idle stream flapped: %v", err)
	}
}
