package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// durableConfig builds a durable test config over the shared landmark set.
func durableConfig(dir string, shards int) Config {
	return Config{
		Landmarks: testLandmarks,
		Shards:    shards,
		DataDir:   dir,
	}
}

// clusterAnswers captures everything a client could observe: the peer
// set, each peer's record, and each peer's closest-peers answer.
type clusterAnswers struct {
	peers []pathtree.PeerID
	infos map[pathtree.PeerID]server.PeerInfo
	cands map[pathtree.PeerID][]pathtree.Candidate
}

func captureAnswers(t *testing.T, c *Cluster) clusterAnswers {
	t.Helper()
	a := clusterAnswers{
		peers: c.Peers(),
		infos: make(map[pathtree.PeerID]server.PeerInfo),
		cands: make(map[pathtree.PeerID][]pathtree.Candidate),
	}
	for _, p := range a.peers {
		info, err := c.PeerInfo(p)
		if err != nil {
			t.Fatalf("PeerInfo(%d): %v", p, err)
		}
		a.infos[p] = info
		cands, err := c.Lookup(p)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", p, err)
		}
		a.cands[p] = cands
	}
	return a
}

func assertSameAnswers(t *testing.T, want, got clusterAnswers, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.peers, got.peers) {
		t.Fatalf("%s: peer sets differ:\n want %v\n got  %v", label, want.peers, got.peers)
	}
	for _, p := range want.peers {
		if !reflect.DeepEqual(want.infos[p], got.infos[p]) {
			t.Errorf("%s: PeerInfo(%d) differs:\n want %+v\n got  %+v", label, p, want.infos[p], got.infos[p])
		}
		if !reflect.DeepEqual(want.cands[p], got.cands[p]) {
			t.Errorf("%s: Lookup(%d) differs:\n want %v\n got  %v", label, p, want.cands[p], got.cands[p])
		}
	}
}

// runWorkload drives every op kind through the cluster: singular and
// batched joins (with overlay addresses), re-joins under new landmarks,
// leaves, refreshes, and super-peer flags.
func runWorkload(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; i < 48; i++ {
		p := pathtree.PeerID(i + 1)
		lm := testLandmarks[i%len(testLandmarks)]
		if i%3 == 0 {
			if _, err := c.JoinOp(op.Join(p, synthPath(lm, i), fmt.Sprintf("10.0.0.%d:41", i), 0)); err != nil {
				t.Fatalf("join %d: %v", p, err)
			}
			continue
		}
		if _, err := c.Join(p, synthPath(lm, i)); err != nil {
			t.Fatalf("join %d: %v", p, err)
		}
	}
	// A batch with addresses, including a re-join that moves peer 2 to a
	// different landmark's shard.
	var entries []op.JoinEntry
	for i := 0; i < 8; i++ {
		entries = append(entries, op.JoinEntry{
			Peer: pathtree.PeerID(100 + i),
			Addr: fmt.Sprintf("10.1.0.%d:41", i),
			Path: synthPath(testLandmarks[(i+3)%len(testLandmarks)], 60+i),
		})
	}
	entries = append(entries, op.JoinEntry{Peer: 2, Path: synthPath(testLandmarks[5], 70)})
	for _, res := range c.JoinBatchOp(op.BatchJoin(entries, 0)) {
		if res.Err != nil {
			t.Fatalf("batch join: %v", res.Err)
		}
	}
	for p := pathtree.PeerID(1); p <= 10; p++ {
		if err := c.Refresh(p); err != nil {
			t.Fatalf("refresh %d: %v", p, err)
		}
	}
	if err := c.SetSuperPeer(7, true); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSuperPeer(8, true); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSuperPeer(8, false); err != nil {
		t.Fatal(err)
	}
	for p := pathtree.PeerID(40); p <= 44; p++ {
		if !c.Leave(p) {
			t.Fatalf("leave %d failed", p)
		}
	}
}

// TestCrashRecoveryExactState is the headline durability contract: a node
// that crashed without any shutdown flush (the WAL is simply abandoned
// mid-workload, kill -9 style) reopens from its data directory and serves
// the exact peer set and the exact answers it acknowledged — across
// one-shard and sharded planes.
func TestCrashRecoveryExactState(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(durableConfig(dir, shards))
			if err != nil {
				t.Fatal(err)
			}
			runWorkload(t, c)
			want := captureAnswers(t, c)
			// Crash: no Close, no final snapshot — the cluster object is
			// abandoned with its WAL mid-life.
			c = nil

			re, err := New(durableConfig(dir, shards))
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer re.Close()
			assertSameAnswers(t, want, captureAnswers(t, re), "after crash")
			if got := re.NumPeers(); got != len(want.peers) {
				t.Fatalf("peer index rebuilt with %d entries, want %d", got, len(want.peers))
			}
			// The recovered node keeps serving writes.
			if _, err := re.Join(999, synthPath(testLandmarks[0], 99)); err != nil {
				t.Fatalf("join after recovery: %v", err)
			}
		})
	}
}

// TestCrashRecoveryMatchesUninterruptedRun feeds the identical workload
// to a durable plane (which then crashes and recovers) and to a plain
// in-memory control, under the same injected clock: the recovered node's
// answers must be indistinguishable from the run that never crashed.
func TestCrashRecoveryMatchesUninterruptedRun(t *testing.T) {
	now := time.Unix(5000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
	dir := t.TempDir()
	cfgDurable := durableConfig(dir, 4)
	cfgDurable.Clock = clock

	durable, err := New(cfgDurable)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, durable)
	durable = nil // crash

	mu.Lock()
	now = time.Unix(5000, 0) // rewind for the control run
	mu.Unlock()
	control, err := New(Config{Landmarks: testLandmarks, Shards: 4, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, control)

	re, err := New(durableConfig(dir, 4))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	assertSameAnswers(t, captureAnswers(t, control), captureAnswers(t, re), "crash+recover vs uninterrupted")
}

// TestCleanShutdownTruncatesLog verifies the graceful path: Close writes
// a final snapshot and truncates the WAL, the reopened node replays an
// empty tail, and the answers still match.
func TestCleanShutdownTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c)
	want := captureAnswers(t, c)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// A snapshot exists and the log was truncated at it: replaying the
	// tail after the snapshot sequence yields nothing.
	snaps, err := wal.Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot after Close: %v err=%v", snaps, err)
	}
	log, err := wal.OpenSharded(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail := 0
	if err := log.Replay(snaps[len(snaps)-1], func(uint64, []byte) error { tail++; return nil }); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if tail != 0 {
		t.Fatalf("%d log records left after the final snapshot", tail)
	}

	re, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameAnswers(t, want, captureAnswers(t, re), "after clean shutdown")
}

// TestCheckpointMidWorkloadThenCrash exercises snapshot+tail recovery:
// a checkpoint lands mid-workload, more acknowledged writes follow, the
// node crashes, and recovery must splice snapshot and log tail back into
// the exact acknowledged state.
func TestCheckpointMidWorkloadThenCrash(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Join(pathtree.PeerID(i+1), synthPath(testLandmarks[i%8], i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 20; i < 40; i++ {
		if _, err := c.Join(pathtree.PeerID(i+1), synthPath(testLandmarks[i%8], i)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Leave(5) {
		t.Fatal("leave failed")
	}
	want := captureAnswers(t, c)
	c = nil // crash

	re, err := New(durableConfig(dir, 4))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	assertSameAnswers(t, want, captureAnswers(t, re), "snapshot+tail")
}

// TestAutoSnapshotTriggers drives enough commits past SnapshotEvery that
// the background checkpointer must fire, then crashes and recovers.
func TestAutoSnapshotTriggers(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 2)
	cfg.SnapshotEvery = 16
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := c.Join(pathtree.PeerID(i+1), synthPath(testLandmarks[i%8], i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps, err := wal.Snapshots(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no automatic snapshot after 200 commits with SnapshotEvery=16")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A crash takes the checkpointer down with the rest: stop it and wait,
	// so no checkpoint it was nudged into is still writing when recovery
	// opens the directory or the test removes it.
	close(c.snapStop)
	c.snapWG.Wait()
	want := captureAnswers(t, c)
	c = nil // crash

	re, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameAnswers(t, want, captureAnswers(t, re), "after auto snapshot")
}

// TestTornWalTailIgnored simulates a crash mid-append: garbage shaped
// like a half-written record lands at the end of the newest segment. The
// torn bytes were never acknowledged, so recovery must serve everything
// acknowledged and drop the tail without complaint.
func TestTornWalTailIgnored(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.Join(pathtree.PeerID(i+1), synthPath(testLandmarks[i%8], i)); err != nil {
			t.Fatal(err)
		}
	}
	want := captureAnswers(t, c)
	c = nil // crash

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v err=%v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0, 13, 0xca, 0xfe, 0xba})
	f.Close()

	re, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer re.Close()
	assertSameAnswers(t, want, captureAnswers(t, re), "after torn tail")
}

// TestExpireLoggedAsSingleOp is the compact-expiry contract: a TTL sweep
// that removes N peers appends exactly one ExpireOp (carrying the
// deadline) to the WAL — not N per-peer leaves — and a restarted node
// re-derives the same expiry set from it.
func TestExpireLoggedAsSingleOp(t *testing.T) {
	now := time.Unix(9000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(d)
	}
	dir := t.TempDir()
	cfg := durableConfig(dir, 2)
	cfg.PeerTTL = time.Minute
	cfg.Clock = clock
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Join(pathtree.PeerID(i+1), synthPath(testLandmarks[i%8], i)); err != nil {
			t.Fatal(err)
		}
	}
	advance(2 * time.Minute) // everyone goes stale
	for p := pathtree.PeerID(1); p <= 4; p++ {
		if err := c.Refresh(p); err != nil { // 1..4 stay fresh
			t.Fatal(err)
		}
	}
	expired := c.Expire()
	if len(expired) != 6 {
		t.Fatalf("expired %v, want 6 peers", expired)
	}
	want := captureAnswers(t, c)
	c = nil // crash

	// The WAL must carry exactly one KindExpire record and zero leaves.
	log, err := wal.OpenSharded(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	expires, leaves := 0, 0
	if err := log.Replay(0, func(_ uint64, rec []byte) error {
		o, err := op.Decode(rec)
		if err != nil {
			return err
		}
		switch o.Kind {
		case op.KindExpire:
			expires++
		case op.KindLeave:
			leaves++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if expires != 1 || leaves != 0 {
		t.Fatalf("WAL has %d expire and %d leave records; want exactly 1 expire, 0 leaves", expires, leaves)
	}

	re, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	assertSameAnswers(t, want, captureAnswers(t, re), "after expiry replay")
	if got := re.NumPeers(); got != 4 {
		t.Fatalf("recovered %d peers, want the 4 refreshed ones", got)
	}
}

// TestDurableRejectsForeignSnapshot guards the config/state contract: a
// data directory whose snapshot references landmarks outside the
// configured set must fail loudly at open, not silently drop peers.
func TestDurableRejectsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(1, synthPath(testLandmarks[3], 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Landmarks: []topology.NodeID{testLandmarks[0]}, DataDir: dir})
	if err == nil {
		t.Fatal("open with a shrunken landmark set silently succeeded")
	}
}

// dirListing maps every file in dir to its size.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
}

// TestDurableRefusesDamagedCheckpoint: a node whose newest checkpoint is
// cut short anywhere (record boundaries included), has any byte damaged,
// or is in a format older than op streams does not open — no silent
// restore of the readable prefix, no fallback to an empty node — and the
// refusal leaves every file in the directory exactly as it found it.
func TestDurableRefusesDamagedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.JoinOp(op.Join(pathtree.PeerID(i+1), synthPath(testLandmarks[i%8], i), fmt.Sprintf("10.0.0.%d:41", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetSuperPeer(7, true); err != nil {
		t.Fatal(err)
	}
	want := captureAnswers(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after Close: %v err=%v", snaps, err)
	}
	good, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	refused := func(label string, data []byte, wantInErr string) {
		t.Helper()
		if err := os.WriteFile(snaps[0], data, 0o666); err != nil {
			t.Fatal(err)
		}
		before := dirListing(t, dir)
		re, err := New(durableConfig(dir, 2))
		if err == nil {
			re.Close()
			t.Fatalf("%s: the node opened", label)
		}
		if !strings.Contains(err.Error(), wantInErr) {
			t.Fatalf("%s: refused with %q, want it to mention %q", label, err, wantInErr)
		}
		if after := dirListing(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: the refusal changed the directory:\n before %v\n after  %v", label, before, after)
		}
	}
	for n := 0; n < len(good); n++ {
		refused(fmt.Sprintf("truncated to %d of %d bytes", n, len(good)), good[:n], "checkpoint")
	}
	for i := range good {
		flipped := bytes.Clone(good)
		flipped[i] ^= 1 << (i % 8)
		refused(fmt.Sprintf("bit %d of byte %d flipped", i%8, i), flipped, "checkpoint")
	}
	refused("old checkpoint magic", append([]byte("\x00pxdctb1\x00\x00\x00\x10"), good...), "format")
	refused("bare gob snapshot", []byte("\x4f\xff\x81\x03\x01\x01\x08snapshot\x01\xff\x82\x00\x01\x05"), "format")

	if err := os.WriteFile(snaps[0], good, 0o666); err != nil {
		t.Fatal(err)
	}
	re, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatalf("reopen with the checkpoint put back: %v", err)
	}
	defer re.Close()
	assertSameAnswers(t, want, captureAnswers(t, re), "after the refusals")
}

// TestDurableFlagAndWideBatchChunking covers the Durable accessor and the
// commit-time chunking of batches wider than the op codec's cap: a
// 300-entry batch (simulation-scale, beyond op.MaxBatch=256) must land in
// the WAL as multiple records and recover completely.
func TestDurableFlagAndWideBatchChunking(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Durable() {
		t.Fatal("Durable() = false with DataDir set")
	}
	plain, err := New(Config{Landmarks: testLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Durable() {
		t.Fatal("Durable() = true without DataDir")
	}
	const wide = int(op.MaxBatch) + 44
	items := make([]op.JoinEntry, wide)
	for i := range items {
		items[i] = op.JoinEntry{
			Peer: pathtree.PeerID(i + 1),
			Addr: fmt.Sprintf("10.9.0.%d:41", i%250),
			Path: synthPath(testLandmarks[i%len(testLandmarks)], i),
		}
	}
	for _, res := range c.JoinBatchOp(op.BatchJoin(items, 0)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	want := captureAnswers(t, c)
	c = nil // crash

	batchRecs := 0
	log, err := wal.OpenSharded(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Replay(0, func(_ uint64, rec []byte) error {
		o, err := op.Decode(rec)
		if err != nil {
			return err
		}
		if o.Kind == op.KindBatchJoin {
			batchRecs++
			if len(o.Batch) > op.MaxBatch {
				t.Errorf("logged batch of %d entries exceeds codec cap", len(o.Batch))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if batchRecs < 2 {
		t.Fatalf("wide batch committed as %d records, want it chunked", batchRecs)
	}

	re, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumPeers(); got != wide {
		t.Fatalf("recovered %d peers, want %d", got, wide)
	}
	assertSameAnswers(t, want, captureAnswers(t, re), "after wide-batch recovery")
}

// TestApplyOpDoor drives the cluster's op-native Apply surface directly —
// the door the TCP front end uses — including an explicit-deadline expiry.
func TestApplyOpDoor(t *testing.T) {
	now := time.Unix(4000, 0)
	dir := t.TempDir()
	cfg := durableConfig(dir, 2)
	cfg.PeerTTL = time.Minute
	cfg.Clock = func() time.Time { return now }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.JoinOp(op.Join(pathtree.PeerID(i+1), synthPath(testLandmarks[i], i), "a:1", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Apply(op.Refresh(1, now.Add(time.Hour).UnixNano())); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(op.SetSuperPeer(2, true)); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(op.Leave(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(op.Leave(3)); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatalf("double leave: %v, want ErrUnknownPeer", err)
	}
	// Everyone except the hour-ahead refresh of peer 1 is past this
	// explicit deadline.
	if err := c.Apply(op.Expire(now.Add(time.Second).UnixNano())); err != nil {
		t.Fatal(err)
	}
	if got := c.Peers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("peers after explicit-deadline expiry: %v", got)
	}
	want := captureAnswers(t, c)
	c = nil // crash

	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameAnswers(t, want, captureAnswers(t, re), "op-door replay")
}

// TestShardedWALKillDashNineRecovery is the WAL's acceptance contract on a
// 4-shard node: a node killed mid-flight (no Close, no final flush) must
// recover from its one segment stream into answers identical to a node
// that ran the same workload uninterrupted. Writers hit all shards
// concurrently, so their records interleave in the one stream.
func TestShardedWALKillDashNineRecovery(t *testing.T) {
	now := time.Unix(9000, 0)
	run := func(dir string) *Cluster {
		cfg := durableConfig(dir, 4)
		cfg.Clock = func() time.Time { return now } // identical stamps across runs
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Disjoint peers and landmarks per writer: the final state is
				// independent of cross-goroutine interleaving, so the clean
				// and killed runs are comparable answer-for-answer.
				lm := testLandmarks[w]
				for i := 0; i < 30; i++ {
					p := pathtree.PeerID(1000*w + i + 1)
					if _, err := c.JoinOp(op.Join(p, synthPath(lm, 8*i+w), fmt.Sprintf("10.7.%d.%d:41", w, i), 0)); err != nil {
						t.Errorf("join %d: %v", p, err)
						return
					}
				}
				var entries []op.JoinEntry
				for i := 0; i < 8; i++ {
					entries = append(entries, op.JoinEntry{
						Peer: pathtree.PeerID(1000*w + 500 + i),
						Addr: fmt.Sprintf("10.8.%d.%d:41", w, i),
						Path: synthPath(lm, 8*i+w+240),
					})
				}
				for _, res := range c.JoinBatchOp(op.BatchJoin(entries, 0)) {
					if res.Err != nil {
						t.Errorf("batch join: %v", res.Err)
						return
					}
				}
				if err := c.SetSuperPeer(pathtree.PeerID(1000*w+1), true); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		return c
	}

	cleanDir, killDir := t.TempDir(), t.TempDir()
	clean := run(cleanDir)
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	killed := run(killDir)
	_ = killed // kill -9: the WAL files stay exactly as appends left them

	// The killed directory holds the one-stream log: only wal-0- segments,
	// whatever shard a record's op belonged to.
	ents, err := os.ReadDir(killDir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range ents {
		var id int
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d-%d.seg", &id, &seq); err == nil {
			if id != 0 {
				t.Fatalf("killed dir holds %s, a segment of stream %d", e.Name(), id)
			}
			segs++
		}
	}
	if segs == 0 {
		t.Fatal("killed dir holds no wal-0- segment")
	}

	cfg := durableConfig(cleanDir, 4)
	cfg.Clock = func() time.Time { return now }
	cleanRe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanRe.Close()
	cfg.DataDir = killDir
	killedRe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer killedRe.Close()

	assertSameAnswers(t, captureAnswers(t, cleanRe), captureAnswers(t, killedRe), "kill-9 vs uninterrupted")
}

// TestLeaveOfUnknownPeerLogsNothing pins what makes the client's re-home
// retire free on disk: a Leave of a peer this node does not hold fails
// with server.ErrUnknownPeer before the WAL append, so the log head does
// not move (the front end acks such a leave all the same).
func TestLeaveOfUnknownPeerLogsNothing(t *testing.T) {
	c, err := New(durableConfig(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.JoinOp(op.Join(1, []topology.NodeID{10, testLandmarks[0]}, "10.0.0.1:1", time.Now().UnixNano())); err != nil {
		t.Fatal(err)
	}
	head := c.DurabilityStats().Head
	if err := c.Apply(op.Leave(404)); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatalf("Leave of an unknown peer: %v, want ErrUnknownPeer", err)
	}
	if got := c.DurabilityStats().Head; got != head {
		t.Fatalf("log head moved from %d to %d for a leave of an unknown peer", head, got)
	}
}

// TestOversizeJoinRefusedAtTheDoor: a join whose address or path is longer
// than the op format carries is refused before anything applies it, alone
// and as one entry of a batch among good ones. Were it applied first, the
// log's encoder would refuse it afterwards, leaving a resident peer no
// record covers and every later checkpoint failing on it. So the oversize
// entry errors, only the good entries count and move the log head, a
// checkpoint succeeds, and recovery rebuilds exactly what was answered.
func TestOversizeJoinRefusedAtTheDoor(t *testing.T) {
	longPath := make([]topology.NodeID, 0, op.MaxPathLen+1)
	for r := 1; r <= op.MaxPathLen; r++ {
		longPath = append(longPath, topology.NodeID(9_000_000+r))
	}
	oversize := map[string]op.JoinEntry{
		"address": {Addr: strings.Repeat("a", op.MaxAddrLen+1), Path: synthPath(testLandmarks[1], 3)},
		"path":    {Addr: "10.0.0.9:9", Path: append(longPath, testLandmarks[1])},
	}
	for name, bad := range oversize {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(durableConfig(dir, 4))
			if err != nil {
				t.Fatal(err)
			}
			head := c.CommittedHead()
			bad.Peer = 1
			if _, err := c.JoinOp(op.Op{Kind: op.KindJoin, Join: bad}); err == nil {
				t.Fatal("an oversize join was answered")
			}
			if n, h := c.NumPeers(), c.CommittedHead(); n != 0 || h != head {
				t.Fatalf("after a refused join: %d peers resident, log head %d → %d", n, head, h)
			}
			bad.Peer = 3
			batch := []op.JoinEntry{
				{Peer: 2, Addr: "10.0.0.2:2", Path: synthPath(testLandmarks[2], 5)},
				bad,
				{Peer: 4, Addr: "10.0.0.4:4", Path: synthPath(testLandmarks[1], 7)},
			}
			for i, res := range c.JoinBatchOp(op.BatchJoin(batch, 0)) {
				if (res.Err == nil) != (i != 1) {
					t.Fatalf("batch entry %d: err %v", i, res.Err)
				}
			}
			if n, h := c.NumPeers(), c.CommittedHead(); n != 2 || h != head+1 {
				t.Fatalf("after a batch of two good entries: %d peers resident, log head %d → %d", n, head, h)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if _, err := c.JoinOp(op.Join(5, synthPath(testLandmarks[1], 9), "10.0.0.5:5", 0)); err != nil {
				t.Fatal(err)
			}
			want := captureAnswers(t, c)
			c = nil // crash: the checkpoint plus one logged join
			re, err := New(durableConfig(dir, 4))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			assertSameAnswers(t, want, captureAnswers(t, re), "recovered")
			if err := re.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}

// TestApplyRefusesMalformedJoin: Apply of a single join whose path the
// server refuses — here a router repeats — returns the refusal, as a wire
// join gets it, and neither applies nor logs the join. The batch road it
// is routed on skips a refused entry without an error, so nothing but the
// door's own check keeps the record out of the log.
func TestApplyRefusesMalformedJoin(t *testing.T) {
	c, err := New(durableConfig(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	head := c.CommittedHead()
	if err := c.Apply(op.Join(1, []topology.NodeID{5, 5, testLandmarks[0]}, "", 0)); !errors.Is(err, server.ErrBadJoin) {
		t.Fatalf("Apply of a malformed join: %v, want server.ErrBadJoin", err)
	}
	if n, h := c.NumPeers(), c.CommittedHead(); n != 0 || h != head {
		t.Fatalf("after a refused join: %d peers resident, log head %d → %d", n, head, h)
	}
}

// TestApplyRefusesBatchWithABadEntry: Apply of a batch checks every entry
// before it applies any. An entry whose landmark the node does not serve,
// or whose path the server refuses, refuses the whole batch with that
// entry's error: the good entry beside it is not applied, and nothing is
// logged.
func TestApplyRefusesBatchWithABadEntry(t *testing.T) {
	good := op.JoinEntry{Peer: 1, Addr: "10.0.0.1:7000", Path: synthPath(testLandmarks[0], 1)}
	for _, tc := range []struct {
		name string
		bad  []topology.NodeID
		want error
	}{
		{"unknown landmark", []topology.NodeID{7, 999}, server.ErrUnknownLandmark},
		{"repeated router", []topology.NodeID{5, 5, 0}, server.ErrBadJoin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(durableConfig(t.TempDir(), 2))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			head := c.CommittedHead()
			batch := op.BatchJoin([]op.JoinEntry{good, {Peer: 2, Path: tc.bad}}, 0)
			if err := c.Apply(batch); !errors.Is(err, tc.want) {
				t.Fatalf("Apply of %v: %v, want %v", batch.Batch, err, tc.want)
			}
			if n, h := c.NumPeers(), c.CommittedHead(); n != 0 || h != head {
				t.Fatalf("after a refused batch: %d peers resident, log head %d → %d", n, head, h)
			}
		})
	}
}
