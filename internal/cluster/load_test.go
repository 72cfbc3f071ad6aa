package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// checkpointFile reads the latest checkpoint in dir.
func checkpointFile(t *testing.T, dir string) []byte {
	t.Helper()
	f, _, ok, err := wal.OpenLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint in %s: ok=%v err=%v", dir, ok, err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// copyDataDir copies a durable node's data directory file by file: the disk
// image a kill -9 would leave behind.
func copyDataDir(t testing.TB, src, dst string) {
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

// writeCheckpointFile writes checkpointBytes(ops) as the checkpoint of an
// empty data directory, as a file written by hand or by another build would
// be.
func writeCheckpointFile(t *testing.T, dir string, ops ...op.Op) {
	t.Helper()
	if err := wal.WriteSnapshot(dir, 0, func(w io.Writer) error {
		_, err := w.Write(checkpointBytes(t, ops...))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// checkpointBytes is the test side's section writer: the snapshot of one
// bare server per landmark, each fed, in order, the join entries of ops
// whose path ends at its landmark and the flags naming a peer it holds.
// Each server keeps an index of its own, so a peer joined under two
// landmarks is named in two sections, as a checkpoint taken beside
// re-homing writers names it; and a bare server trusts its entries, so a
// path a cluster's route would refuse lands in its tree.
func checkpointBytes(t testing.TB, ops ...op.Op) []byte {
	t.Helper()
	byLandmark := make(map[topology.NodeID]*server.Server)
	var srvs []*server.Server
	for _, o := range ops {
		entries := o.Batch
		switch o.Kind {
		case op.KindJoin:
			entries = []op.JoinEntry{o.Join}
		case op.KindSetSuperPeer:
			for _, s := range srvs {
				if err := s.Apply(o); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
					t.Fatal(err)
				}
			}
		}
		for _, e := range entries {
			lm := e.Path[len(e.Path)-1]
			s := byLandmark[lm]
			if s == nil {
				var err error
				if s, err = server.New(server.Config{Landmarks: []topology.NodeID{lm}}); err != nil {
					t.Fatal(err)
				}
				byLandmark[lm], srvs = s, append(srvs, s)
			}
			if err := s.Apply(op.Op{Kind: op.KindJoin, Time: o.Time, Join: e}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := server.WriteSnapshot(&buf, srvs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadCheckpointParallel builds a checkpoint into c through the shards'
// parallel builders alone and reports whether the pass vouches for the
// state it built; when it does not, the state may differ from
// loadCheckpoint's. On return no builder is left running, error or not.
func (c *Cluster) loadCheckpointParallel(r io.ReadSeeker) (exact bool, err error) {
	return server.LoadSnapshot(r, c.servers(), c.shardOf, true, nil)
}

// assertSameState fails unless got holds want's state: the same fresh
// snapshot bytes, peer count, records, placement, and the answers of a
// sample of lookups.
func assertSameState(t *testing.T, want, got *Cluster, label string) {
	t.Helper()
	if w, g := snapshotOf(t, want), snapshotOf(t, got); !bytes.Equal(w, g) {
		t.Fatalf("%s: snapshots differ (%d and %d bytes)", label, len(w), len(g))
	}
	if w, g := want.NumPeers(), got.NumPeers(); w != g {
		t.Fatalf("%s: %d peers, want %d", label, g, w)
	}
	for _, lm := range want.Landmarks() {
		ws := want.table[lm]
		gs, ok := got.table[lm]
		if !ok || gs != ws {
			t.Fatalf("%s: landmark %d on shard %d, want shard %d", label, lm, gs, ws)
		}
	}
	for i, p := range want.Peers() {
		wi, werr := want.PeerInfo(p)
		gi, gerr := got.PeerInfo(p)
		if werr != nil || gerr != nil || !reflect.DeepEqual(wi, gi) {
			t.Fatalf("%s: PeerInfo(%d) = %+v (%v), want %+v (%v)", label, p, gi, gerr, wi, werr)
		}
		if i%97 != 0 {
			continue
		}
		wc, werr := want.Lookup(p)
		gc, gerr := got.Lookup(p)
		if werr != nil || gerr != nil || !reflect.DeepEqual(wc, gc) {
			t.Fatalf("%s: Lookup(%d) = %v (%v), want %v (%v)", label, p, gc, gerr, wc, werr)
		}
	}
}

// buildLoadFixture fills a durable cluster of the given shard count in dir
// with n peers — runs of a shared refresh time longer than a wire batch;
// wire addresses; re-joins under another landmark; super-peers; and leaves
// — then checkpoints and closes it. It returns the snapshot taken before
// the close.
func buildLoadFixture(t *testing.T, dir string, shards, n int) []byte {
	t.Helper()
	cfg := durableConfig(dir, shards)
	cfg.NoSync = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(shards)))
	const base = int64(1_700_000_000) * int64(time.Second)
	lmOf := func() topology.NodeID { return testLandmarks[rng.Intn(len(testLandmarks))] }
	for p := 1; p <= n; {
		width := 1 + rng.Intn(300) // one in nine runs fits in a wire batch
		entries := make([]op.JoinEntry, 0, width)
		for ; len(entries) < width && p <= n; p++ {
			entries = append(entries, op.JoinEntry{
				Peer: pathtree.PeerID(p),
				Addr: fmt.Sprintf("10.%d.%d.%d:41", p>>16, (p>>8)&255, p&255),
				Path: synthPath(lmOf(), rng.Intn(50_000)),
			})
		}
		for _, res := range c.JoinBatchOp(op.BatchJoin(entries, base+int64(p))) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	for k := 0; k < n/50; k++ {
		p := pathtree.PeerID(1 + rng.Intn(n))
		switch k % 4 {
		case 0: // a re-join, most often under another landmark's shard
			if _, err := c.JoinOp(op.Join(p, synthPath(lmOf(), rng.Intn(50_000)), "", base+int64(n+k))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := c.SetSuperPeer(p, true); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
				t.Fatal(err)
			}
		case 2:
			c.Leave(p)
		case 3:
			if err := c.Apply(op.Refresh(p, base+int64(n+k))); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
				t.Fatal(err)
			}
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// reopen opens a copy of the data directory src, through the serial road
// alone when serial is set.
func reopen(t *testing.T, src string, shards int, serial bool) *Cluster {
	t.Helper()
	dir := t.TempDir()
	copyDataDir(t, src, dir)
	cfg := durableConfig(dir, shards)
	cfg.NoSync, cfg.serialLoad = true, serial
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestParallelLoadMatchesSerialLoad pins the shard-parallel checkpoint load
// to the serial road, on four shards and on three, where one shard holds
// several landmarks: the two reopened nodes hold the same state, and the
// parallel pass vouches for its result rather than falling back.
func TestParallelLoadMatchesSerialLoad(t *testing.T) {
	for _, shards := range []int{4, 3} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			src := t.TempDir()
			before := buildLoadFixture(t, src, shards, 20_000)
			file := checkpointFile(t, src)

			serial := reopen(t, src, shards, true)
			supers := 0
			for _, p := range serial.Peers() {
				if info, err := serial.PeerInfo(p); err == nil && info.SuperPeer {
					supers++
				}
			}
			if supers == 0 {
				t.Fatal("fixture: no super-peer")
			}
			parallel := reopen(t, src, shards, false)
			if !bytes.Equal(snapshotOf(t, serial), before) {
				t.Fatal("the serial road did not recover the checkpointed state")
			}
			if parallel.DurabilityStats().LoadTime <= 0 {
				t.Fatal("no load time on a recovered node")
			}
			assertSameState(t, serial, parallel, "parallel load")

			// The parallel pass alone, with no fallback behind it.
			fresh, err := New(Config{Landmarks: testLandmarks, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := fresh.loadCheckpointParallel(bytes.NewReader(file))
			if err != nil || !exact {
				t.Fatalf("parallel pass: exact=%v err=%v", exact, err)
			}
			assertSameState(t, serial, fresh, "parallel pass")
		})
	}
}

// TestParallelLoadRepeatedPeerFallsBack: a checkpoint that names a peer
// twice, in sections of landmarks on different shards, recovers as the
// serial road recovers it — the record with the later refresh time wins,
// whichever section holds it — though the parallel pass alone cannot say
// which one its builders let win.
func TestParallelLoadRepeatedPeerFallsBack(t *testing.T) {
	dir := t.TempDir()
	ops := []op.Op{
		op.BatchJoin([]op.JoinEntry{{Peer: 4, Addr: "10.0.0.4:41", Path: synthPath(100, 6)}}, 5),
		op.BatchJoin([]op.JoinEntry{
			{Peer: 1, Addr: "10.0.0.1:41", Path: synthPath(0, 3)},
			{Peer: 2, Path: synthPath(0, 4)},
		}, 10),
		op.BatchJoin([]op.JoinEntry{
			{Peer: 1, Addr: "10.0.0.9:41", Path: synthPath(100, 3)},
			{Peer: 3, Path: synthPath(100, 5)},
		}, 20),
		op.BatchJoin([]op.JoinEntry{{Peer: 4, Addr: "10.0.0.40:41", Path: synthPath(0, 6)}}, 30),
	}
	writeCheckpointFile(t, dir, ops...)
	c := reopen(t, dir, 2, false)
	from := c.table[0]
	if to := c.table[100]; to == from {
		t.Fatalf("landmarks 0 and 100 share shard %d", to)
	}
	if c.NumPeers() != 4 {
		t.Fatalf("%d peers, want 4", c.NumPeers())
	}
	for p, want := range map[pathtree.PeerID]server.PeerInfo{
		1: {Landmark: 100, Addr: "10.0.0.9:41", LastRefresh: time.Unix(0, 20)}, // the later section's
		4: {Landmark: 0, Addr: "10.0.0.40:41", LastRefresh: time.Unix(0, 30)},  // the earlier section's
	} {
		info, err := c.PeerInfo(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Landmark != want.Landmark || info.Addr != want.Addr || !info.LastRefresh.Equal(want.LastRefresh) {
			t.Fatalf("peer %d recovered as %+v, want the newer record's", p, info)
		}
	}
	if n := c.shards[from].srv.NumPeers(); n != 2 {
		t.Fatalf("landmark 0's shard holds %d peers, want 2", n)
	}
	assertSameState(t, reopen(t, dir, 2, true), c, "fallback")

	fresh, err := New(Config{Landmarks: testLandmarks, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if exact, err := fresh.loadCheckpointParallel(bytes.NewReader(checkpointFile(t, dir))); err != nil || exact {
		t.Fatalf("parallel pass over a repeated peer: exact=%v err=%v", exact, err)
	}
}

// TestRefusedLoadLeavesNoApplier: a checkpoint refused part-way through —
// a section of a landmark the node does not serve, one holding a path that
// repeats a router, a file cut short — fails the open and leaves no builder
// goroutine behind.
func TestRefusedLoadLeavesNoApplier(t *testing.T) {
	var ops []op.Op
	for r := 0; r < 40; r++ {
		entries := make([]op.JoinEntry, 100)
		for i := range entries {
			p := r*len(entries) + i + 1
			entries[i] = op.JoinEntry{Peer: pathtree.PeerID(p), Path: synthPath(testLandmarks[p%4], p)}
		}
		ops = append(ops, op.BatchJoin(entries, int64(r+1)))
	}
	unknown := op.BatchJoin([]op.JoinEntry{{Peer: 1 << 20, Path: synthPath(999, 1)}}, 50)
	repeats := op.BatchJoin([]op.JoinEntry{{Peer: 1 << 20, Path: []topology.NodeID{7, 7, testLandmarks[1]}}}, 50)
	cases := []struct {
		name string
		file func(dir string)
		want string
	}{
		{"unknown landmark", func(dir string) {
			writeCheckpointFile(t, dir, append(append(ops[:30:30], unknown), ops[30:]...)...)
		}, "(router 999)"},
		{"repeated router", func(dir string) {
			writeCheckpointFile(t, dir, append(append(ops[:30:30], repeats), ops[30:]...)...)
		}, "repeats"},
		{"cut short", func(dir string) {
			writeCheckpointFile(t, dir, ops...)
			snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
			if err != nil || len(snaps) != 1 {
				t.Fatalf("snapshots: %v err=%v", snaps, err)
			}
			good := checkpointFile(t, dir)
			if err := os.WriteFile(snaps[0], good[:len(good)*2/3], 0o666); err != nil {
				t.Fatal(err)
			}
		}, "checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.file(dir)
			before := runtime.NumGoroutine()
			for try := 0; try < 3; try++ {
				if c, err := New(durableConfig(dir, 4)); err == nil {
					c.Close()
					t.Fatal("the node opened")
				} else if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("refused with %q, want it to mention %q", err, tc.want)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the refusals, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestWideBatchDefersRepeatedPeersInOrder pins batchRoute's duplicate test
// on both sides of the wire's cap: exactly the entries whose peer repeats go
// to the singular road, in batch order, and the batch leaves the state
// sequential joins leave.
func TestWideBatchDefersRepeatedPeersInOrder(t *testing.T) {
	for _, width := range []int{dupScanMax, dupScanMax + 1, op.MaxBatch} {
		t.Run(fmt.Sprint(width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(width)))
			entries := make([]op.JoinEntry, width)
			seen := make(map[pathtree.PeerID]int)
			for i := range entries {
				p := pathtree.PeerID(1000 + i)
				if i%5 == 4 {
					p = pathtree.PeerID(1 + rng.Intn(4)) // peers 1 to 4, repeated
				}
				entries[i] = op.JoinEntry{Peer: p, Path: synthPath(testLandmarks[rng.Intn(len(testLandmarks))], i)}
				seen[p]++
			}
			var want []int
			for i, e := range entries {
				if seen[e.Peer] > 1 {
					want = append(want, i)
				}
			}
			c := newTestCluster(t, 4)
			var r route
			if _, err := c.batchRoute(op.BatchJoin(entries, 7), &r, nil); err != nil {
				t.Fatal(err)
			}
			var deferred []int
			for i, shard := range r.owner {
				if shard == repeated {
					deferred = append(deferred, i)
				}
			}
			if !reflect.DeepEqual(deferred, want) {
				t.Fatalf("deferred %v, want %v", deferred, want)
			}

			batched, sequential := newTestCluster(t, 4), newTestCluster(t, 4)
			if err := batched.Apply(op.BatchJoin(entries, 7)); err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if err := sequential.Apply(op.Op{Kind: op.KindJoin, Time: 7, Join: e}); err != nil {
					t.Fatal(err)
				}
			}
			assertSameState(t, sequential, batched, "batch")
		})
	}
}

// TestDurabilityStatsLoadTime: a node that recovered a checkpoint reports
// the time its load took; a fresh one reports none.
func TestDurabilityStatsLoadTime(t *testing.T) {
	dir := t.TempDir()
	c, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d := c.DurabilityStats().LoadTime; d != 0 {
		t.Fatalf("fresh node: load time %v", d)
	}
	populate(t, c, 200)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.DurabilityStats(); st.LoadTime <= 0 || re.NumPeers() != 200 {
		t.Fatalf("recovered node: load time %v, %d peers", st.LoadTime, re.NumPeers())
	}
}

// TestRepeatedPeerBatchIsABarrier: a log tail whose middle record is a
// batch naming a new peer twice — an answered batch's repeated entries
// commit in its one record — recovers through the shard-parallel pass with
// that record alone applied serially, as a barrier, where a pass that split
// it among the appliers could not vouch for its state and replayed the
// whole tail serially. The state is the serial road's.
func TestRepeatedPeerBatchIsABarrier(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 2)
	cfg.NoSync = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	fresh := func(at int64) {
		entries := make([]op.JoinEntry, 16)
		for i := range entries {
			entries[i] = op.JoinEntry{Peer: pathtree.PeerID(next), Path: synthPath(testLandmarks[next%len(testLandmarks)], next)}
			next++
		}
		for _, res := range c.JoinBatchOp(op.BatchJoin(entries, at)) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	for r := 0; r < 20; r++ {
		fresh(int64(r + 1))
	}
	p := pathtree.PeerID(1 << 20) // a peer no record named before
	for _, res := range c.JoinBatchOp(op.BatchJoin([]op.JoinEntry{
		{Peer: p, Addr: "10.0.0.1:1", Path: synthPath(0, 1)},
		{Peer: pathtree.PeerID(next), Path: synthPath(200, 2)},
		{Peer: p, Addr: "10.0.0.1:2", Path: synthPath(100, 3)},
	}, 21)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	next++
	for r := 0; r < 20; r++ {
		fresh(int64(r + 22))
	}
	// Crash: the live node is abandoned with its log mid-life.
	serial := reopen(t, dir, 2, true)
	parallel := reopen(t, dir, 2, false)
	assertSameState(t, c, serial, "serial road")
	assertSameState(t, serial, parallel, "parallel pass")
	if st := parallel.DurabilityStats(); st.TailRecords != 41 || st.SerialRecords != 1 {
		t.Fatalf("%d serial records over a tail of %d, want 1 over 41", st.SerialRecords, st.TailRecords)
	}
}
