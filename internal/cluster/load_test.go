package cluster

import (
	"bytes"
	"encoding/binary"
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

// reopen opens a copy of the data directory src, replaying its log tail
// serially when serial is set.
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

// TestParallelLoadMatchesSerialLoad pins the checkpoint load, one builder
// per shard, to the checkpointed state: reopened on four shards, on three,
// where one shard holds several landmarks, and on one, whose one builder
// loads the sections one after another, a node writes the snapshot bytes
// it held before, super-peers included.
func TestParallelLoadMatchesSerialLoad(t *testing.T) {
	for _, shards := range []int{4, 3, 1} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			src := t.TempDir()
			before := buildLoadFixture(t, src, shards, 20_000)
			c := reopen(t, src, shards, false)
			supers := 0
			for _, p := range c.Peers() {
				if info, err := c.PeerInfo(p); err == nil && info.SuperPeer {
					supers++
				}
			}
			if supers == 0 {
				t.Fatal("fixture: no super-peer")
			}
			if !bytes.Equal(snapshotOf(t, c), before) {
				t.Fatal("the reopened node does not hold the checkpointed state")
			}
			if c.DurabilityStats().LoadTime <= 0 {
				t.Fatal("no load time on a recovered node")
			}
			if err := checkIndex(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRepeatedPeerLoadKeepsNewerRecord: a checkpoint that names a peer
// twice, in sections of landmarks on different shards, loads with the
// record with the later refresh time, whichever section holds it, and the
// other retired — on a durable open and on a catch-up restore alike.
func TestRepeatedPeerLoadKeepsNewerRecord(t *testing.T) {
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
	reset := newTestCluster(t, 2)
	if err := reset.ResetFromSnapshot(bytes.NewReader(checkpointFile(t, dir))); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cluster{"durable open": reopen(t, dir, 2, false), "catch-up restore": reset} {
		from := c.table[0]
		if to := c.table[100]; to == from {
			t.Fatalf("landmarks 0 and 100 share shard %d", to)
		}
		if c.NumPeers() != 4 {
			t.Fatalf("%s: %d peers, want 4", name, c.NumPeers())
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
				t.Fatalf("%s: peer %d loaded as %+v, want the newer record's", name, p, info)
			}
		}
		if n := c.shards[from].srv.NumPeers(); n != 2 {
			t.Fatalf("%s: landmark 0's shard holds %d peers, want 2", name, n)
		}
		if err := checkIndex(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// countingReader is a checkpoint source that counts, for each byte, the
// reads that returned it.
type countingReader struct {
	r     *bytes.Reader
	reads []int
}

func (c *countingReader) Read(b []byte) (int, error) {
	at := int(c.r.Size()) - c.r.Len()
	n, err := c.r.Read(b)
	for i := range n {
		c.reads[at+i]++
	}
	return n, err
}

func (c *countingReader) Seek(off int64, whence int) (int64, error) { return c.r.Seek(off, whence) }

// TestCheckpointReadOnce: a checkpoint whose sections name peers twice is
// read once, by a durable open and by a catch-up restore alike: no byte of
// its first section is read a second time, for the builders settle each
// such peer themselves.
func TestCheckpointReadOnce(t *testing.T) {
	entries := func(lm topology.NodeID, n int) []op.JoinEntry {
		out := make([]op.JoinEntry, n)
		for i := range out {
			out[i] = op.JoinEntry{Peer: pathtree.PeerID(i + 1), Path: synthPath(lm, i)}
		}
		return out
	}
	// 2 000 peers under landmark 0, the first 50 of them again, later,
	// under landmark 100, which four shards deal to another shard.
	file := checkpointBytes(t, op.BatchJoin(entries(0, 2000), 10), op.BatchJoin(entries(100, 50), 20))
	// The first section is the frame after the magic and the header frame.
	start := 8 + 8 + int(binary.BigEndian.Uint32(file[8:]))
	end := start + 8 + int(binary.BigEndian.Uint32(file[start:]))
	for _, tc := range []struct {
		name string
		load func(r io.ReadSeeker) (*Cluster, error)
	}{
		{"durable open", func(r io.ReadSeeker) (*Cluster, error) {
			dir := t.TempDir()
			c, err := New(Config{Landmarks: testLandmarks, Shards: 4, NoSync: true})
			if err != nil {
				return nil, err
			}
			c.cfg.DataDir = dir // New opened nothing: the open is recoverFrom's, from r
			if err := c.recoverFrom(r, 0); err != nil {
				return nil, err
			}
			t.Cleanup(func() { c.Close() })
			return c, nil
		}},
		{"catch-up restore", func(r io.ReadSeeker) (*Cluster, error) {
			c := newTestCluster(t, 4)
			return c, c.ResetFromSnapshot(r)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &countingReader{r: bytes.NewReader(file), reads: make([]int, len(file))}
			c, err := tc.load(r)
			if err != nil {
				t.Fatal(err)
			}
			if c.NumPeers() != 2000 {
				t.Fatalf("%d peers, want 2000", c.NumPeers())
			}
			for i := start; i < end; i++ {
				if r.reads[i] > 1 {
					t.Fatalf("byte %d of the first section (bytes %d to %d) was read %d times", i, start, end, r.reads[i])
				}
			}
		})
	}
}

// treesFile writes trees, ascending by landmark, as a snapshot framed the
// way server.WriteSnapshot frames its servers' trees: a test may build a
// tree no server would hold.
func treesFile(t *testing.T, trees ...*pathtree.Core) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := op.NewStreamWriter(&buf)
	head := binary.BigEndian.AppendUint32(nil, uint32(len(trees)))
	for _, tree := range trees {
		head = binary.BigEndian.AppendUint32(head, uint32(tree.Landmark()))
	}
	sw.Write(head)
	var nodes, peers uint64
	for _, tree := range trees {
		sec, cuts := tree.AppendSection(nil, nil, op.MaxEncodedSize)
		h, err := pathtree.ParseSectionHeader(sec)
		if err != nil {
			t.Fatal(err)
		}
		nodes, peers = nodes+uint64(h.Nodes), peers+uint64(h.Peers)
		prev := 0
		for _, cut := range append(cuts, len(sec)) {
			sw.Write(sec[prev:cut])
			prev = cut
		}
	}
	if err := sw.Close(nodes, peers); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSectionRepeatRefusedOnFourShards: a peer named twice in one section,
// as its first and its last record, and once more, newer, in the middle of
// a section another shard's builder loads, is refused by each of 50
// restores onto four shards and by a durable open, however the builders'
// registrations interleave; a refused restore leaves the state it found.
func TestSectionRepeatRefusedOnFourShards(t *testing.T) {
	a, b := pathtree.NewCore(0), pathtree.NewCore(100)
	for i := range 2000 {
		a.Join(pathtree.PeerID(i+2), synthPath(0, i), 0, nil)
		b.Join(pathtree.PeerID(i+5000), synthPath(100, i), 0, nil)
	}
	// Landmark 0's routers are 1 000 001 on; landmark 100's 101 000 001 on,
	// 101 000 004 the fourth of its root's eight children.
	for _, at := range []struct {
		tree *pathtree.Core
		path []topology.NodeID
		time int64
	}{
		{a, []topology.NodeID{999_999, 0}, 5},
		{a, []topology.NodeID{1_500_000, 0}, 6},
		{b, []topology.NodeID{105_000_000, 101_000_004, 100}, 9},
	} {
		slot, _ := at.tree.Join(1, at.path, 0, nil)
		at.tree.Record(slot).RefreshNanos = at.time
	}
	file := treesFile(t, a, b)

	c := newTestCluster(t, 4)
	populate(t, c, 64)
	held := snapshotOf(t, c)
	for try := range 50 {
		err := c.ResetFromSnapshot(bytes.NewReader(file))
		if err == nil || !strings.Contains(err.Error(), "peer 1 repeats in landmark 0's section") {
			t.Fatalf("restore %d: %v, want peer 1 refused as repeating in landmark 0's section", try, err)
		}
	}
	if !bytes.Equal(held, snapshotOf(t, c)) {
		t.Fatal("a refused restore changed the state")
	}
	dir := t.TempDir()
	if err := wal.WriteSnapshot(dir, 0, func(w io.Writer) error {
		_, err := w.Write(file)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if d, err := New(durableConfig(dir, 4)); err == nil {
		d.Close()
		t.Fatal("a durable open took a section naming a peer twice")
	} else if !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("a durable open refused with %v, want the repeat named", err)
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
