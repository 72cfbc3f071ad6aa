package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// snapshotOf writes c's snapshot: the checkpoint a durable node writes and
// ships to a follower behind its log, and the form copies are compared by.
func snapshotOf(t testing.TB, c *Cluster) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSamePlacement fails unless got places every landmark on want's
// shard, and each shard holds what want's holds.
func assertSamePlacement(t *testing.T, want, got *Cluster) {
	t.Helper()
	for _, lm := range want.Landmarks() {
		ws := want.table[lm]
		gs, ok := got.table[lm]
		if !ok || gs != ws {
			t.Fatalf("landmark %d on shard %d, want shard %d", lm, gs, ws)
		}
	}
	for i := 0; i < want.NumShards(); i++ {
		if w, g := want.shards[i].srv.NumPeers(), got.shards[i].srv.NumPeers(); w != g {
			t.Fatalf("shard %d holds %d peers, want %d", i, g, w)
		}
	}
}

// TestClusterResetFromSnapshot is the cluster's twin of the server's
// TestResetFromSnapshot. It pins three things: a checkpoint replaces the
// state instead of merging into it; a bad one leaves the previous state;
// and lookups running during a restore answer only from the old state or
// the new one.
func TestClusterResetFromSnapshot(t *testing.T) {
	t.Run("replaces", testResetReplaces)
	t.Run("refused input changes nothing", testResetRefusals)
	t.Run("lookups see one state", testResetUnderLookups)
}

// resetSource is a 2-shard cluster with a super-peer, and its checkpoint.
func resetSource(t *testing.T) (*Cluster, []byte) {
	t.Helper()
	src := newTestCluster(t, 2)
	populate(t, src, 64)
	if err := src.SetSuperPeer(3, true); err != nil {
		t.Fatal(err)
	}
	return src, snapshotOf(t, src)
}

// testResetReplaces: peers absent from the checkpoint disappear, every
// landmark stays on the shard New dealt it, the per-shard gauges read the
// new state, and the copy keeps taking writes and an older build's
// replicated move, which leaves the table as it was.
func testResetReplaces(t *testing.T) {
	src, ckpt := resetSource(t)
	lm := testLandmarks[0]
	cur := src.table[lm]
	reg := telemetry.NewRegistry()
	dst, err := New(Config{Landmarks: testLandmarks, Shards: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// State the checkpoint does not hold: gone after the reset.
	for p := pathtree.PeerID(1000); p < 1010; p++ {
		if _, err := dst.Join(p, synthPath(testLandmarks[1], int(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.ResetFromSnapshot(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Lookup(1000); !errors.Is(err, server.ErrUnknownPeer) {
		t.Fatalf("a peer the checkpoint does not hold survived the reset: %v", err)
	}
	want := snapshotOf(t, src)
	if !bytes.Equal(want, snapshotOf(t, dst)) {
		t.Fatalf("reset copy holds %d peers, not the source's %d", dst.NumPeers(), src.NumPeers())
	}
	assertSamePlacement(t, src, dst)
	assertSameAnswers(t, captureAnswers(t, src), captureAnswers(t, dst), "after reset")
	for i := 0; i < 2; i++ {
		series := `proxdisc_shard_peers{shard="` + strconv.Itoa(i) + `"}`
		if got, want := scraped(t, reg, series), src.shards[i].srv.NumPeers(); got != want {
			t.Fatalf("shard %d gauge reads %d, want %d", i, got, want)
		}
	}
	if got := scraped(t, reg, "proxdisc_peers"); got != src.NumPeers() {
		t.Fatalf("peer gauge reads %d, want %d", got, src.NumPeers())
	}

	// The copy keeps working on the adopted state: it takes writes, and a
	// move an older primary replicated, which names another shard.
	if _, err := dst.Join(2000, synthPath(lm, 7)); err != nil {
		t.Fatal(err)
	}
	if err := dst.Apply(op.Op{Kind: op.KindMoveLandmark, Move: op.MoveEntry{Landmark: lm, Src: cur, Dst: 1 - cur, Epoch: 2}}); err != nil {
		t.Fatal(err)
	}
	if s := dst.table[lm]; s != cur {
		t.Fatalf("replicated move left landmark %d on shard %d, want %d", lm, s, cur)
	}
	if _, err := dst.Lookup(2000); err != nil {
		t.Fatalf("lookup after the replicated move: %v", err)
	}
}

// testResetRefusals: garbage, every truncation of a checkpoint, and any
// checkpoint into a durable cluster are refused, and the state stays what
// it was.
func testResetRefusals(t *testing.T) {
	src, ckpt := resetSource(t)
	dst := newTestCluster(t, 2)
	if err := dst.ResetFromSnapshot(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, dst)
	bad := map[string][]byte{"garbage": []byte("not a snapshot")}
	for n := 0; n < len(ckpt); n += 97 {
		bad[fmt.Sprintf("truncated to %d bytes", n)] = ckpt[:n]
	}
	for name, data := range bad {
		if err := dst.ResetFromSnapshot(bytes.NewReader(data)); err == nil {
			t.Fatalf("accepted a %s snapshot", name)
		}
		if !bytes.Equal(want, snapshotOf(t, dst)) {
			t.Fatalf("a refused %s snapshot changed the state", name)
		}
	}
	assertSamePlacement(t, src, dst)

	// A durable cluster's log would no longer describe it.
	durable, err := New(Config{Landmarks: testLandmarks, DataDir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	if err := durable.ResetFromSnapshot(bytes.NewReader(ckpt)); err == nil {
		t.Fatal("a durable cluster reset from a snapshot")
	}
}

// testResetUnderLookups runs lookups beside a cluster flipped between two
// states by ResetFromSnapshot, over and over. The two hold the same peers
// on other paths, so each peer's answer differs between them: every answer
// must be one of the two, never one mixed from both. Under -race it also checks that the publication is
// synchronised with the readers.
func testResetUnderLookups(t *testing.T) {
	const peers = 200
	states := make([]*Cluster, 2)
	for s := range states {
		states[s] = newTestCluster(t, 2)
		for i := 0; i < peers; i++ {
			lm := testLandmarks[i%4]
			if _, err := states[s].Join(pathtree.PeerID(i+1), synthPath(lm, i*(s+3)%97)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ckpts := [][]byte{snapshotOf(t, states[0]), snapshotOf(t, states[1])}
	answers := []clusterAnswers{captureAnswers(t, states[0]), captureAnswers(t, states[1])}

	c := newTestCluster(t, 2)
	if err := c.ResetFromSnapshot(bytes.NewReader(ckpts[0])); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := pathtree.PeerID((i*7+r)%peers + 1)
				got, err := c.Lookup(p)
				if err != nil {
					errs <- fmt.Errorf("lookup %d: %w", p, err)
					return
				}
				if !reflect.DeepEqual(got, answers[0].cands[p]) && !reflect.DeepEqual(got, answers[1].cands[p]) {
					errs <- fmt.Errorf("lookup %d answered %v: neither state's answer", p, got)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 40; i++ {
		if err := c.ResetFromSnapshot(bytes.NewReader(ckpts[(i+1)%2])); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertSamePlacement(t, states[0], c)
}

// FuzzResetFromSnapshot is the cluster's restore as a fuzz target, beside
// the server's: arbitrary bytes are fed to a 2-shard cluster holding one
// peer. Input it refuses must leave that peer and nothing else; input it
// takes must leave a cluster that re-checkpoints to bytes a second cluster
// takes, with the same placement and peers.
func FuzzResetFromSnapshot(f *testing.F) {
	seed, err := New(Config{Landmarks: []topology.NodeID{0, 50}, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, o := range []op.Op{
		op.Join(1, []topology.NodeID{10, 11, 0}, "10.0.0.1:41", 7),
		op.Join(2, []topology.NodeID{20, 50}, "", 7),
		op.Join(3, []topology.NodeID{12, 11, 0}, "", 9),
		op.SetSuperPeer(3, true),
	} {
		if err := seed.Apply(o); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(snapshotOf(f, seed))
	// A peer in two sections, under landmarks of both shards, as a
	// checkpoint taken beside a re-homing writer holds it.
	f.Add(checkpointBytes(f,
		op.Join(1, []topology.NodeID{10, 11, 0}, "10.0.0.1:41", 7),
		op.Join(2, []topology.NodeID{20, 50}, "", 7),
		op.Join(1, []topology.NodeID{21, 50}, "peer-1:41", 9)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dst, err := New(Config{Landmarks: []topology.NodeID{0, 50}, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Join(77, []topology.NodeID{5, 50}); err != nil {
			t.Fatal(err)
		}
		if err := dst.ResetFromSnapshot(bytes.NewReader(data)); err != nil {
			if got := dst.Peers(); len(got) != 1 || got[0] != 77 {
				t.Fatalf("a refused snapshot left peers %v, want [77]", got)
			}
			return
		}
		if dst.NumPeers() != len(dst.Peers()) {
			t.Fatalf("index holds %d peers, trees %d", dst.NumPeers(), len(dst.Peers()))
		}
		again, err := New(Config{Landmarks: []topology.NodeID{0, 50}, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := again.ResetFromSnapshot(bytes.NewReader(snapshotOf(t, dst))); err != nil {
			t.Fatalf("round-trip restore: %v", err)
		}
		assertSamePlacement(t, dst, again)
		if !bytes.Equal(snapshotOf(t, dst), snapshotOf(t, again)) {
			t.Fatal("round-trip changed the snapshot's bytes")
		}
	})
}

func TestClusterSnapshotRestorable(t *testing.T) {
	c := newTestCluster(t, 4)
	populate(t, c, 48)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newTestCluster(t, 4)
	if err := restored.ResetFromSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
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

// TestCheckpointNamingOtherOwnersLoads pins that the landmark table is the
// one New deals, whatever servers wrote a checkpoint: a file written by one
// bare server per landmark, not by this cluster's shards, loads through a
// durable open and through ResetFromSnapshot onto the table's owners, with
// every peer it holds, into the state a fresh cluster fed the same joins
// holds. (Builds that moved landmarks between shards also wrote owners and
// epochs into their checkpoints; no file of the section form names an
// owner.) A section of a landmark the cluster does not serve is refused,
// and the state stays what it was.
func TestCheckpointNamingOtherOwnersLoads(t *testing.T) {
	const shards, peers = 2, 240
	var joins []op.Op
	for first := 1; first <= peers; first += 40 {
		entries := make([]op.JoinEntry, 40)
		for i := range entries {
			p := first + i
			lm := testLandmarks[p%len(testLandmarks)]
			entries[i] = op.JoinEntry{Peer: pathtree.PeerID(p), Addr: fmt.Sprintf("10.0.%d.%d:7", p/256, p%256), Path: synthPath(lm, p*37%5000)}
		}
		joins = append(joins, op.BatchJoin(entries, int64(1_000+first)))
	}
	fresh := newTestCluster(t, shards)
	for _, o := range joins {
		if err := fresh.Apply(o); err != nil {
			t.Fatal(err)
		}
	}
	want, answers := snapshotOf(t, fresh), captureAnswers(t, fresh)
	check := func(label string, c *Cluster) {
		t.Helper()
		for _, lm := range testLandmarks {
			w := fresh.table[lm]
			if got, ok := c.table[lm]; !ok || got != w {
				t.Fatalf("%s: landmark %d on shard %d, want the table's %d", label, lm, got, w)
			}
		}
		if c.NumPeers() != peers {
			t.Fatalf("%s: %d peers, want %d", label, c.NumPeers(), peers)
		}
		assertSameAnswers(t, answers, captureAnswers(t, c), label)
		if !bytes.Equal(want, snapshotOf(t, c)) {
			t.Fatalf("%s: snapshot differs from a fresh cluster's fed the same joins", label)
		}
	}

	dir := t.TempDir()
	writeCheckpointFile(t, dir, joins...)
	cfg := durableConfig(dir, shards)
	cfg.NoSync = true
	durable, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	check("durable open", durable)

	reset := newTestCluster(t, shards)
	if err := reset.ResetFromSnapshot(bytes.NewReader(checkpointBytes(t, joins...))); err != nil {
		t.Fatal(err)
	}
	check("reset", reset)

	unknown := append([]op.Op{op.Join(1_000, synthPath(999, 1), "", 1)}, joins...)
	if err := reset.ResetFromSnapshot(bytes.NewReader(checkpointBytes(t, unknown...))); err == nil {
		t.Fatal("a reset took a section of an unknown landmark")
	}
	check("after a refused reset", reset)
	bad := t.TempDir()
	writeCheckpointFile(t, bad, unknown...)
	if c, err := New(durableConfig(bad, shards)); err == nil {
		c.Close()
		t.Fatal("a durable open took a section of an unknown landmark")
	}
}

// TestOpStreamCheckpointRefused: a checkpoint in the op-stream form that
// preceded tree sections fails a durable open with the format named and the
// directory untouched, and a reset with the format named and the state
// unchanged: no reader for it is kept.
func TestOpStreamCheckpointRefused(t *testing.T) {
	// The op-stream magic and one framed move record, as such a file opened.
	file := []byte("pxdopstr\x00\x00\x00\x19\x12\x34\x56\x78\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")
	dir := t.TempDir()
	if err := wal.WriteSnapshot(dir, 0, func(w io.Writer) error {
		_, err := w.Write(file)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	if c, err := New(durableConfig(dir, 2)); err == nil {
		c.Close()
		t.Fatal("a durable open took an op-stream checkpoint")
	} else if !errors.Is(err, op.ErrOpStreamFormat) || !strings.Contains(err.Error(), "op-stream") {
		t.Fatalf("refused with %v, want the op-stream format named", err)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("the refused open changed the directory: %v, then %v", before, after)
	}

	c := newTestCluster(t, 2)
	populate(t, c, 16)
	held := snapshotOf(t, c)
	if err := c.ResetFromSnapshot(bytes.NewReader(file)); !errors.Is(err, op.ErrOpStreamFormat) {
		t.Fatalf("a reset from an op-stream checkpoint: %v, want the format named", err)
	}
	if !bytes.Equal(held, snapshotOf(t, c)) {
		t.Fatal("a refused reset changed the state")
	}
}

// TestResetFromDuplicateNamingSnapshot: a follower's catch-up restore takes
// the durable open's checkpoint step. A snapshot naming peers in two
// sections, of landmarks on different shards — what a checkpoint taken
// beside re-homing writers holds (TestCheckpointUnderWriters logs how
// often) — restores onto four shards into the state a rule of the test's
// own derives from the ops that built it, and re-snapshots to that state's
// bytes, however the builders' timing runs. A clean snapshot restores the
// same way, to its own bytes.
func TestResetFromDuplicateNamingSnapshot(t *testing.T) {
	const shards, runs, width = 4, 8, 64
	var ops []op.Op
	for r := 0; r < runs; r++ {
		entries := make([]op.JoinEntry, width)
		for i := range entries {
			p := r*width + i + 1
			entries[i] = op.JoinEntry{Peer: pathtree.PeerID(p), Path: synthPath(testLandmarks[p%len(testLandmarks)], p)}
		}
		ops = append(ops, op.BatchJoin(entries, int64(10+r)))
	}
	// Every seventh peer again, under the next landmark, which New deals to
	// the next shard, with an address of its own.
	var rehomed []op.JoinEntry
	for p := 1; p <= runs*width; p += 7 {
		lm := testLandmarks[(p+1)%len(testLandmarks)]
		rehomed = append(rehomed, op.JoinEntry{Peer: pathtree.PeerID(p), Addr: fmt.Sprintf("10.9.%d.%d:41", p/256, p%256), Path: synthPath(lm, p+3)})
	}
	ops = append(ops, op.BatchJoin(rehomed, 100), op.SetSuperPeer(8, true))
	file := checkpointBytes(t, ops...)

	// The rule: a peer's records are its last entry under each landmark,
	// and of those the newest wins, the later landmark's on a tie.
	type record struct {
		e  op.JoinEntry
		at int64
	}
	records := make(map[pathtree.PeerID]map[topology.NodeID]record)
	for _, o := range ops {
		for _, e := range o.Batch {
			if records[e.Peer] == nil {
				records[e.Peer] = make(map[topology.NodeID]record)
			}
			records[e.Peer][e.Path[len(e.Path)-1]] = record{e, o.Time}
		}
	}
	want := newTestCluster(t, shards)
	for _, byLandmark := range records {
		var win record
		for _, lm := range slices.Sorted(maps.Keys(byLandmark)) {
			if r := byLandmark[lm]; r.at >= win.at {
				win = r
			}
		}
		if err := want.Apply(op.BatchJoin([]op.JoinEntry{win.e}, win.at)); err != nil {
			t.Fatal(err)
		}
	}
	if err := want.SetSuperPeer(8, true); err != nil {
		t.Fatal(err)
	}
	info, err := want.PeerInfo(1)
	if err != nil || info.Landmark != testLandmarks[2] || info.LastRefresh.UnixNano() != 100 {
		t.Fatalf("the rule: peer 1 is %+v (%v), want the later entry's", info, err)
	}

	restored := func(data []byte) *Cluster {
		t.Helper()
		c := newTestCluster(t, shards)
		if err := c.ResetFromSnapshot(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for i := 0; i < 10; i++ {
		got := restored(file)
		assertSameState(t, want, got, fmt.Sprintf("duplicate-naming restore %d", i))
		if err := checkIndex(got); err != nil {
			t.Fatalf("duplicate-naming restore %d: %v", i, err)
		}
	}

	clean := snapshotOf(t, want)
	if !bytes.Equal(clean, snapshotOf(t, restored(clean))) {
		t.Fatal("a clean snapshot restored to other bytes")
	}
}

// TestCatchupRestoreBuildsNoTailFilter: a follower's catch-up restore reads
// no log tail, so it builds none of the durable open's set of the peers the
// checkpoint loaded (2^22 bits, 512 KiB alone): restoring a 300-peer
// snapshot onto four shards allocates under 512 KiB.
func TestCatchupRestoreBuildsNoTailFilter(t *testing.T) {
	src := newTestCluster(t, 4)
	populate(t, src, 300)
	snap := snapshotOf(t, src)
	c := newTestCluster(t, 4)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := c.ResetFromSnapshot(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if c.NumPeers() != 300 {
		t.Fatalf("%d peers restored, want 300", c.NumPeers())
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 512<<10 {
		t.Fatalf("restoring a %d-byte snapshot of 300 peers onto 4 shards allocated %d bytes, want under 512 KiB", len(snap), per)
	}
}

// scraped reads an integer series off reg's Prometheus exposition, the
// road /metrics takes.
func scraped(t *testing.T, reg *telemetry.Registry, series string) int {
	t.Helper()
	for _, line := range strings.Split(reg.Exposition(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s reads %q: %v", series, v, err)
			}
			return n
		}
	}
	t.Fatalf("the exposition has no %s", series)
	return 0
}
