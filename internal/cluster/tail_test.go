package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// tailWriter writes a log tail onto a durable node, counting the records a
// recovery must apply as barriers.
type tailWriter struct {
	t        *testing.T
	c        *Cluster
	next     pathtree.PeerID // the next peer no write has named
	barriers int
}

// lmOf is the landmark peer p joins under in the fixtures: consecutive
// peers go to consecutive landmarks, which the table deals to different
// shards.
func lmOf(p pathtree.PeerID) topology.NodeID { return testLandmarks[int(p)%len(testLandmarks)] }

// batch joins a batch of the given peers, stamped at, through the answering
// road: one record.
func (w *tailWriter) batch(at int64, peers ...pathtree.PeerID) {
	w.t.Helper()
	entries := make([]op.JoinEntry, len(peers))
	for i, p := range peers {
		entries[i] = op.JoinEntry{Peer: p, Addr: fmt.Sprintf("10.%d.%d.%d:41", p>>16, (p>>8)&255, p&255), Path: synthPath(lmOf(p), int(p))}
	}
	for i, res := range w.c.JoinBatchOp(op.BatchJoin(entries, at)) {
		if res.Err != nil {
			w.t.Fatalf("batch entry %d (peer %d): %v", i, peers[i], res.Err)
		}
	}
}

// newPeers returns n peers no write has named.
func (w *tailWriter) newPeers(n int) []pathtree.PeerID {
	ps := make([]pathtree.PeerID, n)
	for i := range ps {
		ps[i] = w.next
		w.next++
	}
	return ps
}

// fresh joins batches of 32 new peers: records the tail splits among the
// appliers.
func (w *tailWriter) fresh(batches int) {
	w.t.Helper()
	for b := 0; b < batches; b++ {
		w.batch(0, w.newPeers(32)...)
	}
}

// barrier runs one write that logs one record a recovery applies serially.
func (w *tailWriter) barrier(write func() error) {
	w.t.Helper()
	if err := write(); err != nil {
		w.t.Fatal(err)
	}
	w.barriers++
}

// newTailNode opens a durable 4-shard node in dir whose checkpoint holds
// peers 1 to n, joined in batches of 32; the log past it is empty.
func newTailNode(t *testing.T, dir string, n int, clock func() time.Time) *tailWriter {
	t.Helper()
	cfg := durableConfig(dir, 4)
	cfg.NoSync, cfg.Clock, cfg.PeerTTL = true, clock, time.Minute
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &tailWriter{t: t, c: c, next: 1}
	for int(w.next) <= n {
		w.batch(0, w.newPeers(min(32, n+1-int(w.next)))...)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return w
}

// writeEveryBarrier writes a tail holding every kind of record recovery
// applies serially, each between stretches of new peers' batches: a
// re-homing join, a batch naming a resident peer, a leave (and a batch
// bringing the peer back, which is split like new peers' batches), a
// refresh, a flag, an expiry sweep of a stale batch, and a move record as
// older builds logged one. With dup set, two batches right after the move
// record name one new peer under landmarks of two shards, in one stretch.
func writeEveryBarrier(w *tailWriter, now time.Time, dup bool) {
	c := w.c
	w.fresh(20)
	w.barrier(func() error { // peer 5 re-homes to the next landmark's shard
		_, err := c.JoinOp(op.Join(5, synthPath(lmOf(6), 5), "10.9.0.5:41", 0))
		return err
	})
	w.fresh(5)
	w.barrier(func() error { // resident peer 7 re-joins among new ones
		w.batch(0, append(w.newPeers(31), 7)...)
		return nil
	})
	w.fresh(5)
	w.barrier(func() error { return c.Apply(op.Leave(9)) })
	w.fresh(3)
	w.batch(0, append(w.newPeers(31), 9)...) // named before, held no more: split
	w.barrier(func() error { return c.Apply(op.Refresh(10, 0)) })
	w.fresh(3)
	w.barrier(func() error { return c.SetSuperPeer(11, true) })
	w.batch(now.Add(-2*time.Minute).UnixNano(), w.newPeers(32)...) // stale on arrival
	w.barrier(func() error {
		if swept := c.Expire(); len(swept) != 32 {
			return fmt.Errorf("the sweep took %d peers, want the stale batch's 32", len(swept))
		}
		return nil
	})
	w.fresh(3)
	w.barrier(func() error { // applied, it names another shard and changes nothing
		cur := c.table[testLandmarks[2]]
		return c.Apply(op.Op{Kind: op.KindMoveLandmark, Move: op.MoveEntry{Landmark: testLandmarks[2], Src: cur, Dst: (cur + 1) % c.NumShards(), Epoch: 1}})
	})
	if dup {
		x := w.newPeers(1)[0]
		w.batch(0, append(w.newPeers(3), x)...)
		// x again, under the next landmark: in the stretch the first batch
		// opened, before any applier holds x.
		entries := []op.JoinEntry{{Peer: x, Path: synthPath(lmOf(x+1), int(x))}}
		for _, p := range w.newPeers(3) {
			entries = append(entries, op.JoinEntry{Peer: p, Path: synthPath(lmOf(p), int(p))})
		}
		for i, res := range c.JoinBatchOp(op.BatchJoin(entries, 0)) {
			if res.Err != nil {
				w.t.Fatalf("repeat batch entry %d: %v", i, res.Err)
			}
		}
	}
	w.fresh(10)
}

// TestParallelTailMatchesSerialTail pins the shard-parallel tail replay to
// the serial road, on a tail holding every barrier kind: the two reopened
// nodes hold the live node's state. Without a repeated peer the pass vouches
// for itself and applies exactly the barriers serially; with a peer named
// twice in one stretch it falls back, and the whole tail goes serially.
func TestParallelTailMatchesSerialTail(t *testing.T) {
	for _, dup := range []bool{false, true} {
		t.Run(fmt.Sprintf("repeated peer %v", dup), func(t *testing.T) {
			dir := t.TempDir()
			now := time.Unix(1_700_000_000, 0)
			w := newTailNode(t, dir, 2_000, func() time.Time { return now })
			writeEveryBarrier(w, now, dup)
			// Crash: the live node is abandoned with its log mid-life.
			serial := reopen(t, dir, 4, true)
			parallel := reopen(t, dir, 4, false)
			assertSameState(t, w.c, serial, "serial road")
			assertSameState(t, serial, parallel, "parallel tail")

			st := parallel.DurabilityStats()
			if st.TailRecords <= uint64(w.barriers) {
				t.Fatalf("tail of %d records holds %d barriers", st.TailRecords, w.barriers)
			}
			want := uint64(w.barriers)
			if dup {
				want += st.TailRecords // the fallback replays the whole tail
			}
			if st.SerialRecords != want {
				t.Fatalf("%d serial records over a tail of %d with %d barriers, want %d",
					st.SerialRecords, st.TailRecords, w.barriers, want)
			}
			if got := serial.DurabilityStats().SerialRecords; got != st.TailRecords {
				t.Fatalf("serial road: %d serial records over a tail of %d", got, st.TailRecords)
			}
		})
	}
}

// TestFreshTailTakesNoBarrier: a tail of batches of new peers only, the
// shape a flash crowd leaves, replays with no record applied serially, and
// as the serial road replays it.
func TestFreshTailTakesNoBarrier(t *testing.T) {
	dir := t.TempDir()
	w := newTailNode(t, dir, 5_000, nil)
	w.fresh(300)
	parallel := reopen(t, dir, 4, false)
	if st := parallel.DurabilityStats(); st.SerialRecords != 0 || st.TailRecords != 300 {
		t.Fatalf("%d serial records over a tail of %d, want 0 over 300", st.SerialRecords, st.TailRecords)
	}
	assertSameState(t, reopen(t, dir, 4, true), parallel, "fresh tail")
	assertSameState(t, w.c, parallel, "live node")
}

// TestRefusedTailLeavesNoApplier: a tail record that cannot apply — a batch
// naming an unknown landmark, split while the appliers hold new peers, or a
// single join naming one, a barrier — fails the open, and leaves no applier
// goroutine behind.
func TestRefusedTailLeavesNoApplier(t *testing.T) {
	for name, bad := range map[string]op.Op{
		"split batch":  op.BatchJoin([]op.JoinEntry{{Peer: 1 << 20, Path: synthPath(999, 1)}}, 50),
		"barrier join": op.Join(1<<20, synthPath(999, 1), "", 50),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := newTailNode(t, dir, 500, nil)
			w.fresh(40)
			crash := t.TempDir()
			copyDataDir(t, dir, crash)
			// A foreign record, written past the node's as the log of another
			// configuration would hold it.
			log, err := wal.OpenSharded(crash, 1, wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := op.Append(nil, bad)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(0, rec); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			w.c.Close()
			before := runtime.NumGoroutine()
			for try := 0; try < 3; try++ {
				if c, err := New(durableConfig(crash, 4)); err == nil {
					c.Close()
					t.Fatal("the node opened")
				} else if !strings.Contains(err.Error(), "replay record") || !strings.Contains(err.Error(), "(router 999)") {
					t.Fatalf("refused with %q, want a replay record naming router 999", err)
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

// TestRecoveryMetricsScraped reopens a crashed node with a registry and
// scrapes its /metrics: the recovery split — checkpoint load and tail replay
// seconds, and the tail records applied serially — reads what
// DurabilityStats reports.
func TestRecoveryMetricsScraped(t *testing.T) {
	dir := t.TempDir()
	w := newTailNode(t, dir, 2_000, nil)
	w.fresh(20)
	w.barrier(func() error { return w.c.Apply(op.Leave(3)) })
	w.fresh(5)
	w.barrier(func() error { return w.c.SetSuperPeer(4, true) })
	w.fresh(5)

	crash := t.TempDir()
	copyDataDir(t, dir, crash)
	reg := telemetry.NewRegistry()
	cfg := durableConfig(crash, 4)
	cfg.NoSync, cfg.Telemetry = true, reg
	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	srv := httptest.NewServer(telemetry.NewOpsMux(reg))
	defer srv.Close()

	samples := scrapeMetrics(t, srv.URL+"/metrics")
	st := re.DurabilityStats()
	for name, want := range map[string]float64{
		"proxdisc_recovery_load_seconds":   st.LoadTime.Seconds(),
		"proxdisc_recovery_replay_seconds": st.ReplayTime.Seconds(),
		"proxdisc_recovery_serial_records": float64(w.barriers),
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Fatalf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if st.LoadTime <= 0 || st.ReplayTime <= 0 || st.SerialRecords != uint64(w.barriers) {
		t.Fatalf("recovery split %+v, want times and %d serial records", st, w.barriers)
	}
}

// scrapeMetrics fetches a Prometheus text exposition and returns its
// samples by series.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || strings.HasPrefix(line, "#") || sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}
