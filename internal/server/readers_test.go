package server

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// churnPath builds a deterministic synthetic path for peer i ending at the
// landmark: a small fanout tree of routers so nearby IDs share prefixes.
func churnPath(landmark topology.NodeID, i int) []topology.NodeID {
	a := topology.NodeID(1000 + i%7)
	b := topology.NodeID(2000 + i%23)
	c := topology.NodeID(3000 + i)
	return []topology.NodeID{c, b, a, landmark}
}

// TestReadersDuringChurn hammers the state lock: writer goroutines churn
// joins/leaves/refreshes while reader goroutines run lookups and info
// reads the whole time. Readers assert they never observe a torn view (an
// anchor peer that vanishes, a path that does not end at the landmark, an
// answer naming the queried peer itself); afterwards, at a quiescent
// point, the live answers must match a fresh server rebuilt from the
// snapshot.
func TestReadersDuringChurn(t *testing.T) {
	const landmark topology.NodeID = 9
	const anchors = 40
	s, err := New(Config{Landmarks: []topology.NodeID{landmark}, NeighborCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Anchor peers are inserted once and never removed: readers may query
	// them at any instant and must always get an answer.
	for i := 0; i < anchors; i++ {
		if _, err := s.JoinOp(op.Join(pathtree.PeerID(i+1), churnPath(landmark, i), "", 0)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	fail := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
		stop.Store(true)
	}

	// Writers: churn peers join, refresh, flip super-peer, and leave.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 10_000 * (w + 1)
			for r := 0; !stop.Load(); r++ {
				p := pathtree.PeerID(base + r%500)
				if _, err := s.JoinOp(op.Join(p, churnPath(landmark, int(p)), "", 0)); err != nil {
					fail("churn join %d: %v", p, err)
					return
				}
				if r%3 == 0 {
					_ = s.Refresh(p)
				}
				if r%5 == 0 {
					_ = s.Apply(op.SetSuperPeer(p, true))
				}
				if r%2 == 0 {
					s.Leave(p)
				}
			}
		}(w)
	}
	// A batch writer exercises the amortized path under churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; !stop.Load(); r++ {
			items := make([]op.JoinEntry, 8)
			for i := range items {
				p := 50_000 + (r%200)*8 + i
				items[i] = op.JoinEntry{Peer: pathtree.PeerID(p), Path: churnPath(landmark, p)}
			}
			for _, res := range s.JoinBatchOp(op.BatchJoin(items, 0)) {
				if res.Err != nil {
					fail("batch join: %v", res.Err)
					return
				}
			}
		}
	}()

	// Readers: lookups and info reads must always be internally consistent.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; !stop.Load(); r++ {
				p := pathtree.PeerID(r%anchors + 1)
				cands, err := s.Lookup(p)
				if err != nil {
					fail("lookup anchor %d: %v", p, err)
					return
				}
				for _, c := range cands {
					if c.Peer == p {
						fail("anchor %d returned in its own answer", p)
						return
					}
					if c.DTree < 0 {
						fail("anchor %d: negative dtree %d", p, c.DTree)
						return
					}
				}
				info, err := s.PeerInfo(p)
				if err != nil {
					fail("peerinfo anchor %d: %v", p, err)
					return
				}
				if got := info.Path[len(info.Path)-1]; got != landmark {
					fail("anchor %d path ends at %d, not landmark", p, got)
					return
				}
				if r%16 == 0 {
					if n := s.NumPeers(); n < anchors {
						fail("NumPeers %d below anchor floor %d", n, anchors)
						return
					}
				}
			}
		}(g)
	}

	// Let the churn run a fixed amount of writer work rather than wall
	// time, then stop everyone.
	for i := 0; i < 100; i++ {
		p := pathtree.PeerID(90_000 + i)
		if _, err := s.JoinOp(op.Join(p, churnPath(landmark, int(p)), "", 0)); err != nil {
			t.Fatalf("driver join: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiescent point: live answers must match a server rebuilt from the
	// snapshot (same state, fresh trees).
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	ref, err := restore(bytes.NewReader(buf.Bytes()), Config{NeighborCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.NumPeers(), ref.NumPeers(); got != want {
		t.Fatalf("NumPeers %d != rebuilt %d", got, want)
	}
	for i := 0; i < anchors; i++ {
		p := pathtree.PeerID(i + 1)
		live, err := s.Lookup(p)
		if err != nil {
			t.Fatalf("quiescent lookup %d: %v", p, err)
		}
		fresh, err := ref.Lookup(p)
		if err != nil {
			t.Fatalf("rebuilt lookup %d: %v", p, err)
		}
		if len(live) != len(fresh) {
			t.Fatalf("anchor %d: live answer %v != rebuilt %v", p, live, fresh)
		}
		for j := range live {
			if live[j] != fresh[j] {
				t.Fatalf("anchor %d: live answer %v != rebuilt %v", p, live, fresh)
			}
		}
	}
}

// TestLookupProceedsWhileWriterMutexHeld pins which lock a whole-state walk
// holds. With the writer mutex held — first by the test itself, standing in
// for a snapshot in progress, then by Snapshot, Peers and the scan of an
// expiry sweep, each parked in walkHook — Lookup, PeerInfo, NumPeers,
// ArenaStats and Stats (what a metrics scrape reads) return, and a JoinOp
// does not until the mutex is released.
func TestLookupProceedsWhileWriterMutexHeld(t *testing.T) {
	const landmark topology.NodeID = 9
	s, err := New(Config{Landmarks: []topology.NodeID{landmark}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if _, err := s.JoinOp(op.Join(pathtree.PeerID(i), churnPath(landmark, i), "", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	newcomer := 100
	// held runs while someone holds the writer mutex; release makes them
	// let go of it.
	held := func(who string, release func()) {
		t.Helper()
		read := make(chan error, 1)
		go func() {
			_, err := s.Lookup(10)
			if err == nil {
				_, err = s.PeerInfo(11)
			}
			if n := s.NumPeers(); err == nil && n < 18 {
				err = fmt.Errorf("NumPeers %d", n)
			}
			if a := s.ArenaStats(); err == nil && a.Records-a.FreeRecords < 18 {
				err = fmt.Errorf("ArenaStats %+v", a)
			}
			if st := s.Stats(); err == nil && st.Peers < 18 {
				err = fmt.Errorf("Stats %+v", st)
			}
			read <- err
		}()
		select {
		case err := <-read:
			if err != nil {
				t.Fatalf("%s holds the writer mutex: %v", who, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s holds the writer mutex: readers wait for it", who)
		}
		newcomer++
		joined := make(chan error, 1)
		go func() {
			_, err := s.JoinOp(op.Join(pathtree.PeerID(newcomer), churnPath(landmark, newcomer), "", 0))
			joined <- err
		}()
		select {
		case <-joined:
			t.Fatalf("%s holds the writer mutex: a join got past it", who)
		case <-time.After(20 * time.Millisecond):
		}
		release()
		if err := <-joined; err != nil {
			t.Fatal(err)
		}
	}

	s.wmu.Lock()
	held("the test", s.wmu.Unlock)

	walks := []struct {
		name string
		walk func()
	}{
		{"Snapshot", func() { _ = WriteSnapshot(io.Discard, s) }},
		{"Peers", func() { s.Peers() }},
		{"ExpireOp", func() { s.ExpireOp(op.Expire(3)) }}, // peers 1 and 2
	}
	for _, w := range walks {
		entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		s.walkHook = func() {
			close(entered)
			<-release
		}
		go func() {
			w.walk()
			close(done)
		}()
		<-entered
		held(w.name, func() { close(release) })
		<-done
	}
	s.walkHook = nil
	if got, want := s.NumPeers(), 20-2+1+len(walks); got != want {
		t.Fatalf("%d peers after the walks, want %d", got, want)
	}
}
