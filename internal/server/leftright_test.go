package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// TestMutateCoalescesPendingWriters pins the flat-combining contract
// deterministically: writers queued while a combiner holds the writer
// mutex are all run by the next combiner in ONE batch — every first-apply
// before any second-apply, one publication for the lot — and each
// mutation applies exactly once per state copy.
func TestMutateCoalescesPendingWriters(t *testing.T) {
	const writers = 10
	s, err := New(Config{Landmarks: []topology.NodeID{0}})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupies wmu: its first apply parks until the test releases it.
		s.mutate(func(st *state, first bool) {
			if first {
				close(entered)
				<-release
			}
		})
	}()
	<-entered

	// The blocker holds wmu, so these writers can only enqueue and wait.
	type event struct {
		writer int
		first  bool
	}
	var evMu sync.Mutex
	var events []event
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.mutate(func(st *state, first bool) {
				evMu.Lock()
				events = append(events, event{writer: i, first: first})
				evMu.Unlock()
			})
		}(i)
	}
	// Wait until every writer is in the combining queue, then let go.
	for {
		s.pendMu.Lock()
		n := len(s.pending)
		s.pendMu.Unlock()
		if n == writers {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if len(events) != 2*writers {
		t.Fatalf("recorded %d applies, want %d (each writer exactly once per copy)", len(events), 2*writers)
	}
	// One batch: all first-applies precede all second-applies, and the
	// second pass replays the identical writer order.
	var firsts, seconds []int
	for i, e := range events {
		if e.first {
			if len(seconds) > 0 {
				t.Fatalf("first-apply after a second-apply at event %d: writers were not combined into one batch: %v", i, events)
			}
			firsts = append(firsts, e.writer)
		} else {
			seconds = append(seconds, e.writer)
		}
	}
	if len(firsts) != writers || len(seconds) != writers {
		t.Fatalf("got %d first-applies and %d second-applies, want %d each", len(firsts), len(seconds), writers)
	}
	for i := range firsts {
		if firsts[i] != seconds[i] {
			t.Fatalf("second pass order %v != first pass order %v", seconds, firsts)
		}
	}
	seen := map[int]bool{}
	for _, w := range firsts {
		if seen[w] {
			t.Fatalf("writer %d applied twice on the same copy: %v", w, firsts)
		}
		seen[w] = true
	}
}

// churnPath builds a deterministic synthetic path for peer i ending at the
// landmark: a small fanout tree of routers so nearby IDs share prefixes.
func churnPath(landmark topology.NodeID, i int) []topology.NodeID {
	a := topology.NodeID(1000 + i%7)
	b := topology.NodeID(2000 + i%23)
	c := topology.NodeID(3000 + i)
	return []topology.NodeID{c, b, a, landmark}
}

// TestLeftRightChurn hammers the left-right read view: writer goroutines
// churn joins/leaves/refreshes while reader goroutines run lookups and
// info reads the whole time. Readers assert they never observe a torn
// view (an anchor peer that vanishes, a path that does not end at the
// landmark, an answer naming the queried peer itself); afterwards, at a
// quiescent point, the live answers must match a fresh server rebuilt
// from the snapshot — and must be identical before and after one more
// write swaps the two copies, proving both copies converged.
func TestLeftRightChurn(t *testing.T) {
	const landmark topology.NodeID = 9
	const anchors = 40
	s, err := New(Config{Landmarks: []topology.NodeID{landmark}, NeighborCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Anchor peers are inserted once and never removed: readers may query
	// them at any instant and must always get an answer.
	for i := 0; i < anchors; i++ {
		if _, err := s.Join(pathtree.PeerID(i+1), churnPath(landmark, i)); err != nil {
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
				if _, err := s.Join(p, churnPath(landmark, int(p))); err != nil {
					fail("churn join %d: %v", p, err)
					return
				}
				if r%3 == 0 {
					_ = s.Refresh(p)
				}
				if r%5 == 0 {
					_ = s.SetSuperPeer(p, true)
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
			items := make([]BatchJoin, 8)
			for i := range items {
				p := 50_000 + (r%200)*8 + i
				items[i] = BatchJoin{Peer: pathtree.PeerID(p), Path: churnPath(landmark, p)}
			}
			for _, res := range s.JoinBatch(items) {
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
		if _, err := s.Join(p, churnPath(landmark, int(p))); err != nil {
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
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	ref, err := Restore(&buf, Config{NeighborCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.NumPeers(), ref.NumPeers(); got != want {
		t.Fatalf("NumPeers %d != rebuilt %d", got, want)
	}
	before := make(map[pathtree.PeerID][]pathtree.Candidate, anchors)
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
		before[p] = live
	}
	// One more write publishes the other copy; answers must not change —
	// the two left-right copies converged to the same state.
	if err := s.Refresh(1); err != nil {
		t.Fatal(err)
	}
	for p, want := range before {
		got, err := s.Lookup(p)
		if err != nil {
			t.Fatalf("post-swap lookup %d: %v", p, err)
		}
		if len(got) != len(want) {
			t.Fatalf("anchor %d: answer changed across copy swap: %v != %v", p, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("anchor %d: answer changed across copy swap: %v != %v", p, got, want)
			}
		}
	}
}
