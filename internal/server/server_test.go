package server

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

func newTestServer(t *testing.T, landmarks ...topology.NodeID) *Server {
	t.Helper()
	if len(landmarks) == 0 {
		landmarks = []topology.NodeID{0}
	}
	s, err := New(Config{Landmarks: landmarks})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted zero landmarks")
	}
	if _, err := New(Config{Landmarks: []topology.NodeID{1, 1}}); err == nil {
		t.Fatal("accepted duplicate landmarks")
	}
	if _, err := New(Config{Landmarks: []topology.NodeID{1}, NeighborCount: -2}); err == nil {
		t.Fatal("accepted negative NeighborCount")
	}
}

func TestJoinReturnsNeighborsBeforeInsertion(t *testing.T) {
	s := newTestServer(t)
	got, err := s.JoinOp(op.Join(1, []topology.NodeID{10, 11, 0}, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("first joiner got neighbours %v", got)
	}
	got, err = s.JoinOp(op.Join(2, []topology.NodeID{12, 11, 0}, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Peer != 1 {
		t.Fatalf("second joiner got %v", got)
	}
	for _, c := range got {
		if c.Peer == 2 {
			t.Fatal("joiner in its own neighbour list")
		}
	}
	if s.NumPeers() != 2 {
		t.Fatalf("peers=%d", s.NumPeers())
	}
}

func TestJoinRejectsUnknownLandmark(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.JoinOp(op.Join(1, []topology.NodeID{10, 99}, "", 0)); !errors.Is(err, ErrUnknownLandmark) {
		t.Fatalf("err=%v", err)
	}
	if _, err := s.JoinOp(op.Join(1, nil, "", 0)); err == nil {
		t.Fatal("accepted empty path")
	}
}

// TestPathCapAtTheDoor: a join whose path has op.MaxPathLen routers is
// applied and one router more is refused, by JoinOp and by JoinBatchOp entry
// by entry. The longest paths read back whole, and two peers at the end of
// such paths on disjoint branches are 2·(op.MaxPathLen−1) hops apart.
func TestPathCapAtTheDoor(t *testing.T) {
	s := newTestServer(t)
	path := func(n int, base topology.NodeID) []topology.NodeID {
		p := make([]topology.NodeID, n) // ends at landmark 0
		for i := range p[:n-1] {
			p[i] = base + topology.NodeID(i)
		}
		return p
	}
	if _, err := s.JoinOp(op.Join(1, path(op.MaxPathLen, 1000), "", 0)); err != nil {
		t.Fatalf("JoinOp refused a %d-hop path: %v", op.MaxPathLen, err)
	}
	if _, err := s.JoinOp(op.Join(2, path(op.MaxPathLen+1, 2000), "", 0)); err == nil {
		t.Fatalf("JoinOp accepted a %d-hop path", op.MaxPathLen+1)
	}
	res := s.JoinBatchOp(op.BatchJoin([]op.JoinEntry{
		{Peer: 3, Path: path(op.MaxPathLen+1, 3000)},
		{Peer: 4, Path: path(op.MaxPathLen, 4000)},
	}, 0))
	if res[0].Err == nil || res[1].Err != nil {
		t.Fatalf("JoinBatchOp: %d hops: %v; %d hops: %v", op.MaxPathLen+1, res[0].Err, op.MaxPathLen, res[1].Err)
	}
	if got := s.Peers(); !slices.Equal(got, []pathtree.PeerID{1, 4}) {
		t.Fatalf("peers %v, want [1 4]", got)
	}
	if info, err := s.PeerInfo(4); err != nil || !slices.Equal(info.Path, path(op.MaxPathLen, 4000)) {
		t.Fatalf("PeerInfo(4): a path of %d hops, %v", len(info.Path), err)
	}
	if got, err := s.Lookup(1); err != nil || len(got) != 1 || got[0].Peer != 4 || got[0].DTree != 2*(op.MaxPathLen-1) {
		t.Fatalf("Lookup(1) = %v, %v; want peer 4 at %d", got, err, 2*(op.MaxPathLen-1))
	}
	if err := s.checkState(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinMultipleLandmarks(t *testing.T) {
	s := newTestServer(t, 0, 100)
	if _, err := s.JoinOp(op.Join(1, []topology.NodeID{10, 0}, "", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.JoinOp(op.Join(2, []topology.NodeID{20, 100}, "", 0)); err != nil {
		t.Fatal(err)
	}
	// Peers under different landmarks do not see each other.
	got, err := s.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("cross-landmark neighbours leaked: %v", got)
	}
	lms := s.Landmarks()
	if len(lms) != 2 || lms[0] != 0 || lms[1] != 100 {
		t.Fatalf("landmarks=%v", lms)
	}
}

func TestRejoinSwitchingLandmark(t *testing.T) {
	s := newTestServer(t, 0, 100)
	if _, err := s.JoinOp(op.Join(1, []topology.NodeID{10, 0}, "", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.JoinOp(op.Join(1, []topology.NodeID{10, 100}, "", 0)); err != nil {
		t.Fatal(err)
	}
	if s.NumPeers() != 1 {
		t.Fatalf("peers=%d", s.NumPeers())
	}
	info, err := s.PeerInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Landmark != 100 {
		t.Fatalf("landmark=%d want 100", info.Landmark)
	}
	// Old tree must no longer hold the peer.
	if n0, n100 := s.st.trees[0].Len(), s.st.trees[100].Len(); n0 != 0 || n100 != 1 {
		t.Fatalf("tree peers: %d at 0, %d at 100", n0, n100)
	}
}

func TestLookup(t *testing.T) {
	s := newTestServer(t)
	mustJoin(t, s, 1, 10, 11)
	mustJoin(t, s, 2, 12, 11)
	mustJoin(t, s, 3, 13)
	got, err := s.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Peer != 2 {
		t.Fatalf("lookup=%v", got)
	}
	if _, err := s.Lookup(42); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
}

func TestNeighborCountHonored(t *testing.T) {
	s, err := New(Config{Landmarks: []topology.NodeID{0}, NeighborCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	for p := pathtree.PeerID(1); p <= 6; p++ {
		mustJoin(t, s, p, topology.NodeID(10+p))
	}
	got, _ := s.Lookup(1)
	if len(got) != 2 {
		t.Fatalf("got %d neighbours want 2", len(got))
	}
	if s.NeighborCount() != 2 {
		t.Fatalf("NeighborCount()=%d", s.NeighborCount())
	}
}

func TestLeave(t *testing.T) {
	s := newTestServer(t)
	mustJoin(t, s, 1, 10)
	mustJoin(t, s, 2, 11)
	if !s.Leave(1) {
		t.Fatal("leave failed")
	}
	if s.Leave(1) {
		t.Fatal("double leave succeeded")
	}
	got, _ := s.Lookup(2)
	if len(got) != 0 {
		t.Fatalf("departed peer still returned: %v", got)
	}
}

func TestExpire(t *testing.T) {
	const ttl = 30 * time.Second
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, err := New(Config{Landmarks: []topology.NodeID{0}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	mustJoin(t, s, 1, 10)
	now = now.Add(10 * time.Second)
	mustJoin(t, s, 2, 11)
	now = now.Add(25 * time.Second) // peer 1 is now 35s stale, peer 2 25s
	expired := expire(s, ttl)
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired=%v", expired)
	}
	if s.NumPeers() != 1 {
		t.Fatalf("peers=%d", s.NumPeers())
	}
	// Refresh protects from expiry.
	if err := s.Refresh(2); err != nil {
		t.Fatal(err)
	}
	now = now.Add(25 * time.Second)
	if expired := expire(s, ttl); len(expired) != 0 {
		t.Fatalf("refreshed peer expired: %v", expired)
	}
	now = now.Add(31 * time.Second)
	if expired := expire(s, ttl); len(expired) != 1 {
		t.Fatalf("stale peer not expired: %v", expired)
	}
}

func TestRefreshUnknown(t *testing.T) {
	s := newTestServer(t)
	if err := s.Refresh(9); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
}

func TestSuperPeerDelegation(t *testing.T) {
	s := newTestServer(t)
	mustJoin(t, s, 1, 10, 11)
	mustJoin(t, s, 2, 12, 11)
	if err := s.Apply(op.SetSuperPeer(2, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SuperPeerDelegations != 1 {
		t.Fatalf("delegations=%d want 1", st.SuperPeerDelegations)
	}
	if err := s.Apply(op.SetSuperPeer(77, true)); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
}

func TestPeerInfoIsCopy(t *testing.T) {
	s := newTestServer(t)
	mustJoin(t, s, 1, 10, 11)
	info, err := s.PeerInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	info.Path[0] = 999
	info2, _ := s.PeerInfo(1)
	if info2.Path[0] == 999 {
		t.Fatal("PeerInfo leaked internal slice")
	}
	if _, err := s.PeerInfo(5); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err=%v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	s := newTestServer(t)
	mustJoin(t, s, 1, 10)
	mustJoin(t, s, 2, 11)
	s.Lookup(1)
	s.Leave(2)
	st := s.Stats()
	if st.Joins != 2 || st.Leaves != 1 || st.Queries != 3 || st.Peers != 1 {
		t.Fatalf("stats=%+v", st)
	}
	if n := s.st.trees[0].Len(); n != 1 {
		t.Fatalf("tree peers=%d", n)
	}
}

func TestPeersSorted(t *testing.T) {
	s := newTestServer(t)
	mustJoin(t, s, 5, 10)
	mustJoin(t, s, 1, 11)
	mustJoin(t, s, 3, 12)
	got := s.Peers()
	want := []pathtree.PeerID{1, 3, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("peers=%v", got)
	}
}

func TestConcurrentJoinsLeaves(t *testing.T) {
	s := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := pathtree.PeerID(w*1000 + i)
				path := []topology.NodeID{topology.NodeID(1000 + int(p)), topology.NodeID(1 + i%20), 0}
				if _, err := s.JoinOp(op.Join(p, path, "", 0)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					s.Leave(p)
				} else if i%3 == 1 {
					if _, err := s.Lookup(p); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := validateCounts(s); err != nil {
		t.Fatal(err)
	}
}

func validateCounts(s *Server) error {
	st := s.Stats()
	total := 0
	for _, tree := range s.st.trees {
		total += tree.Len()
	}
	if total != st.Peers {
		return errors.New("tree peer totals disagree with registry")
	}
	return nil
}

// mustJoin joins peer p with a path through the listed routers ending at
// landmark 0.
func mustJoin(t *testing.T, s *Server, p pathtree.PeerID, routers ...topology.NodeID) {
	t.Helper()
	path := append(append([]topology.NodeID{}, routers...), 0)
	if _, err := s.JoinOp(op.Join(p, path, "", 0)); err != nil {
		t.Fatalf("Join(%d): %v", p, err)
	}
}

func TestJoinBatchMatchesSequentialJoins(t *testing.T) {
	batch := newTestServer(t, 0, 9)
	seq := newTestServer(t, 0, 9)
	items := []op.JoinEntry{
		{Peer: 1, Path: []topology.NodeID{5, 3, 0}},
		{Peer: 2, Path: []topology.NodeID{6, 3, 0}},
		{Peer: 3, Path: []topology.NodeID{7, 9}},
		{Peer: 4, Path: []topology.NodeID{5, 3, 0}},
	}
	res := batch.JoinBatchOp(op.BatchJoin(items, 0))
	if len(res) != len(items) {
		t.Fatalf("results=%d", len(res))
	}
	for i, it := range items {
		want, wantErr := seq.JoinOp(op.Join(it.Peer, it.Path, "", 0))
		if (res[i].Err == nil) != (wantErr == nil) {
			t.Fatalf("entry %d: err=%v want %v", i, res[i].Err, wantErr)
		}
		if len(res[i].Neighbors) != len(want) {
			t.Fatalf("entry %d: %d neighbours want %d", i, len(res[i].Neighbors), len(want))
		}
		for k := range want {
			if res[i].Neighbors[k] != want[k] {
				t.Fatalf("entry %d neighbour %d: %+v want %+v", i, k, res[i].Neighbors[k], want[k])
			}
		}
	}
	if batch.NumPeers() != seq.NumPeers() {
		t.Fatalf("peers=%d want %d", batch.NumPeers(), seq.NumPeers())
	}
}

func TestJoinBatchPartialFailure(t *testing.T) {
	s := newTestServer(t)
	res := s.JoinBatchOp(op.BatchJoin([]op.JoinEntry{
		{Peer: 1, Path: []topology.NodeID{4, 0}},
		{Peer: 2, Path: []topology.NodeID{4, 77}}, // unknown landmark
		{Peer: 3, Path: nil},                      // empty path
		{Peer: 4, Path: []topology.NodeID{5, 0}},
	}, 0))
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("good entries failed: %v %v", res[0].Err, res[3].Err)
	}
	if !errors.Is(res[1].Err, ErrUnknownLandmark) {
		t.Fatalf("entry 1 err=%v", res[1].Err)
	}
	if res[2].Err == nil {
		t.Fatal("empty path accepted")
	}
	if s.NumPeers() != 2 {
		t.Fatalf("peers=%d", s.NumPeers())
	}
	// The second good entry must see the first as a neighbour: entries are
	// applied in order within the single lock hold.
	if len(res[3].Neighbors) != 1 || res[3].Neighbors[0].Peer != 1 {
		t.Fatalf("entry 3 neighbours=%+v", res[3].Neighbors)
	}
}

func TestJoinBatchEmpty(t *testing.T) {
	s := newTestServer(t)
	if res := s.JoinBatchOp(op.BatchJoin(nil, 0)); len(res) != 0 {
		t.Fatalf("res=%v", res)
	}
}

// expire sweeps s's peers whose last refresh is older than ttl, as the
// cluster's Expire does: one KindExpire op whose time is the deadline.
func expire(s *Server, ttl time.Duration) []pathtree.PeerID {
	return s.ExpireOp(op.Expire(s.cfg.Clock().Add(-ttl).UnixNano()))
}
