package sub

import (
	"reflect"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// testWorld drives a real server (the ground truth every subscription
// diffs against) and mirrors each applied op into the plane, in the same
// apply-then-commit order the cluster tap guarantees.
type testWorld struct {
	t   *testing.T
	srv *server.Server
	p   *Plane
	seq uint64
}

func newWorld(t *testing.T, k int) *testWorld {
	t.Helper()
	srv, err := server.New(server.Config{Landmarks: []topology.NodeID{0, 100}, NeighborCount: k})
	if err != nil {
		t.Fatal(err)
	}
	p := New(srv, nil)
	t.Cleanup(p.Close)
	return &testWorld{t: t, srv: srv, p: p}
}

func (w *testWorld) apply(o op.Op) {
	w.t.Helper()
	if o.Time == 0 {
		o.Time = 1
	}
	if err := w.srv.Apply(o); err != nil {
		w.t.Fatalf("apply %v: %v", o.Kind, err)
	}
	w.seq++
	w.p.FeedOp(w.seq, o)
}

func (w *testWorld) join(peer pathtree.PeerID, path ...topology.NodeID) {
	w.apply(op.Op{Kind: op.KindJoin, Peer: peer, Join: op.JoinEntry{Peer: peer, Path: path}})
}

func (w *testWorld) leave(peer pathtree.PeerID) {
	w.apply(op.Op{Kind: op.KindLeave, Peer: peer})
}

// drain collects queued events until the subscriber goes quiet.
func drain(t *testing.T, s *Subscriber) []Event {
	t.Helper()
	var evs []Event
	deadline := time.After(2 * time.Second)
	quiet := 0
	for quiet < 10 {
		if ev, ok := s.Take(); ok {
			evs = append(evs, ev)
			quiet = 0
			continue
		}
		select {
		case <-s.Ready():
		case <-deadline:
			t.Fatal("drain timed out")
		case <-time.After(5 * time.Millisecond):
			quiet++
		}
	}
	return evs
}

// applyEvents folds a delta stream onto a cached answer the way the
// client does: enter/update upsert, leave deletes (a leave naming the
// subscription's own subject empties the whole cache), resync replaces.
func applyEvents(subject pathtree.PeerID, cache map[pathtree.PeerID]int, evs []Event) map[pathtree.PeerID]int {
	for _, ev := range evs {
		switch ev.Kind {
		case proto.EventEnter, proto.EventUpdate:
			cache[ev.Peer] = ev.DTree
		case proto.EventLeave:
			if ev.Peer == subject {
				for k := range cache {
					delete(cache, k)
				}
				continue
			}
			delete(cache, ev.Peer)
		case proto.EventResync:
			for k := range cache {
				delete(cache, k)
			}
			for _, c := range ev.Neighbors {
				cache[c.Peer] = c.DTree
			}
		}
	}
	return cache
}

func asSet(cands []pathtree.Candidate) map[pathtree.PeerID]int {
	m := make(map[pathtree.PeerID]int, len(cands))
	for _, c := range cands {
		m[c.Peer] = c.DTree
	}
	return m
}

// checkCoherent asserts the event-folded cache equals a fresh lookup.
func (w *testWorld) checkCoherent(s *Subscriber, cache map[pathtree.PeerID]int) {
	w.t.Helper()
	cache = applyEvents(s.query.Peer, cache, drain(w.t, s))
	fresh, err := w.srv.Lookup(s.query.Peer)
	if err != nil {
		if isUnknownPeer(err) {
			if len(cache) != 0 {
				w.t.Fatalf("subject gone but cache kept %v", cache)
			}
			return
		}
		w.t.Fatal(err)
	}
	if k := s.k; k < len(fresh) {
		fresh = fresh[:k]
	}
	if want := asSet(fresh); !reflect.DeepEqual(cache, want) {
		w.t.Fatalf("cache diverged: got %v want %v", cache, want)
	}
}

func TestKClosestTracksChurn(t *testing.T) {
	w := newWorld(t, 3)
	w.join(1, 10, 5, 0)
	sub, snap, _, err := w.p.Add(Query{Kind: proto.QueryKClosest, Peer: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := asSet(snap)
	if len(cache) != 0 {
		t.Fatalf("lone subject has neighbours: %v", snap)
	}

	// Near and far joins in the subject's tree, plus one in another tree
	// that must never surface.
	w.join(2, 11, 5, 0)
	w.join(3, 12, 6, 0)
	w.join(4, 13, 7, 0)
	w.join(5, 14, 8, 0)
	w.join(6, 50, 100)
	w.checkCoherent(sub, cache)

	// A closer rejoin displaces the worst answer.
	w.join(5, 15, 5, 0)
	w.checkCoherent(sub, cache)

	// A set member leaving opens a slot for the displaced peer.
	w.leave(2)
	w.checkCoherent(sub, cache)

	// Subject leaves: the cache must empty (leave-of-subject event).
	w.leave(1)
	w.checkCoherent(sub, cache)

	// Subject rejoins: the answer rebuilds from enters.
	w.join(1, 10, 5, 0)
	w.checkCoherent(sub, cache)
}

func TestKClosestSubjectRejoinWithNewPath(t *testing.T) {
	w := newWorld(t, 2)
	w.join(1, 10, 5, 0)
	w.join(2, 11, 5, 0)
	w.join(3, 20, 8, 0)
	sub, snap, _, err := w.p.Add(Query{Kind: proto.QueryKClosest, Peer: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := asSet(snap)
	// The subject moves across the tree; distances to everyone change.
	w.join(1, 21, 8, 0)
	w.checkCoherent(sub, cache)
	// A join near the subject's NEW position must be seen (stale subject
	// path would mis-skip it).
	w.join(4, 22, 8, 0)
	w.checkCoherent(sub, cache)
}

func TestExpireReevaluates(t *testing.T) {
	w := newWorld(t, 3)
	w.join(1, 10, 5, 0)
	w.join(2, 11, 5, 0)
	sub, snap, _, err := w.p.Add(Query{Kind: proto.QueryKClosest, Peer: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := asSet(snap)
	// Remove peer 2 behind the plane's back, then feed the deadline-only
	// expire op; the conservative re-eval must notice.
	if err := w.srv.Apply(op.Op{Kind: op.KindLeave, Time: 1, Peer: 2}); err != nil {
		t.Fatal(err)
	}
	w.seq++
	w.p.FeedOp(w.seq, op.Op{Kind: op.KindExpire, Time: 99})
	w.checkCoherent(sub, cache)
}

func TestPeerQueryLifecycle(t *testing.T) {
	w := newWorld(t, 3)
	sub, _, _, err := w.p.Add(Query{Kind: proto.QueryPeer, Peer: 7})
	if err != nil {
		t.Fatal(err)
	}
	w.join(7, 10, 5, 0)
	w.join(7, 11, 5, 0) // rejoin → update
	w.leave(7)
	evs := drain(t, sub)
	kinds := make([]uint8, len(evs))
	for i, ev := range evs {
		kinds[i] = ev.Kind
		if ev.Peer != 7 {
			t.Fatalf("event for wrong peer: %+v", ev)
		}
	}
	want := []uint8{proto.EventEnter, proto.EventUpdate, proto.EventLeave}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("peer lifecycle kinds = %v, want %v", kinds, want)
	}
}

func TestLandmarkQueryMembership(t *testing.T) {
	w := newWorld(t, 3)
	sub, _, _, err := w.p.Add(Query{Kind: proto.QueryLandmark, Landmark: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := w.p.Add(Query{Kind: proto.QueryLandmark, Landmark: 42}); err == nil {
		t.Fatal("unknown landmark accepted")
	}
	w.join(1, 10, 5, 0) // other tree: invisible
	w.join(2, 50, 100)  // enter
	w.join(2, 51, 100)  // update
	w.leave(2)          // leave
	w.leave(1)          // not a member: no event
	evs := drain(t, sub)
	want := []uint8{proto.EventEnter, proto.EventUpdate, proto.EventLeave}
	if len(evs) != len(want) {
		t.Fatalf("got %d events %v, want kinds %v", len(evs), evs, want)
	}
	for i, ev := range evs {
		if ev.Kind != want[i] || ev.Peer != 2 {
			t.Fatalf("event %d = %+v, want kind %d peer 2", i, ev, want[i])
		}
	}
}

// TestRingOverflowPolicy pins the slow-consumer contract on the queue
// itself: coalesce same-peer events on a full ring, then drop the whole
// backlog into one resync when even coalescing cannot make room.
func TestRingOverflowPolicy(t *testing.T) {
	w := newWorld(t, 3)
	w.join(1, 10, 5, 0)
	sub, _, _, err := w.p.Add(Query{Kind: proto.QueryKClosest, Peer: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ringCap; i++ {
		if sub.push(Event{Kind: proto.EventEnter, Peer: pathtree.PeerID(1000 + i)}) {
			t.Fatalf("resync requested before the ring filled (event %d)", i)
		}
	}
	// Full ring, same-peer event: coalesces in place.
	if sub.push(Event{Kind: proto.EventUpdate, Peer: 1000, DTree: 7}) {
		t.Fatal("coalescible event requested a resync")
	}
	if w.p.coalesced.Value() != 1 {
		t.Fatalf("coalesced = %d, want 1", w.p.coalesced.Value())
	}
	// Full ring, fresh peer: the backlog drops and the caller must resync.
	if !sub.push(Event{Kind: proto.EventEnter, Peer: 99}) {
		t.Fatal("uncoalescible event on a full ring must request a resync")
	}
	if w.p.dropped.Value() != 1 {
		t.Fatalf("dropped = %d, want 1", w.p.dropped.Value())
	}
	w.p.mu.Lock()
	w.p.resyncOne(sub, 42)
	w.p.mu.Unlock()
	ev, ok := sub.Take()
	if !ok || ev.Kind != proto.EventResync || ev.Seq != 42 {
		t.Fatalf("want resync event, got %+v ok=%v", ev, ok)
	}
	if extra, ok := sub.Take(); ok {
		t.Fatalf("backlog survived the drop: %+v", extra)
	}
	if w.p.resyncs.Value() != 1 {
		t.Fatalf("resyncs = %d, want 1", w.p.resyncs.Value())
	}
}

// TestFeedOverflowResyncsAll fills the feed channel while the dispatcher
// is busy enough to drop, then checks subscribers still converge.
func TestFeedOverflowResyncsAll(t *testing.T) {
	w := newWorld(t, 3)
	w.join(1, 10, 5, 0)
	sub, snap, _, err := w.p.Add(Query{Kind: proto.QueryKClosest, Peer: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := asSet(snap)
	// Mutate the backend without feeding (a lost stretch of the stream),
	// then signal staleness the way a snapshot restore does.
	if err := w.srv.Apply(op.Op{Kind: op.KindJoin, Time: 1, Peer: 2, Join: op.JoinEntry{Peer: 2, Path: []topology.NodeID{11, 5, 0}}}); err != nil {
		t.Fatal(err)
	}
	w.p.ResyncAll()
	w.checkCoherent(sub, cache)
}

// TestResyncOfGoneSubjectOrphans pins what a k-closest subscriber is told
// when a resync finds its subject gone: the subject's leave, which voids
// the client's cache and marks it orphaned, not an empty resync, which a
// client reads as a registered subject with no neighbours. The feed that
// forces the resync runs behind the backend, as a watermark-only record
// racing a first subscriber does: the leave is applied before the plane
// resyncs and fed after it.
func TestResyncOfGoneSubjectOrphans(t *testing.T) {
	w := newWorld(t, 3)
	w.join(1, 10, 5, 0)
	w.join(2, 11, 5, 0)
	sub, snap, _, err := w.p.Add(Query{Kind: proto.QueryKClosest, Peer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Fatalf("snapshot %v, want peer 2", snap)
	}
	leave := op.Op{Kind: op.KindLeave, Time: 1, Peer: 1}
	if err := w.srv.Apply(leave); err != nil {
		t.Fatal(err)
	}
	w.p.ResyncAll()
	w.seq++
	w.p.FeedOp(w.seq, leave)
	// Which of the resync and the fed leave the dispatcher takes first is
	// its choice; either way the subscriber hears the subject's leave, once
	// or twice, and nothing else.
	evs := drain(t, sub)
	for _, ev := range evs {
		if ev.Kind != proto.EventLeave || ev.Peer != 1 {
			t.Fatalf("events %+v, want only the subject's leave", evs)
		}
	}
	if len(evs) == 0 {
		t.Fatal("the subject left and the subscriber heard nothing")
	}

	// Back again, the subject's answer rebuilds from deltas.
	w.join(1, 10, 5, 0)
	w.checkCoherent(sub, map[pathtree.PeerID]int{})
}

func TestPathDTree(t *testing.T) {
	cases := []struct {
		a, b []topology.NodeID
		want int
	}{
		{[]topology.NodeID{10, 5, 0}, []topology.NodeID{11, 5, 0}, 2},
		{[]topology.NodeID{10, 5, 0}, []topology.NodeID{10, 5, 0}, 0},
		{[]topology.NodeID{10, 5, 0}, []topology.NodeID{12, 6, 0}, 4},
		{[]topology.NodeID{9, 10, 5, 0}, []topology.NodeID{11, 5, 0}, 3},
	}
	for _, c := range cases {
		if got := pathDTree(c.a, c.b); got != c.want {
			t.Fatalf("pathDTree(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestPathDTreeMatchesTree cross-checks the suffix formula against the
// trie's own distance on a real tree.
func TestPathDTreeMatchesTree(t *testing.T) {
	tree := pathtree.New(0, pathtree.Options{})
	paths := map[pathtree.PeerID][]topology.NodeID{
		1: {10, 5, 0},
		2: {11, 5, 0},
		3: {12, 6, 0},
		4: {9, 10, 5, 0},
		5: {14, 8, 0},
	}
	for p, path := range paths {
		if err := tree.Insert(p, path); err != nil {
			t.Fatalf("insert %d: %v", p, err)
		}
	}
	for p, pp := range paths {
		for q, qp := range paths {
			want, err := tree.DTree(p, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := pathDTree(pp, qp); got != want {
				t.Fatalf("pathDTree(%d,%d) = %d, tree says %d", p, q, got, want)
			}
		}
	}
}

func TestAddUnknownSubject(t *testing.T) {
	w := newWorld(t, 3)
	if _, _, _, err := w.p.Add(Query{Kind: proto.QueryKClosest, Peer: 404}); !isUnknownPeer(err) {
		t.Fatalf("want unknown-peer error, got %v", err)
	}
	// A peer query on an absent subject is fine — it is a watch for the
	// peer's arrival.
	if _, _, _, err := w.p.Add(Query{Kind: proto.QueryPeer, Peer: 404}); err != nil {
		t.Fatal(err)
	}
}
