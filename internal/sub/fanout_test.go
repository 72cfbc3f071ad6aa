package sub

import (
	"runtime"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// TestFanoutAllocs pins the dispatch hot path at steady state: one committed
// op evaluated against every registered filter, and one event pushed into
// each subscriber's fixed ring and taken out again, allocates nothing — for
// 1, 16 and 128 subscribers. A refresh of the watched peer is the leanest
// delta: no backend lookup, one update event per subscriber.
func TestFanoutAllocs(t *testing.T) {
	const subject = pathtree.PeerID(1)
	refresh := op.Refresh(subject, 1)
	for _, n := range []int{1, 16, 128} {
		srv, err := server.New(server.Config{Landmarks: []topology.NodeID{0}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Join(subject, []topology.NodeID{5, 3, 0}); err != nil {
			t.Fatal(err)
		}
		p := New(srv, nil)
		subs := make([]*Subscriber, n)
		for i := range subs {
			if subs[i], _, _, err = p.Add(Query{Kind: proto.QueryPeer, Peer: subject}); err != nil {
				t.Fatal(err)
			}
		}
		var seq uint64
		feed := func() {
			seq++
			p.FeedOp(seq, refresh)
			for _, s := range subs {
				for {
					if _, ok := s.Take(); ok {
						break
					}
					runtime.Gosched()
				}
			}
		}
		// The first dispatches grow the dispatcher's stack; after them the
		// rings and the filters' state are only reused.
		for i := 0; i < 64; i++ {
			feed()
		}
		allocs := testing.AllocsPerRun(200, feed)
		p.Close()
		if allocs != 0 {
			t.Errorf("%d subscribers: one op fanned out allocates %v times, want 0", n, allocs)
		}
	}
}
