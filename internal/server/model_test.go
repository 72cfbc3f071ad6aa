package server

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// checkState checks s, and with it the servers that share its index: every
// tree passes the trie invariant checker and its Len() counts its live
// records; every resident record is the one
// its peer's index entry names, so no peer is in two trees; and the index
// holds nothing else, so every entry names a live record of its peer in a
// tree one of them holds.
func (s *Server) checkState(sharing ...*Server) error {
	resident := 0
	for _, srv := range append(sharing, s) {
		srv.wmu.Lock()
		defer srv.wmu.Unlock()
		if srv.st.idx != s.st.idx {
			return fmt.Errorf("a server that does not share the index")
		}
		for lm, tree := range srv.st.trees {
			if err := tree.CheckInvariants(); err != nil {
				return fmt.Errorf("landmark %d: %w", lm, err)
			}
			records := 0
			for slot, rec := range tree.Records() {
				if r, ok := srv.st.idx.get(rec.ID); !ok || r != (ref{lm, slot}) {
					return fmt.Errorf("peer %d resident at %d/%d but indexed at %v (%v)", rec.ID, lm, slot, r, ok)
				}
				records++
			}
			if tree.Len() != records {
				return fmt.Errorf("landmark %d: Len() = %d, %d live records", lm, tree.Len(), records)
			}
			resident += records
		}
	}
	if indexed := s.st.idx.Len(); resident != indexed {
		return fmt.Errorf("%d records resident, %d peers indexed", resident, indexed)
	}
	return nil
}

// modelPeer is what the reference model knows of one registered peer: the
// arguments of the op that last wrote each field.
type modelPeer struct {
	path    []topology.NodeID
	addr    string
	super   bool
	refresh int64
}

// model is the brute-force reference: a map from peer to its last report,
// and the set of landmarks held.
type model struct {
	peers map[pathtree.PeerID]modelPeer
	lms   map[topology.NodeID]bool
}

func (m *model) clone() *model {
	c := &model{peers: make(map[pathtree.PeerID]modelPeer, len(m.peers)), lms: make(map[topology.NodeID]bool)}
	for p, mp := range m.peers {
		c.peers[p] = mp
	}
	for lm := range m.lms {
		c.lms[lm] = true
	}
	return c
}

func landmarkOf(path []topology.NodeID) topology.NodeID { return path[len(path)-1] }

// closest is the reference answer (pathtree/prop_test.go's bruteClosest,
// over the peers of one landmark and with addresses): every other peer's
// dtree to p by suffix matching of the two reported paths, fully sorted,
// first k kept.
func (m *model) closest(p pathtree.PeerID, k int) []pathtree.Candidate {
	mine := m.peers[p].path
	want := []pathtree.Candidate{}
	for q, mq := range m.peers {
		if q == p || landmarkOf(mq.path) != landmarkOf(mine) {
			continue
		}
		i, j := len(mine)-1, len(mq.path)-1
		for i >= 0 && j >= 0 && mine[i] == mq.path[j] {
			i, j = i-1, j-1
		}
		want = append(want, pathtree.Candidate{Peer: q, DTree: i + 1 + j + 1, Addr: mq.addr})
	}
	slices.SortFunc(want, func(a, b pathtree.Candidate) int {
		return cmp.Or(cmp.Compare(a.DTree, b.DTree), cmp.Compare(a.Peer, b.Peer))
	})
	return want[:min(k, len(want))]
}

// modelPath draws a short path through a small router universe under lm, so
// that peers share routers, attach at interior routers and collide on the
// same one.
func modelPath(rng *rand.Rand, lm topology.NodeID) []topology.NodeID {
	var path []topology.NodeID
	for r := topology.NodeID(1 + rng.Intn(120)); r > 0 && len(path) < 6; r /= topology.NodeID(2 + rng.Intn(3)) {
		path = append(path, 1000*(lm+1)+r)
	}
	return append(path, lm)
}

// modelAddr draws an address for p of a random length in 0..op.MaxAddrLen,
// so that re-joins move between the address pool's size classes and within
// one, and a stale byte shows.
func modelAddr(rng *rand.Rand, p pathtree.PeerID) string {
	return strings.Repeat(fmt.Sprintf("a%d.%d.", p, rng.Intn(1000)), op.MaxAddrLen)[:rng.Intn(op.MaxAddrLen+1)]
}

// TestStateMachineMatchesModel drives a server through seeded random steps —
// join, re-join under another path or another landmark, batch join with bad
// entries, leave, refresh, super-peer flag, expiry, a join on a second server
// over the same index under a landmark of its own, and re-joins back (each
// orphaning a record the other server retires), ResetFromSnapshot — and
// after every step requires: every tree passes CheckInvariants (pruning,
// chains, the four pools' accounting), counts its live records in Len() and
// agrees with the index; every peer's PeerInfo, path included, is what was
// last reported; and Lookup equals the brute-force answer.
func TestStateMachineMatchesModel(t *testing.T) {
	lms := []topology.NodeID{0, 1, 2}
	const awayLm = topology.NodeID(3) // the second server's landmark, which s refuses
	drawn := append(slices.Clone(lms), awayLm)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := int64(1_000_000)
		s, err := New(Config{
			Landmarks: lms, NeighborCount: 4,
			Clock: func() time.Time { return time.Unix(0, now) },
		})
		if err != nil {
			t.Fatal(err)
		}
		m := &model{peers: map[pathtree.PeerID]modelPeer{}, lms: map[topology.NodeID]bool{0: true, 1: true, 2: true}}
		var saved []byte // a whole-state snapshot taken at some earlier step
		var savedModel *model
		// away is a second server on s's index, holding awayLm; awayModel is
		// what the model knows of the peers that joined there. s does not
		// know those peers, and nothing expires them over there.
		var away *Server
		var awayModel map[pathtree.PeerID]modelPeer
		newAway := func() {
			if away, err = NewSharing(Config{Landmarks: []topology.NodeID{awayLm}}, s.st.idx); err != nil {
				t.Fatal(err)
			}
			awayModel = map[pathtree.PeerID]modelPeer{}
		}
		newAway()

		join := func(p pathtree.PeerID) op.JoinEntry {
			return op.JoinEntry{Peer: p, Path: modelPath(rng, drawn[rng.Intn(len(drawn))]), Addr: modelAddr(rng, p)}
		}
		// registered records an accepted join; settle, after the op it came
		// in, checks that the joins of peers that were away — and no others —
		// orphaned their records there, and retires them the way a cluster
		// would.
		rehomed := map[pathtree.PeerID]bool{}
		registered := func(e op.JoinEntry) {
			m.peers[e.Peer] = modelPeer{path: e.Path, addr: e.Addr, refresh: now}
			if _, wasAway := awayModel[e.Peer]; wasAway {
				rehomed[e.Peer] = true
				delete(awayModel, e.Peer)
			}
		}
		settle := func() {
			for _, o := range s.TakeOrphans() {
				first, err1 := away.Retire(o)
				again, err2 := away.Retire(o)
				if !rehomed[o.Peer] || !first || again || err1 != nil || err2 != nil {
					t.Fatalf("seed %d: orphan %+v: re-homed=%v, or not retired exactly once", seed, o, rehomed[o.Peer])
				}
				delete(rehomed, o.Peer)
			}
			if len(rehomed) != 0 {
				t.Fatalf("seed %d: joins of %v left no orphan", seed, rehomed)
			}
		}
		for step := 0; step < 400; step++ {
			now += int64(1 + rng.Intn(3))
			p := pathtree.PeerID(1 + rng.Intn(60))
			desc := ""
			switch r := rng.Intn(100); {
			case r < 40: // join, or re-join wherever the new path leads
				e := join(p)
				desc = fmt.Sprintf("join %d %v", p, e.Path)
				want := []pathtree.Candidate{}
				if m.lms[landmarkOf(e.Path)] {
					probe := m.clone()
					probe.peers[p] = modelPeer{path: e.Path}
					want = probe.closest(p, 4)
				}
				got, err := s.JoinOp(op.Op{Kind: op.KindJoin, Join: e})
				if ok := m.lms[landmarkOf(e.Path)]; ok != (err == nil) {
					t.Fatalf("seed %d step %d %s: err=%v, landmark held=%v", seed, step, desc, err, ok)
				} else if ok {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d %s:\ngot  %v\nwant %v", seed, step, desc, got, want)
					}
					registered(e)
					settle()
				}
			case r < 50: // a batch: good entries, a repeated peer, and two bad ones
				es := []op.JoinEntry{join(p), join(p + 1), {Peer: p + 2, Path: []topology.NodeID{7, 7, 0}}, join(p), {Peer: p + 3}}
				desc = fmt.Sprintf("batch from %d", p)
				for i, res := range s.JoinBatchOp(op.BatchJoin(es, 0)) {
					good := len(es[i].Path) > 0 && es[i].Path[0] != 7 && m.lms[landmarkOf(es[i].Path)]
					if good != (res.Err == nil) {
						t.Fatalf("seed %d step %d %s: entry %d err=%v, want accepted=%v", seed, step, desc, i, res.Err, good)
					}
					if good {
						registered(es[i])
					}
				}
				settle()
			case r < 62:
				desc = fmt.Sprintf("leave %d", p)
				_, known := m.peers[p]
				if s.Leave(p) != known {
					t.Fatalf("seed %d step %d %s: known=%v", seed, step, desc, known)
				}
				delete(m.peers, p)
			case r < 72:
				desc = fmt.Sprintf("refresh %d", p)
				mp, known := m.peers[p]
				if err := s.Refresh(p); (err == nil) != known {
					t.Fatalf("seed %d step %d %s: err=%v known=%v", seed, step, desc, err, known)
				}
				if known {
					mp.refresh = now
					m.peers[p] = mp
				}
			case r < 80:
				desc = fmt.Sprintf("super %d", p)
				mp, known := m.peers[p]
				flag := rng.Intn(2) == 0
				if err := s.Apply(op.SetSuperPeer(p, flag)); (err == nil) != known {
					t.Fatalf("seed %d step %d %s: err=%v known=%v", seed, step, desc, err, known)
				}
				if known {
					mp.super = flag
					m.peers[p] = mp
				}
			case r < 86:
				desc = "expire"
				var want []pathtree.PeerID
				for q, mq := range m.peers {
					if mq.refresh < now-40 {
						want = append(want, q)
						delete(m.peers, q)
					}
				}
				slices.Sort(want)
				if got := expire(s, 40); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d expire: got %v want %v", seed, step, got, want)
				}
			case r < 94: // a join on the server beside, orphaning p's record here
				e := op.JoinEntry{Peer: p, Path: modelPath(rng, awayLm), Addr: modelAddr(rng, p)}
				desc = fmt.Sprintf("join %d beside %v", p, e.Path)
				if _, err := away.JoinOp(op.Op{Kind: op.KindJoin, Join: e}); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, desc, err)
				}
				_, here := m.peers[p]
				for _, o := range away.TakeOrphans() {
					first, err1 := s.Retire(o)
					again, err2 := s.Retire(o)
					if !here || o.Peer != p || !first || again || err1 != nil || err2 != nil {
						t.Fatalf("seed %d step %d %s: orphan %+v: was here=%v, or not retired exactly once", seed, step, desc, o, here)
					}
					here = false
				}
				if here {
					t.Fatalf("seed %d step %d %s: the join left no orphan here", seed, step, desc)
				}
				delete(m.peers, p)
				awayModel[p] = modelPeer{path: e.Path, addr: e.Addr, refresh: now}
			case r < 97:
				desc = "save"
				var buf bytes.Buffer
				if err := WriteSnapshot(&buf, s); err != nil {
					t.Fatal(err)
				}
				saved, savedModel = buf.Bytes(), m.clone()
			default:
				desc = "reset"
				if saved == nil {
					break
				}
				if err := s.ResetFromSnapshot(bytes.NewReader(saved)); err != nil {
					t.Fatal(err)
				}
				m = savedModel.clone()
				for _, lm := range lms { // the configured set comes back with a reset
					m.lms[lm] = true
				}
				newAway() // and the index is a new one: what was away is gone
			}

			if err := s.checkState(away); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, desc, err)
			}
			if s.NumPeers() != len(m.peers) {
				t.Fatalf("seed %d step %d %s: %d peers, model holds %d", seed, step, desc, s.NumPeers(), len(m.peers))
			}
			if away.NumPeers() != len(awayModel) {
				t.Fatalf("seed %d step %d %s: %d peers away, model holds %d", seed, step, desc, away.NumPeers(), len(awayModel))
			}
			for q := range awayModel { // a peer that is away is not known here
				if _, err := s.Lookup(q); !errors.Is(err, ErrUnknownPeer) {
					t.Fatalf("seed %d step %d %s: Lookup(%d) of a peer that is away: %v", seed, step, desc, q, err)
				}
			}
			for q, mq := range m.peers {
				want := PeerInfo{ID: q, Landmark: landmarkOf(mq.path), Path: mq.path, Addr: mq.addr,
					SuperPeer: mq.super, LastRefresh: time.Unix(0, mq.refresh)}
				if got, err := s.PeerInfo(q); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d %s: PeerInfo(%d)\ngot  %+v, %v\nwant %+v", seed, step, desc, q, got, err, want)
				}
				if got, err := s.Lookup(q); err != nil || !reflect.DeepEqual(got, m.closest(q, 4)) {
					t.Fatalf("seed %d step %d %s: Lookup(%d)\ngot  %v, %v\nwant %v", seed, step, desc, q, got, err, m.closest(q, 4))
				}
			}
		}
	}
}

// TestChurnRecyclesSlots churns a fixed population ten times over — every
// peer leaves and re-joins, in a fresh random order each round, as the first
// fill was — and requires each pool of each tree to stay within one chunk of
// what the first fill carved: records and the runs of trie nodes come back
// from the free lists instead of being carved anew. Each peer re-joins with an
// address of the length it left with, so the address pool's high-water mark
// does not move at all: every run comes back from its size class's list. (A
// node's children are one run, recycled by exact size, so what a fill carves
// depends on how many nodes pass through each size at once: peers arriving in
// path order carve less than peers arriving in random order, which is why the
// first fill is shuffled too.)
func TestChurnRecyclesSlots(t *testing.T) {
	const peers = 12_000
	s, err := New(Config{Landmarks: residentLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	joins := make([]op.Op, peers)
	for i := range joins {
		joins[i] = residentJoin(i)
	}
	for _, i := range rng.Perm(peers) {
		if _, err := s.JoinOp(joins[i]); err != nil {
			t.Fatal(err)
		}
	}
	carved := func() map[string]pathtree.ArenaStats {
		out := map[string]pathtree.ArenaStats{}
		for lm, tree := range s.st.trees {
			out[fmt.Sprintf("landmark %d", lm)] = tree.ArenaStats()
		}
		return out
	}
	first := carved()
	for round := 0; round < 10; round++ {
		for _, i := range rng.Perm(peers) {
			if !s.Leave(joins[i].Join.Peer) {
				t.Fatalf("round %d: peer %d not registered", round, joins[i].Join.Peer)
			}
		}
		for _, i := range rng.Perm(peers) {
			if _, err := s.JoinOp(joins[i]); err != nil {
				t.Fatal(err)
			}
		}
		for where, now := range carved() {
			was := first[where]
			if now.Records > was.Records+256 || now.Allocated > was.Allocated+256 ||
				now.AddrBytes != was.AddrBytes {
				t.Fatalf("round %d, %s: carved %+v, first fill carved %+v", round, where, now, was)
			}
		}
	}
	if err := s.checkState(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupNeverSeesRecycledSlot is the server-level twin of pathtree's
// TestConcurrentChurnQueryNeverSeesRecycled: writers churn peers in and out,
// recycling records, nodes and child runs the whole time, while readers look
// up a stable population beside them. Every answer must be well
// formed — distinct candidates, sorted, none the asker — and every candidate
// must carry the address its ID was registered with, which fails if a reader
// ever follows a slot that was recycled under it. Run with -race for the
// full guarantee: a writer touching the state outside the state lock is a
// data race with them.
func TestLookupNeverSeesRecycledSlot(t *testing.T) {
	const landmark topology.NodeID = 9
	const stable = 60
	addrOf := func(p pathtree.PeerID) string { return fmt.Sprintf("peer-%d:1", p) }
	s, err := New(Config{Landmarks: []topology.NodeID{landmark}, NeighborCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= stable; i++ {
		p := pathtree.PeerID(i)
		if _, err := s.JoinOp(op.Join(p, churnPath(landmark, i), addrOf(p), 0)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for r := 0; !stop.Load(); r++ {
				// Churners share the stable peers' upper routers, so pruning
				// and re-creating their branches rewrites child runs the
				// readers' searches pass through.
				p := pathtree.PeerID(10_000*(w+1) + r%300)
				if _, err := s.JoinOp(op.Join(p, churnPath(landmark, int(p)), addrOf(p), 0)); err != nil {
					t.Error(err)
					return
				}
				if r%4 != 0 {
					s.Leave(p)
				}
			}
		}(w)
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				p := pathtree.PeerID(1 + rng.Intn(stable))
				got, err := s.Lookup(p)
				if err != nil {
					t.Errorf("lookup(%d): %v", p, err)
					return
				}
				for j, c := range got {
					if c.Peer == p || c.Addr != addrOf(c.Peer) || c.DTree < 0 || c.DTree > 6 ||
						(j > 0 && (got[j-1].DTree > c.DTree || got[j-1].Peer == c.Peer)) {
						t.Errorf("lookup(%d) malformed at %d: %+v", p, j, got)
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if err := s.checkState(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchSkipsBadEntries: a replayed batch is tolerant — an entry
// that fails the door check or names a landmark not held here is skipped,
// the rest apply.
func TestApplyBatchSkipsBadEntries(t *testing.T) {
	s := newTestServer(t)
	err := s.Apply(op.BatchJoin([]op.JoinEntry{
		{Peer: 1, Path: []topology.NodeID{4, 0}},
		{Peer: 2, Path: []topology.NodeID{4, 4, 0}}, // repeated router
		{Peer: 3}, // empty path
		{Peer: 4, Path: []topology.NodeID{4, 77}}, // landmark not held
		{Peer: 5, Path: []topology.NodeID{5, 0}},
	}, 9))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Peers(); !slices.Equal(got, []pathtree.PeerID{1, 5}) {
		t.Fatalf("peers %v, want [1 5]", got)
	}
	if err := s.checkState(); err != nil {
		t.Fatal(err)
	}
}
