package cluster

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
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// checkIndex checks the node's one peer index against its shards, from the
// outside: every live record's ID has an entry, the entry names a landmark
// held by the server the record is in — which is the landmark's owner by the
// table — and resolves there to a record carrying that ID; no ID is resident
// twice, on one shard or on two; and the index holds nothing else. Each
// shard's NumPeers, the sum of its trees' Len(), counts exactly its live
// records. Every landmark has exactly one holder.
func checkIndex(c *Cluster) error {
	holder := make(map[topology.NodeID]int)
	for i := range c.shards {
		for _, lm := range c.shards[i].srv.Landmarks() {
			if j, dup := holder[lm]; dup {
				return fmt.Errorf("landmark %d held by shards %d and %d", lm, j, i)
			}
			holder[lm] = i
			if owner, ok := c.table[lm]; !ok || owner != i {
				return fmt.Errorf("landmark %d held by shard %d, the table says %d (%v)", lm, i, owner, ok)
			}
		}
	}
	if len(holder) != len(c.Landmarks()) {
		return fmt.Errorf("%d landmarks held, %d served", len(holder), len(c.Landmarks()))
	}
	resident := make(map[pathtree.PeerID]int)
	for i := range c.shards {
		peers := c.shards[i].srv.Peers()
		if n := c.shards[i].srv.NumPeers(); n != len(peers) {
			return fmt.Errorf("shard %d: NumPeers %d, %d live records", i, n, len(peers))
		}
		for _, p := range peers {
			if j, dup := resident[p]; dup {
				return fmt.Errorf("peer %d resident on shard %d and again on shard %d", p, j, i)
			}
			resident[p] = i
			lm, _, ok := c.idx.Load().Place(p)
			if !ok || holder[lm] != i {
				return fmt.Errorf("peer %d resident on shard %d, indexed under landmark %d (%v) of shard %d", p, i, lm, ok, holder[lm])
			}
			info, err := c.shards[i].srv.PeerInfo(p)
			if err != nil || info.Landmark != lm {
				return fmt.Errorf("peer %d's entry resolves on shard %d to %+v, %v", p, i, info, err)
			}
		}
	}
	if n := c.idx.Load().Len(); n != len(resident) || c.NumPeers() != n {
		return fmt.Errorf("%d entries, %d records resident, NumPeers %d", n, len(resident), c.NumPeers())
	}
	return nil
}

// nodePeer is what the reference model knows of one registered peer.
type nodePeer struct {
	path    []topology.NodeID
	addr    string
	super   bool
	refresh int64
}

// nodeModel is the brute-force reference for a whole node (the cluster-level
// copy of server/model_test.go's): a map from peer to its last report. A
// node holds every landmark at every moment, whichever shard has it.
type nodeModel map[pathtree.PeerID]nodePeer

// closest is the reference answer: every other peer under p's landmark, its
// dtree to p by suffix matching of the two reported paths, fully sorted,
// first k kept.
func (m nodeModel) closest(p pathtree.PeerID, k int) []pathtree.Candidate {
	mine := m[p].path
	want := []pathtree.Candidate{}
	for q, mq := range m {
		if q == p || mq.path[len(mq.path)-1] != mine[len(mine)-1] {
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

// TestClusterMatchesModel drives a 4-shard node over 8 landmarks through
// seeded random steps — join, re-join under a landmark of another shard,
// batch join with an in-batch duplicate and bad entries, leave, refresh,
// super-peer flag, expiry, an older build's move record — and after every
// step requires
// checkIndex, NumPeers equal to the model's, and every peer's PeerInfo and
// Lookup equal to the brute-force reference. The last seed runs durable, and
// the directory it leaves must recover to the same bytes.
func TestClusterMatchesModel(t *testing.T) {
	const k = 4
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := int64(1_000_000)
		cfg := Config{
			Landmarks: testLandmarks, Shards: 4, NeighborCount: k, PeerTTL: 60,
			Clock: func() time.Time { return time.Unix(0, now) },
		}
		if seed == 3 {
			cfg.DataDir, cfg.NoSync = t.TempDir(), true
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := nodeModel{}
		// Addresses are of a random length in 0..op.MaxAddrLen, so re-joins
		// move between the address pools' size classes and within one.
		entry := func(p pathtree.PeerID, lm topology.NodeID) op.JoinEntry {
			addr := strings.Repeat(fmt.Sprintf("a%d.%d.", p, rng.Intn(1000)), op.MaxAddrLen)[:rng.Intn(op.MaxAddrLen+1)]
			return op.JoinEntry{Peer: p, Path: synthPath(lm, rng.Intn(40)), Addr: addr}
		}
		anyLandmark := func() topology.NodeID { return testLandmarks[rng.Intn(len(testLandmarks))] }
		for step := 0; step < 300; step++ {
			now += int64(1 + rng.Intn(3))
			p := pathtree.PeerID(1 + rng.Intn(50))
			desc := ""
			switch r := rng.Intn(100); {
			case r < 35: // join, or re-join wherever the new path leads
				lm := anyLandmark()
				if mp, known := m[p]; known && r < 12 { // somewhere on another shard
					was := c.table[mp.path[len(mp.path)-1]]
					for s := c.table[lm]; s == was; s = c.table[lm] {
						lm = anyLandmark()
					}
				}
				e := entry(p, lm)
				desc = fmt.Sprintf("join %d %v", p, e.Path)
				probe := nodeModel{p: {path: e.Path}}
				for q, mq := range m {
					if q != p {
						probe[q] = mq
					}
				}
				got, err := c.JoinOp(op.Op{Kind: op.KindJoin, Join: e})
				if want := probe.closest(p, k); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d %s:\ngot  %v, %v\nwant %v", seed, step, desc, got, err, want)
				}
				m[p] = nodePeer{path: e.Path, addr: e.Addr, refresh: now}
			case r < 50: // a batch: good entries, a repeated peer, and three bad ones
				es := []op.JoinEntry{entry(p, anyLandmark()), entry(p+1, anyLandmark()),
					{Peer: p + 2, Path: []topology.NodeID{7, 7, 0}}, entry(p, anyLandmark()),
					{Peer: p + 3}, {Peer: p + 4, Path: []topology.NodeID{5, 999}}, entry(p+5, anyLandmark())}
				desc = fmt.Sprintf("batch from %d", p)
				for i, res := range c.JoinBatchOp(op.BatchJoin(es, 0)) {
					good := i != 2 && i != 4 && i != 5
					if good != (res.Err == nil) {
						t.Fatalf("seed %d step %d %s: entry %d err=%v, want accepted=%v", seed, step, desc, i, res.Err, good)
					}
					if good {
						m[es[i].Peer] = nodePeer{path: es[i].Path, addr: es[i].Addr, refresh: now}
					}
				}
			case r < 60:
				desc = fmt.Sprintf("leave %d", p)
				_, known := m[p]
				if c.Leave(p) != known {
					t.Fatalf("seed %d step %d %s: known=%v", seed, step, desc, known)
				}
				delete(m, p)
			case r < 68:
				desc = fmt.Sprintf("refresh %d", p)
				mp, known := m[p]
				if err := c.Refresh(p); (err == nil) != known || (err != nil && !errors.Is(err, server.ErrUnknownPeer)) {
					t.Fatalf("seed %d step %d %s: err=%v known=%v", seed, step, desc, err, known)
				}
				if known {
					mp.refresh = now
					m[p] = mp
				}
			case r < 75:
				desc = fmt.Sprintf("super %d", p)
				mp, known := m[p]
				flag := rng.Intn(2) == 0
				if err := c.SetSuperPeer(p, flag); (err == nil) != known {
					t.Fatalf("seed %d step %d %s: err=%v known=%v", seed, step, desc, err, known)
				}
				if known {
					mp.super = flag
					m[p] = mp
				}
			case r < 82:
				desc = "expire"
				var want []pathtree.PeerID
				for q, mq := range m {
					if mq.refresh < now-60 {
						want = append(want, q)
						delete(m, q)
					}
				}
				slices.Sort(want)
				if got := c.Expire(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d expire: got %v want %v", seed, step, got, want)
				}
			default: // a move an older build logged: applied, and the table stays
				lm, dst := anyLandmark(), rng.Intn(c.NumShards())
				desc = fmt.Sprintf("move record %d to shard %d", lm, dst)
				owner := c.table[lm]
				if err := c.Apply(op.Op{Kind: op.KindMoveLandmark, Move: op.MoveEntry{Landmark: lm, Src: owner, Dst: dst, Epoch: uint64(1 + step)}}); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, desc, err)
				}
				if got := c.table[lm]; got != owner {
					t.Fatalf("seed %d step %d %s: landmark on shard %d, want %d", seed, step, desc, got, owner)
				}
			}

			if err := checkIndex(c); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, desc, err)
			}
			if c.NumPeers() != len(m) {
				t.Fatalf("seed %d step %d %s: %d peers, model holds %d", seed, step, desc, c.NumPeers(), len(m))
			}
			for q, mq := range m {
				want := server.PeerInfo{Landmark: mq.path[len(mq.path)-1], Path: mq.path, Addr: mq.addr,
					SuperPeer: mq.super, LastRefresh: time.Unix(0, mq.refresh)}
				if got, err := c.PeerInfo(q); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d %s: PeerInfo(%d)\ngot  %+v, %v\nwant %+v", seed, step, desc, q, got, err, want)
				}
				if got, err := c.Lookup(q); err != nil || !reflect.DeepEqual(got, m.closest(q, k)) {
					t.Fatalf("seed %d step %d %s: Lookup(%d)\ngot  %v, %v\nwant %v", seed, step, desc, q, got, err, m.closest(q, k))
				}
			}
		}
		if !c.Durable() {
			continue
		}
		// Replay — batches group by shard as they did live, moves hand trees
		// over — must rebuild the same state under the same index rules.
		var want, got bytes.Buffer
		if err := c.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		c = nil // crash
		re, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		if err := checkIndex(re); err != nil {
			t.Fatalf("seed %d: recovered: %v", seed, err)
		}
		if err := re.Snapshot(&got); err != nil || !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("seed %d: recovered state differs from the state before the crash (err %v)", seed, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRehomeRace: eight goroutines each own 25 of 200 peers and keep
// re-joining them under two landmarks of different shards in turn — every
// re-join orphans a record on the other shard — leaving one now and then,
// while others look the peers up. A lookup may find a peer gone, nothing
// else. At quiescence
// checkIndex holds, every peer is as its owner's last op left it, and the
// node's snapshot is byte-equal to that of a fresh node given those last ops
// alone, serially — a record left in a second tree, or lost, would show.
func TestRehomeRace(t *testing.T) {
	const owners, peers, rounds = 8, 200, 60
	c := newTestCluster(t, 4)
	lmA, lmB := testLandmarks[0], testLandmarks[1] // shards 0 and 1
	last := make([]op.Op, peers+1)                 // each peer's last op, written by its owner only
	var stop atomic.Bool
	var work, side sync.WaitGroup
	for w := 0; w < owners; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < rounds; round++ {
				for p := w + 1; p <= peers; p += owners {
					lm := lmA
					if (round+p)%2 == 1 {
						lm = lmB
					}
					o := op.Join(pathtree.PeerID(p), synthPath(lm, rng.Intn(500)), fmt.Sprintf("p%d:%d", p, round), int64(1+round*peers+p))
					if rng.Intn(10) == 0 {
						o = op.Leave(pathtree.PeerID(p))
						c.Leave(o.Peer) // false when the previous op was a leave too
					} else if _, err := c.JoinOp(o); err != nil {
						t.Errorf("join %d: %v", p, err)
						return
					}
					last[p] = o
				}
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		side.Add(1)
		go func(g int) {
			defer side.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for !stop.Load() {
				p := pathtree.PeerID(1 + rng.Intn(peers))
				if _, err := c.Lookup(p); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
					t.Errorf("lookup %d: %v", p, err)
					return
				}
				if _, err := c.PeerInfo(p); err != nil && !errors.Is(err, server.ErrUnknownPeer) {
					t.Errorf("PeerInfo %d: %v", p, err)
					return
				}
			}
		}(g)
	}
	work.Wait()
	stop.Store(true)
	side.Wait()

	if err := checkIndex(c); err != nil {
		t.Fatal(err)
	}
	serial := newTestCluster(t, 4)
	for p := 1; p <= peers; p++ {
		info, err := c.PeerInfo(pathtree.PeerID(p))
		if last[p].Kind == op.KindLeave {
			if !errors.Is(err, server.ErrUnknownPeer) {
				t.Fatalf("peer %d left last and is still here: %+v, %v", p, info, err)
			}
			continue
		}
		if err != nil || !info.LastRefresh.Equal(time.Unix(0, last[p].Time)) || info.Addr != last[p].Join.Addr {
			t.Fatalf("peer %d: %+v, %v; its last op was %+v", p, info, err, last[p])
		}
		if _, err := serial.JoinOp(last[p]); err != nil {
			t.Fatal(err)
		}
	}
	var want, got bytes.Buffer
	if err := serial.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("the raced node's snapshot (%d bytes) differs from the serial run's of the surviving ops (%d)", got.Len(), want.Len())
	}
}
