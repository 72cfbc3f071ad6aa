package overlay

import (
	"sync"
	"testing"

	"proxdisc/internal/pathtree"
)

func addPeers(t *testing.T, o *Overlay, ids ...pathtree.PeerID) {
	t.Helper()
	for _, id := range ids {
		if err := o.AddPeer(Peer{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAddPeerDuplicate(t *testing.T) {
	o := New()
	addPeers(t, o, 1)
	if err := o.AddPeer(Peer{ID: 1}); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if !o.Contains(1) || o.Contains(2) {
		t.Fatal("Contains wrong")
	}
}

func TestConnectBasics(t *testing.T) {
	o := New()
	addPeers(t, o, 1, 2, 3)
	if err := o.Connect(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Connect(1, 2); err != nil {
		t.Fatal("re-connect should be a no-op, got error")
	}
	if err := o.Connect(1, 1); err == nil {
		t.Fatal("self link accepted")
	}
	if err := o.Connect(1, 99); err == nil {
		t.Fatal("unknown peer accepted")
	}
	nbrs := o.Neighbors(1)
	if len(nbrs) != 1 || nbrs[0] != 2 {
		t.Fatalf("neighbors=%v", nbrs)
	}
	if o.Degree(2) != 1 {
		t.Fatalf("degree=%d", o.Degree(2))
	}
}

func TestPeersSortedAndInfo(t *testing.T) {
	o := New()
	addPeers(t, o, 5, 1, 3)
	got := o.Peers()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("peers=%v", got)
	}
	if p, ok := o.peers[5]; !ok || p.ID != 5 {
		t.Fatalf("record of peer 5: %v, present %v", p, ok)
	}
}

func TestConnectedComponent(t *testing.T) {
	o := New()
	addPeers(t, o, 1, 2, 3, 4, 5)
	_ = o.Connect(1, 2)
	_ = o.Connect(2, 3)
	_ = o.Connect(4, 5)
	comp := o.ConnectedComponentOf(1)
	if len(comp) != 3 || comp[0] != 1 || comp[1] != 2 || comp[2] != 3 {
		t.Fatalf("component=%v", comp)
	}
	if got := o.ConnectedComponentOf(99); got != nil {
		t.Fatalf("unknown start returned %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	o := New()
	for i := pathtree.PeerID(0); i < 100; i++ {
		if err := o.AddPeer(Peer{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := pathtree.PeerID((w*31 + i) % 100)
				b := pathtree.PeerID((w*17 + i*3) % 100)
				if a != b {
					_ = o.Connect(a, b)
				}
				o.Neighbors(a)
			}
		}(w)
	}
	wg.Wait()
	// Symmetry invariant after concurrent churn.
	for _, p := range o.Peers() {
		for _, q := range o.Neighbors(p) {
			found := false
			for _, r := range o.Neighbors(q) {
				if r == p {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric link (%d,%d)", p, q)
			}
		}
	}
}
