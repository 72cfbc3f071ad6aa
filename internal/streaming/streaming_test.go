package streaming

import (
	"testing"

	"proxdisc/internal/overlay"
	"proxdisc/internal/pathtree"
)

// lineMesh builds a path overlay 1-2-3-...-n with unit hop distances scaled
// by position difference.
func lineMesh(t *testing.T, n int) (*overlay.Overlay, HopFunc) {
	t.Helper()
	o := overlay.New()
	for i := 1; i <= n; i++ {
		if err := o.AddPeer(pathtree.PeerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := o.Connect(pathtree.PeerID(i), pathtree.PeerID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	hops := func(a, b pathtree.PeerID) (int, error) {
		d := int(a - b)
		if d < 0 {
			d = -d
		}
		return d, nil
	}
	return o, hops
}

func TestSessionValidation(t *testing.T) {
	o, hops := lineMesh(t, 3)
	if _, err := NewSession(o, 99, hops, Config{}); err == nil {
		t.Fatal("accepted unknown source")
	}
	if _, err := NewSession(o, 1, nil, Config{}); err == nil {
		t.Fatal("accepted nil hop function")
	}
}

func TestAllChunksDelivered(t *testing.T) {
	o, hops := lineMesh(t, 10)
	sess, err := NewSession(o, 1, hops, Config{Chunks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Peers != 9 {
		t.Fatalf("peers=%d", res.Peers)
	}
	if res.MissingChunks != 0 {
		t.Fatalf("missing=%d", res.MissingChunks)
	}
	if res.DeliveredChunks != 9*10 {
		t.Fatalf("delivered=%d", res.DeliveredChunks)
	}
	if res.MeanDeliveryMS <= 0 || res.P95DeliveryMS < res.MeanDeliveryMS {
		t.Fatalf("delivery stats: mean=%v p95=%v", res.MeanDeliveryMS, res.P95DeliveryMS)
	}
	if res.MeanSetupMS <= 0 {
		t.Fatalf("setup=%v", res.MeanSetupMS)
	}
}

func TestFartherPeersReceiveLater(t *testing.T) {
	o, hops := lineMesh(t, 12)
	sess, err := NewSession(o, 1, hops, Config{Chunks: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// Delivery times along the chain must be strictly increasing.
	prev := int64(-1)
	for i := 1; i <= 12; i++ {
		tm := sess.deliver[pathtree.PeerID(i)][0]
		if tm < 0 {
			t.Fatalf("peer %d never received chunk", i)
		}
		if tm <= prev && i > 1 {
			t.Fatalf("peer %d received at %d, earlier than previous %d", i, tm, prev)
		}
		prev = tm
	}
}

func TestDisconnectedPeerMissesChunks(t *testing.T) {
	o, hops := lineMesh(t, 4)
	if err := o.AddPeer(50); err != nil { // isolated peer
		t.Fatal(err)
	}
	sess, err := NewSession(o, 1, hops, Config{Chunks: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MissingChunks != 5 {
		t.Fatalf("missing=%d want 5", res.MissingChunks)
	}
}

func TestProximityBeatsDistantMesh(t *testing.T) {
	// Same star topology, but one mesh has hop distance 1 links and the
	// other hop distance 20 links: delivery latency must reflect it.
	build := func(hop int) *Result {
		o := overlay.New()
		for i := 1; i <= 20; i++ {
			if err := o.AddPeer(pathtree.PeerID(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 2; i <= 20; i++ {
			if err := o.Connect(1, pathtree.PeerID(i)); err != nil {
				t.Fatal(err)
			}
		}
		hops := func(a, b pathtree.PeerID) (int, error) { return hop, nil }
		sess, err := NewSession(o, 1, hops, Config{Chunks: 8, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	near := build(1)
	far := build(20)
	if near.MeanDeliveryMS >= far.MeanDeliveryMS {
		t.Fatalf("near mesh (%v ms) not faster than far mesh (%v ms)",
			near.MeanDeliveryMS, far.MeanDeliveryMS)
	}
}

func TestUploadCapacitySerializes(t *testing.T) {
	// A source with many direct children and 1 upload slot must deliver
	// later on average than one with 8 slots.
	build := func(slots int) *Result {
		o := overlay.New()
		for i := 1; i <= 30; i++ {
			if err := o.AddPeer(pathtree.PeerID(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 2; i <= 30; i++ {
			if err := o.Connect(1, pathtree.PeerID(i)); err != nil {
				t.Fatal(err)
			}
		}
		hops := func(a, b pathtree.PeerID) (int, error) { return 2, nil }
		sess, err := NewSession(o, 1, hops, Config{Chunks: 4, UploadSlots: slots, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slow := build(1)
	fast := build(8)
	if fast.MeanDeliveryMS >= slow.MeanDeliveryMS {
		t.Fatalf("8 slots (%v) not faster than 1 slot (%v)",
			fast.MeanDeliveryMS, slow.MeanDeliveryMS)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		o, hops := lineMesh(t, 8)
		sess, err := NewSession(o, 1, hops, Config{Chunks: 6, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanDeliveryMS != b.MeanDeliveryMS || a.P95SetupMS != b.P95SetupMS {
		t.Fatal("same seed produced different stream results")
	}
}
