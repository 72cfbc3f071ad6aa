package op

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"proxdisc/internal/topology"
)

// sampleOps covers every kind with representative field shapes.
func sampleOps() []Op {
	return []Op{
		Join(7, []topology.NodeID{1, 2, 3}, "10.0.0.7:4100", 12345),
		Join(-1, nil, "", 0),
		BatchJoin([]JoinEntry{
			{Peer: 1, Addr: "a:1", Path: []topology.NodeID{9}},
			{Peer: 2, Addr: "", Path: []topology.NodeID{8, 9}},
		}, 99),
		Leave(42),
		Refresh(42, 1<<40),
		SetSuperPeer(5, true),
		SetSuperPeer(5, false),
		Expire(1 << 50),
	}
}

func TestRoundTrip(t *testing.T) {
	for _, o := range sampleOps() {
		b, err := Encode(o)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", o, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%+v): %v", o, err)
		}
		// An encoded nil path decodes as an empty one; normalize before
		// comparing.
		want := o
		if want.Kind == KindJoin && want.Join.Path == nil {
			want.Join.Path = []topology.NodeID{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed op:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	for _, o := range sampleOps() {
		a, _ := Encode(o)
		b, _ := Encode(o)
		if !bytes.Equal(a, b) {
			t.Errorf("Encode(%+v) not deterministic", o)
		}
	}
}

func TestEncodeLimits(t *testing.T) {
	longAddr := strings.Repeat("x", MaxAddrLen+1)
	longPath := make([]topology.NodeID, MaxPathLen+1)
	cases := []Op{
		Join(1, nil, longAddr, 0),
		Join(1, longPath, "", 0),
		BatchJoin(nil, 0),
		BatchJoin(make([]JoinEntry, MaxBatch+1), 0),
		{Kind: 99},
	}
	for _, o := range cases {
		if _, err := Encode(o); err == nil {
			t.Errorf("Encode(%+v): want error, got nil", o)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	good, err := Encode(Join(7, []topology.NodeID{1, 2}, "addr", 5))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"kind only": {byte(KindJoin)},
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte{}, good...), 0),
		"bad kind":  {99, 0, 0, 0, 0, 0, 0, 0, 0},
		"bad super": append([]byte{byte(KindSetSuperPeer)}, make([]byte, 8+8+1)...)[:18],
	}
	cases["bad super"] = func() []byte {
		b, _ := Encode(SetSuperPeer(1, false))
		b[len(b)-1] = 7
		return b
	}()
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%s): want error, got nil", name)
		}
	}
}

func TestMaxEncodedSize(t *testing.T) {
	entries := make([]JoinEntry, MaxBatch)
	for i := range entries {
		entries[i] = JoinEntry{
			Peer: -1,
			Addr: strings.Repeat("a", MaxAddrLen),
			Path: make([]topology.NodeID, MaxPathLen),
		}
	}
	b, err := Encode(BatchJoin(entries, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > MaxEncodedSize {
		t.Errorf("maximal op encodes to %d bytes, above MaxEncodedSize %d", len(b), MaxEncodedSize)
	}
}

// TestCodecAllocs: encoding into a reused buffer and decoding into a
// reused target allocate nothing — what the commit path and the replay and
// follower loops rely on.
func TestCodecAllocs(t *testing.T) {
	var into Op
	for _, o := range sampleOps() {
		buf := make([]byte, 0, 512)
		allocs := testing.AllocsPerRun(100, func() {
			b, err := Append(buf[:0], o)
			if err != nil {
				t.Fatal(err)
			}
			if err := DecodeInto(&into, b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Append+DecodeInto of %+v allocates %v times", o, allocs)
		}
	}
}
