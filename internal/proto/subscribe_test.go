package proto

import (
	"bytes"
	"reflect"
	"testing"

	"proxdisc/internal/pathtree"
)

func TestSubscribeRequestRoundTrip(t *testing.T) {
	cases := []SubscribeRequest{
		{Kind: QueryKClosest, Peer: 42, K: 8},
		{Kind: QueryPeer, Peer: -7},
		{Kind: QueryLandmark, Landmark: 3},
		{Kind: QueryKClosest, Peer: 1}, // K=0: server default
	}
	for _, want := range cases {
		b, err := EncodeSubscribeRequest(&want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeSubscribeRequest(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if *got != want {
			t.Fatalf("round trip diverged: %+v vs %+v", *got, want)
		}
	}
	if _, err := EncodeSubscribeRequest(&SubscribeRequest{Kind: 9}); err == nil {
		t.Fatal("bad kind accepted by encoder")
	}
	if _, err := DecodeSubscribeRequest([]byte{0, 1, 2}); err == nil {
		t.Fatal("bad kind accepted by decoder")
	}
}

func TestSubscribeAckRoundTrip(t *testing.T) {
	want := SubscribeAck{Seq: 99, Neighbors: []Candidate{
		{Peer: 1, DTree: 2, Addr: "192.0.2.1:7000"},
		{Peer: 5, DTree: 4, Addr: "192.0.2.5:7000"},
	}}
	b, err := encodeSubscribeAck(&want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSubscribeAck(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seq != want.Seq || !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
		t.Fatalf("round trip diverged: %+v vs %+v", got, want)
	}

	empty, err := DecodeSubscribeAck(mustEncodeSubscribeAck(t, &SubscribeAck{Seq: 1}))
	if err != nil {
		t.Fatalf("decode empty ack: %v", err)
	}
	if len(empty.Neighbors) != 0 {
		t.Fatalf("empty ack grew neighbors: %+v", empty.Neighbors)
	}
}

// TestSubscribeAckDecodeTolerance pins the compatibility contract: a newer
// server may append fields to the ack, and this client must still decode
// the prefix it understands.
func TestSubscribeAckDecodeTolerance(t *testing.T) {
	b := mustEncodeSubscribeAck(t, &SubscribeAck{Seq: 7, Neighbors: []Candidate{{Peer: 3, DTree: 1, Addr: "x"}}})
	extended := append(append([]byte{}, b...), 0xde, 0xad, 0xbe, 0xef)
	got, err := DecodeSubscribeAck(extended)
	if err != nil {
		t.Fatalf("extended ack rejected: %v", err)
	}
	if got.Seq != 7 || len(got.Neighbors) != 1 || got.Neighbors[0].Peer != 3 {
		t.Fatalf("extended ack decoded wrong: %+v", got)
	}
}

func mustEncodeSubscribeAck(t *testing.T, m *SubscribeAck) []byte {
	t.Helper()
	b, err := encodeSubscribeAck(m)
	if err != nil {
		t.Fatalf("encode ack: %v", err)
	}
	return b
}

func TestSubEventRoundTrip(t *testing.T) {
	cases := []SubEvent{
		{Seq: 4, Kind: EventEnter, Cand: Candidate{Peer: 9, DTree: 3, Addr: "a:1"}},
		{Seq: 5, Kind: EventLeave, Cand: Candidate{Peer: 9}},
		{Seq: 6, Kind: EventUpdate, Cand: Candidate{Peer: 9, DTree: 2, Addr: "a:2"}},
		{Seq: 7, Kind: EventResync, Neighbors: []Candidate{{Peer: 1, DTree: 1, Addr: "b:1"}, {Peer: 2, DTree: 2, Addr: "b:2"}}},
		{Seq: 8, Kind: EventResync, Neighbors: []Candidate{}},
	}
	for _, want := range cases {
		b, err := EncodeSubEvent(&want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeSubEvent(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.Seq != want.Seq || got.Kind != want.Kind || got.Cand != want.Cand ||
			len(got.Neighbors) != len(want.Neighbors) ||
			(len(want.Neighbors) > 0 && !reflect.DeepEqual(got.Neighbors, want.Neighbors)) {
			t.Fatalf("round trip diverged: %+v vs %+v", got, want)
		}
	}
	if _, err := EncodeSubEvent(&SubEvent{Kind: 0}); err == nil {
		t.Fatal("bad event kind accepted by encoder")
	}
	// SubEvent is strict: trailing garbage after a delta is a framing bug,
	// not forward compatibility.
	b, _ := EncodeSubEvent(&cases[0])
	if _, err := DecodeSubEvent(append(append([]byte{}, b...), 1)); err == nil {
		t.Fatal("trailing bytes accepted on event")
	}
}

func TestUnsubscribeRoundTrip(t *testing.T) {
	b := EncodeUnsubscribe(&Unsubscribe{SubID: 12345})
	got, err := DecodeUnsubscribe(b)
	if err != nil || got.SubID != 12345 {
		t.Fatalf("round trip diverged: %+v %v", got, err)
	}
	if _, err := DecodeUnsubscribe([]byte{1, 2}); err == nil {
		t.Fatal("short unsubscribe accepted")
	}
}

func TestSubscribeMsgTypeNames(t *testing.T) {
	for typ, want := range map[MsgType]string{
		MsgSubscribeRequest: "subscribe_request",
		MsgSubscribeAck:     "subscribe_ack",
		MsgSubEvent:         "sub_event",
		MsgUnsubscribe:      "unsubscribe",
	} {
		if got := typ.String(); got != want {
			t.Fatalf("MsgType(%d).String() = %q, want %q", typ, got, want)
		}
	}
	if !bytes.Equal([]byte(MsgType(NumMsgTypes).String()), []byte("unknown")) {
		t.Fatal("one past the last type must stringify as unknown")
	}
}

// encodeSubscribeAck encodes a wire-form ack through the encoder that
// ships, EncodeSubscribeAckAnswer.
func encodeSubscribeAck(m *SubscribeAck) ([]byte, error) {
	cands := make([]pathtree.Candidate, len(m.Neighbors))
	for i, c := range m.Neighbors {
		cands[i] = pathtree.Candidate{Peer: pathtree.PeerID(c.Peer), DTree: int(c.DTree), Addr: c.Addr}
	}
	return EncodeSubscribeAckAnswer(m.Seq, cands)
}
