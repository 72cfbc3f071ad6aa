package client

import (
	"context"
	"testing"
	"time"

	"proxdisc/internal/proto"
)

// TestFullSubscriptionDoesNotStallCalls: a subscription that cannot keep
// up costs its session nothing. The test holds the subscription's mu, so
// its fold blocks on the first event, while the server pushes more events
// than the stream holds; a Lookup on the same client still answers. Once
// the fold runs again the subscription resubscribes: the server reads an
// unsubscribe for the old ID, then a fresh subscribe request.
func TestFullSubscriptionDoesNotStallCalls(t *testing.T) {
	ack, err := proto.EncodeSubscribeAckAnswer(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	lookupResp, err := proto.EncodeLookupResponse(&proto.LookupResponse{
		Neighbors: []proto.Candidate{{Peer: 9, DTree: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := newFakeServer(t,
		scripted{typ: proto.MsgSubscribeAck, payload: ack},
		scripted{typ: proto.MsgLookupResponse, payload: lookupResp},
		scripted{typ: proto.MsgAck}, // the unsubscribe of the full stream
		scripted{typ: proto.MsgSubscribeAck, payload: ack},
		scripted{typ: proto.MsgAck}, // Close's unsubscribe
	)
	c, err := DialConfig(fs.ln.Addr().String(), Config{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(context.Background(), KClosest(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	first := fs.requests()[0]
	if first.typ != proto.MsgSubscribeRequest {
		t.Fatalf("first request has type %d, want a subscribe", first.typ)
	}

	sub.mu.Lock()
	for i := 0; i < 2*streamFrames && err == nil; i++ {
		var ev []byte
		ev, err = proto.EncodeSubEvent(&proto.SubEvent{
			Seq: uint64(2 + i), Kind: proto.EventEnter, Cand: proto.Candidate{Peer: int64(100 + i), DTree: 3},
		})
		if err == nil {
			err = fs.push(proto.MsgSubEvent, first.id, ev)
		}
	}
	var got []proto.Candidate
	if err == nil {
		got, err = c.Lookup(1)
	}
	sub.mu.Unlock()
	if err != nil {
		t.Fatalf("lookup beside a stuck subscription: %v", err)
	}
	if len(got) != 1 || got[0].Peer != 9 {
		t.Fatalf("lookup=%+v", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		reqs := fs.requests()
		if len(reqs) >= 4 && reqs[2].typ == proto.MsgUnsubscribe && reqs[3].typ == proto.MsgSubscribeRequest {
			u, err := proto.DecodeUnsubscribe(reqs[2].payload)
			if err != nil || u.SubID != first.id {
				t.Fatalf("unsubscribe names %+v (err %v), want the full stream's ID %d", u, err, first.id)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no unsubscribe and resubscribe after the stream overflowed; requests %+v", reqs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		if _, ok := sub.covering(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the resubscribed cache never turned coherent")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription ended: %v", err)
	}
}
