package proto

import (
	"fmt"
	"reflect"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/topology"
)

// TestJoinOpBridge pins the wire↔op bridge: a join payload decodes into a
// batch of one whose entry re-encodes to the same payload.
func TestJoinOpBridge(t *testing.T) {
	payload, err := AppendJoinRequest(nil, &JoinRequest{Peer: 42, Addr: "10.0.0.9:41", Path: []int32{7, 3, 100}})
	if err != nil {
		t.Fatal(err)
	}
	var m BatchJoinOp
	if err := m.DecodeJoin(payload); err != nil {
		t.Fatal(err)
	}
	o := m.Op
	if o.Kind != op.KindBatchJoin || o.Time != 0 || len(o.Batch) != 1 {
		t.Fatalf("decoded op %+v: want an unstamped KindBatchJoin of one entry", o)
	}
	want := op.JoinEntry{Peer: 42, Addr: "10.0.0.9:41", Path: []topology.NodeID{7, 3, 100}}
	if !reflect.DeepEqual(o.Batch[0], want) {
		t.Fatalf("entry %+v, want %+v", o.Batch[0], want)
	}
	// The way back: the entry re-encodes to the payload it came from.
	e := o.Batch[0]
	path := make([]int32, len(e.Path))
	for i, r := range e.Path {
		path[i] = int32(r)
	}
	re, err := AppendJoinRequest(nil, &JoinRequest{Peer: int64(e.Peer), Addr: e.Addr, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re, payload) {
		t.Fatalf("re-encoding a decoded join op changed its bytes:\n %x\n %x", re, payload)
	}
	if err := m.DecodeJoin([]byte{1, 2}); err == nil {
		t.Fatal("BatchJoinOp.DecodeJoin accepted garbage")
	}
}

func TestBatchJoinOpBridge(t *testing.T) {
	payload, err := EncodeBatchJoinRequest(&BatchJoinRequest{Joins: []JoinRequest{
		{Peer: 1, Addr: "a:1", Path: []int32{5, 0}},
		{Peer: 2, Addr: "a:2", Path: []int32{6, 5, 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var m BatchJoinOp
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	o := m.Op
	if o.Kind != op.KindBatchJoin || len(o.Batch) != 2 {
		t.Fatalf("decoded %+v", o)
	}
	if o.Batch[1].Peer != 2 || o.Batch[1].Addr != "a:2" ||
		!reflect.DeepEqual(o.Batch[1].Path, []topology.NodeID{6, 5, 0}) {
		t.Fatalf("entry %+v", o.Batch[1])
	}
	if err := m.Decode([]byte{0xff}); err == nil {
		t.Fatal("BatchJoinOp.Decode accepted garbage")
	}
}

func TestPeerOpBridges(t *testing.T) {
	lo, err := DecodeLeaveOp(EncodeLeaveRequest(&LeaveRequest{Peer: 77}))
	if err != nil || lo.Kind != op.KindLeave || lo.Peer != 77 {
		t.Fatalf("leave op %+v err=%v", lo, err)
	}
	ro, err := DecodeRefreshOp(EncodeRefreshRequest(&RefreshRequest{Peer: 78}))
	if err != nil || ro.Kind != op.KindRefresh || ro.Peer != 78 || ro.Time != 0 {
		t.Fatalf("refresh op %+v err=%v", ro, err)
	}
	if _, err := DecodeLeaveOp(nil); err == nil {
		t.Fatal("DecodeLeaveOp accepted an empty payload")
	}
	if _, err := DecodeRefreshOp([]byte{1}); err == nil {
		t.Fatal("DecodeRefreshOp accepted a truncated payload")
	}
}

// TestJoinDecodeAllocs pins what decoding a join costs on the roads a
// server takes: a batch, or a single join as a batch of one, lands in a
// reused op with one string for all its addresses, and a reused request
// struct costs nothing; nor does the client's road, encoding a join into a
// pooled buffer. (Through an intermediate request struct a 32-entry batch
// cost 99, into a fresh op with an address and a path per entry 66; a
// single join into a fresh op 2.)
func TestJoinDecodeAllocs(t *testing.T) {
	batch := &BatchJoinRequest{Joins: make([]JoinRequest, MaxBatch)}
	for i := range batch.Joins {
		batch.Joins[i] = JoinRequest{Peer: int64(i + 1), Addr: fmt.Sprintf("10.0.0.%d:9000", i+1), Path: []int32{int32(i), 7, 3, 0}}
	}
	batchPayload, err := EncodeBatchJoinRequest(batch)
	if err != nil {
		t.Fatal(err)
	}
	joinPayload, err := AppendJoinRequest(nil, &batch.Joins[0])
	if err != nil {
		t.Fatal(err)
	}
	var reused JoinRequest
	var batchOp BatchJoinOp
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"BatchJoinOp.Decode, 32 entries, reused", 1, func() error { return batchOp.Decode(batchPayload) }},
		{"BatchJoinOp, one join, reused", 1, func() error { return batchOp.DecodeJoin(joinPayload) }},
		{"DecodeJoinRequestInto, reused", 0, func() error { return DecodeJoinRequestInto(&reused, joinPayload) }},
		{"AppendJoinRequest into a pooled buffer", 0, func() error {
			buf, err := AppendJoinRequest(GetBuf(0), &batch.Joins[0])
			PutBuf(buf)
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s allocates %v times, want at most %v", c.name, allocs, c.max)
		}
	}
}
