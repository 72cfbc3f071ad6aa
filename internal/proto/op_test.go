package proto

import (
	"fmt"
	"reflect"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/topology"
)

// TestJoinOpBridge pins the wire↔op bridge: a join payload decodes into
// the op that re-encodes to the same payload.
func TestJoinOpBridge(t *testing.T) {
	payload, err := EncodeJoinRequest(&JoinRequest{Peer: 42, Addr: "10.0.0.9:41", Path: []int32{7, 3, 100}})
	if err != nil {
		t.Fatal(err)
	}
	o, err := DecodeJoinOp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != op.KindJoin || o.Time != 0 {
		t.Fatalf("decoded op %+v: want unstamped KindJoin", o)
	}
	want := op.JoinEntry{Peer: 42, Addr: "10.0.0.9:41", Path: []topology.NodeID{7, 3, 100}}
	if !reflect.DeepEqual(o.Join, want) {
		t.Fatalf("entry %+v, want %+v", o.Join, want)
	}
	// The way back, as a node forwarding the decoded join takes it.
	re, err := EncodeJoinRequest(&JoinRequest{Peer: int64(o.Join.Peer), Addr: o.Join.Addr, Path: PathToWire(o.Join.Path)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re, payload) {
		t.Fatalf("re-encoding a decoded join op changed its bytes:\n %x\n %x", re, payload)
	}
	if _, err := DecodeJoinOp([]byte{1, 2}); err == nil {
		t.Fatal("DecodeJoinOp accepted garbage")
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
	o, err := DecodeBatchJoinOp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != op.KindBatchJoin || len(o.Batch) != 2 {
		t.Fatalf("decoded %+v", o)
	}
	if o.Batch[1].Peer != 2 || o.Batch[1].Addr != "a:2" ||
		!reflect.DeepEqual(o.Batch[1].Path, []topology.NodeID{6, 5, 0}) {
		t.Fatalf("entry %+v", o.Batch[1])
	}
	if _, err := DecodeBatchJoinOp([]byte{0xff}); err == nil {
		t.Fatal("DecodeBatchJoinOp accepted garbage")
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
// server takes: a wire join lands in its op with nothing allocated but what
// the op keeps — the batch slice, and an address and a path per entry —
// and a reused request struct costs nothing; nor does the client's road,
// encoding a join into a pooled buffer. (Through an intermediate request
// struct a 32-entry batch cost 99.)
func TestJoinDecodeAllocs(t *testing.T) {
	batch := &BatchJoinRequest{Joins: make([]JoinRequest, MaxBatch)}
	for i := range batch.Joins {
		batch.Joins[i] = JoinRequest{Peer: int64(i + 1), Addr: fmt.Sprintf("10.0.0.%d:9000", i+1), Path: []int32{int32(i), 7, 3, 0}}
	}
	batchPayload, err := EncodeBatchJoinRequest(batch)
	if err != nil {
		t.Fatal(err)
	}
	joinPayload, err := EncodeJoinRequest(&batch.Joins[0])
	if err != nil {
		t.Fatal(err)
	}
	var reused JoinRequest
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"DecodeBatchJoinOp, 32 entries", 2*MaxBatch + 2, func() error { _, err := DecodeBatchJoinOp(batchPayload); return err }},
		{"DecodeJoinOp", 2, func() error { _, err := DecodeJoinOp(joinPayload); return err }},
		{"DecodeForwardedJoinOp", 2, func() error { _, err := DecodeForwardedJoinOp(joinPayload); return err }},
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
