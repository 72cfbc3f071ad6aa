package proto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"proxdisc/internal/codec"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// wireVector pins one payload form of one message type: the bytes, the
// value they stand for, and how strictly the decoder frames them.
type wireVector struct {
	name string
	// hex is the payload b6fd366's encoder produced for want.
	hex string
	// encode renders want; nil for a form only older or other builds send
	// (the short Status generations) and for a second decoder of a payload
	// already pinned above it.
	encode func() ([]byte, error)
	decode func(b []byte) (any, error)
	want   any
	// tolerant decoders accept bytes behind the fields they know (the
	// messages future versions extend); the others refuse a single one.
	tolerant bool
	// prefixOK names the strict prefixes that are payloads in their own
	// right — the same message without its optional tail. Every other
	// strict prefix must be refused.
	prefixOK func(n int) bool
	// restIsData: the last field runs to the end of the frame (a stream
	// chunk's data), so a trailing byte is accepted and changes the value.
	restIsData bool
}

func lengths(ns ...int) func(int) bool {
	return func(n int) bool {
		for _, ok := range ns {
			if n == ok {
				return true
			}
		}
		return false
	}
}

var (
	goldenJoin  = JoinRequest{Peer: 42, Addr: "10.0.0.9:41", Path: []int32{7, 3, 100}}
	goldenCands = []Candidate{{Peer: 7, DTree: 2, Addr: "10.0.0.7:9007"}, {Peer: -3, DTree: 0, Addr: ""}}
	goldenBatch = BatchJoinRequest{Joins: []JoinRequest{
		{Peer: 1, Addr: "a:1", Path: []int32{5, 0}},
		{Peer: 2, Addr: "", Path: []int32{6, 5, 0}},
	}}
	goldenStatus = Status{
		Role: RoleReplica, Shards: 4, Replicas: 1, Live: 4, PrimaryAddr: "10.0.0.1:4100",
		SnapshotSeq: 9000, WalTail: 250, ReplayMillis: 42, Applied: 9240, Head: 9250,
		Peers: 77, QueueDepth: 5, RequestsTotal: 123456, WalFsyncs: 890,
	}
)

const (
	goldenJoinHex   = "000000000000002a" + "000b31302e302e302e393a3431" + "0003000000070000000300000064"
	goldenBatchHex  = "0002" + "00000000000000010003613a3100020000000500000000" + "000000000000000200000003000000060000000500000000"
	goldenCandsHex  = "0002" + "000000000000000700000002000d31302e302e302e373a39303037" + "fffffffffffffffd000000000000"
	goldenStatusHex = "02000400010004000d31302e302e302e313a34313030" +
		"000000000000232800000000000000fa0000002a00000000000024180000000000002422" +
		"000000000000004d00000005000000000001e240000000000000037a"
)

func joinOp(m JoinRequest) op.Op {
	path := make([]topology.NodeID, len(m.Path))
	for i, r := range m.Path {
		path[i] = topology.NodeID(r)
	}
	return op.Join(pathtree.PeerID(m.Peer), path, m.Addr, 0)
}

// decodeJoinOp decodes a single join payload the way a server does, into a
// BatchJoinOp as a batch of one, and returns the one join it carries as a
// KindJoin op.
func decodeJoinOp(b []byte) (op.Op, error) {
	var m BatchJoinOp
	if err := m.DecodeJoin(b); err != nil {
		return op.Op{}, err
	}
	if len(m.Op.Batch) != 1 {
		return op.Op{}, fmt.Errorf("a single join decoded into %d entries", len(m.Op.Batch))
	}
	e := m.Op.Batch[0]
	return op.Join(e.Peer, e.Path, e.Addr, m.Op.Time), nil
}

func wireVectors() []wireVector {
	joinInto := func(b []byte) (any, error) {
		var m JoinRequest
		err := DecodeJoinRequestInto(&m, b)
		return &m, err
	}
	statusDura := goldenStatus
	statusDura.Peers, statusDura.QueueDepth, statusDura.RequestsTotal, statusDura.WalFsyncs = 0, 0, 0, 0
	statusShort := Status{Role: RoleReplica, Shards: 4, Replicas: 1, Live: 4, PrimaryAddr: "10.0.0.1:4100"}
	batchOp := op.BatchJoin([]op.JoinEntry{
		{Peer: 1, Addr: "a:1", Path: []topology.NodeID{5, 0}},
		{Peer: 2, Addr: "", Path: []topology.NodeID{6, 5, 0}},
	}, 0)
	return []wireVector{
		{
			name: "error", hex: "0003" + "001070656572203520" + "6e6f7420666f756e64",
			encode: func() ([]byte, error) {
				return EncodeError(&Error{Code: CodeUnknownPeer, Message: "peer 5 not found"}), nil
			},
			decode: func(b []byte) (any, error) { return DecodeError(b) },
			want:   &Error{Code: CodeUnknownPeer, Message: "peer 5 not found"},
		},
		{
			name: "landmarks response", hex: "00020000000a000e3132372e302e302e313a37303031000000140000",
			encode: func() ([]byte, error) {
				return EncodeLandmarksResponse(&LandmarksResponse{Routers: []int32{10, 20}, Addrs: []string{"127.0.0.1:7001", ""}})
			},
			decode: func(b []byte) (any, error) { return DecodeLandmarksResponse(b) },
			want:   &LandmarksResponse{Routers: []int32{10, 20}, Addrs: []string{"127.0.0.1:7001", ""}},
		},
		{
			name: "join request", hex: goldenJoinHex,
			encode: func() ([]byte, error) { return AppendJoinRequest(nil, &goldenJoin) },
			decode: joinInto, want: &goldenJoin,
		},
		{
			name: "join request → op", hex: goldenJoinHex,
			decode: func(b []byte) (any, error) { return decodeJoinOp(b) },
			want:   joinOp(goldenJoin),
		},
		{
			name: "join response", hex: goldenCandsHex,
			encode: func() ([]byte, error) { return EncodeJoinResponse(&JoinResponse{Neighbors: goldenCands}) },
			decode: func(b []byte) (any, error) { return DecodeJoinResponse(b) },
			want:   &JoinResponse{Neighbors: goldenCands},
		},
		{
			name: "join response, empty", hex: "0000",
			encode: func() ([]byte, error) { return EncodeJoinResponse(&JoinResponse{}) },
			decode: func(b []byte) (any, error) { return DecodeJoinResponse(b) },
			want:   &JoinResponse{Neighbors: []Candidate{}},
		},
		{
			name: "lookup request", hex: "fffffffffffffff9",
			encode: func() ([]byte, error) { return EncodeLookupRequest(&LookupRequest{Peer: -7}), nil },
			decode: func(b []byte) (any, error) { return DecodeLookupRequest(b) },
			want:   &LookupRequest{Peer: -7},
		},
		{
			name: "lookup response", hex: goldenCandsHex,
			encode: func() ([]byte, error) { return EncodeLookupResponse(&LookupResponse{Neighbors: goldenCands}) },
			decode: func(b []byte) (any, error) { return DecodeLookupResponse(b) },
			want:   &LookupResponse{Neighbors: goldenCands},
		},
		{
			name: "leave request → op", hex: "0000000000000009",
			encode: func() ([]byte, error) { return EncodeLeaveRequest(&LeaveRequest{Peer: 9}), nil },
			decode: func(b []byte) (any, error) { return DecodeLeaveOp(b) },
			want:   op.Leave(9),
		},
		{
			name: "refresh request → op", hex: "000000000000000b",
			encode: func() ([]byte, error) { return EncodeRefreshRequest(&RefreshRequest{Peer: 11}), nil },
			decode: func(b []byte) (any, error) { return DecodeRefreshOp(b) },
			want:   op.Refresh(11, 0),
		},
		{
			name: "redirect", hex: "000d31302e302e302e373a37343730",
			encode: func() ([]byte, error) { return EncodeRedirect(&Redirect{Addr: "10.0.0.7:7470"}) },
			decode: func(b []byte) (any, error) { return DecodeRedirect(b) },
			want:   &Redirect{Addr: "10.0.0.7:7470"},
		},
		{
			// Older builds' replicas appended the landmark's fencing epoch,
			// which is read and ignored.
			name: "redirect with epoch", hex: "000d31302e302e302e373a37343730000000000000002a",
			decode:   func(b []byte) (any, error) { return DecodeRedirect(b) },
			want:     &Redirect{Addr: "10.0.0.7:7470"},
			prefixOK: lengths(15),
		},
		{
			name: "hello", hex: "00020020",
			encode:   func() ([]byte, error) { return EncodeHello(&Hello{MaxVersion: Version2, MaxBatch: MaxBatch}), nil },
			decode:   func(b []byte) (any, error) { return DecodeHello(b) },
			want:     &Hello{MaxVersion: Version2, MaxBatch: MaxBatch},
			tolerant: true,
		},
		{
			name: "hello ack", hex: "00020010",
			encode:   func() ([]byte, error) { return EncodeHelloAck(&HelloAck{Version: Version2, MaxBatch: 16}), nil },
			decode:   func(b []byte) (any, error) { return DecodeHelloAck(b) },
			want:     &HelloAck{Version: Version2, MaxBatch: 16},
			tolerant: true,
		},
		{
			name: "batch join request", hex: goldenBatchHex,
			encode: func() ([]byte, error) { return EncodeBatchJoinRequest(&goldenBatch) },
			decode: func(b []byte) (any, error) { return DecodeBatchJoinRequest(b) },
			want:   &goldenBatch,
		},
		{
			name: "batch join request → op", hex: goldenBatchHex,
			decode: func(b []byte) (any, error) { var m BatchJoinOp; err := m.Decode(b); return m.Op, err },
			want:   batchOp,
		},
		{
			name: "batch join response",
			hex: "0003" + "000000000001000000000000000900000002000a31302e302e302e393a31" +
				"000200106e6f2073756368206c616e646d61726b0000" + "000000000000",
			encode: func() ([]byte, error) {
				return EncodeBatchJoinResponse(&BatchJoinResponse{Results: []BatchJoinResult{
					{Neighbors: []Candidate{{Peer: 9, DTree: 2, Addr: "10.0.0.9:1"}}},
					{Code: CodeUnknownLandmark, Message: "no such landmark"},
					{},
				}})
			},
			decode: func(b []byte) (any, error) { return DecodeBatchJoinResponse(b) },
			want: &BatchJoinResponse{Results: []BatchJoinResult{
				{Neighbors: []Candidate{{Peer: 9, DTree: 2, Addr: "10.0.0.9:1"}}},
				{Code: CodeUnknownLandmark, Message: "no such landmark"},
				{},
			}},
		},
		{
			name: "status", hex: goldenStatusHex,
			encode:   func() ([]byte, error) { return EncodeStatus(&goldenStatus) },
			decode:   func(b []byte) (any, error) { return DecodeStatus(b) },
			want:     &goldenStatus,
			tolerant: true,
			prefixOK: lengths(22, 58),
		},
		{
			name: "status, durability block only", hex: goldenStatusHex[:2*58],
			decode:   func(b []byte) (any, error) { return DecodeStatus(b) },
			want:     &statusDura,
			prefixOK: lengths(22),
			// Not tolerant of one byte: a byte into the gauge block is a cut
			// report, not an extension.
		},
		{
			name: "status, short", hex: goldenStatusHex[:2*22],
			decode: func(b []byte) (any, error) { return DecodeStatus(b) },
			want:   &statusShort,
		},
		{
			name: "follow request", hex: "0000010000000000",
			encode:   func() ([]byte, error) { return EncodeFollowRequest(&FollowRequest{After: 1 << 40}), nil },
			decode:   func(b []byte) (any, error) { return DecodeFollowRequest(b) },
			want:     &FollowRequest{After: 1 << 40},
			tolerant: true,
		},
		{
			name: "follow head", hex: "000000000000004d",
			encode:   func() ([]byte, error) { return EncodeFollowHead(&FollowHead{Head: 77}), nil },
			decode:   func(b []byte) (any, error) { return DecodeFollowHead(b) },
			want:     &FollowHead{Head: 77},
			tolerant: true,
		},
		{
			name: "op ack", hex: "0000000000000063",
			encode:   func() ([]byte, error) { return EncodeOpAck(&OpAck{Seq: 99}), nil },
			decode:   func(b []byte) (any, error) { return DecodeOpAck(b) },
			want:     &OpAck{Seq: 99},
			tolerant: true,
		},
		{
			name: "op records", hex: "0002" + "000000000000000a" + "00000003" + "010203" + "000000000000000b" + "00000000",
			encode: func() ([]byte, error) {
				return EncodeOpRecords(&OpRecords{Records: []OpRecord{{Seq: 10, Data: []byte{1, 2, 3}}, {Seq: 11, Data: nil}}})
			},
			decode: func(b []byte) (any, error) { return DecodeOpRecords(b) },
			want:   &OpRecords{Records: []OpRecord{{Seq: 10, Data: []byte{1, 2, 3}}, {Seq: 11, Data: nil}}},
		},
		{
			name: "stream chunk, final", hex: "000000000000000501736e6170",
			encode: func() ([]byte, error) {
				return EncodeStreamChunk(&StreamChunk{Seq: 5, Final: true, Data: []byte("snap")})
			},
			decode:   func(b []byte) (any, error) { return DecodeStreamChunk(b) },
			want:     &StreamChunk{Seq: 5, Final: true, Data: []byte("snap")},
			tolerant: true, restIsData: true,
			prefixOK: func(n int) bool { return n >= 9 },
		},
		{
			name: "stream chunk, more to come", hex: "00000000000000060061",
			encode:   func() ([]byte, error) { return EncodeStreamChunk(&StreamChunk{Seq: 6, Data: []byte("a")}) },
			decode:   func(b []byte) (any, error) { return DecodeStreamChunk(b) },
			want:     &StreamChunk{Seq: 6, Data: []byte("a")},
			tolerant: true, restIsData: true,
			prefixOK: func(n int) bool { return n >= 9 },
		},
		{
			name: "subscribe request", hex: "03000000000000002a000000030008",
			encode: func() ([]byte, error) {
				return EncodeSubscribeRequest(&SubscribeRequest{Kind: QueryKClosest, Peer: 42, Landmark: 3, K: 8})
			},
			decode:   func(b []byte) (any, error) { return DecodeSubscribeRequest(b) },
			want:     &SubscribeRequest{Kind: QueryKClosest, Peer: 42, Landmark: 3, K: 8},
			tolerant: true,
		},
		{
			name: "subscribe ack", hex: "0000000000000063" + goldenCandsHex,
			encode:   func() ([]byte, error) { return encodeSubscribeAck(&SubscribeAck{Seq: 99, Neighbors: goldenCands}) },
			decode:   func(b []byte) (any, error) { return DecodeSubscribeAck(b) },
			want:     &SubscribeAck{Seq: 99, Neighbors: goldenCands},
			tolerant: true,
		},
		{
			name: "sub event, enter", hex: "0000000000000004010000000000000009000000030003613a31",
			encode: func() ([]byte, error) {
				return EncodeSubEvent(&SubEvent{Seq: 4, Kind: EventEnter, Cand: Candidate{Peer: 9, DTree: 3, Addr: "a:1"}})
			},
			decode: func(b []byte) (any, error) { return DecodeSubEvent(b) },
			want:   &SubEvent{Seq: 4, Kind: EventEnter, Cand: Candidate{Peer: 9, DTree: 3, Addr: "a:1"}},
		},
		{
			name: "sub event, leave", hex: "0000000000000005020000000000000009000000000000",
			encode: func() ([]byte, error) {
				return EncodeSubEvent(&SubEvent{Seq: 5, Kind: EventLeave, Cand: Candidate{Peer: 9}})
			},
			decode: func(b []byte) (any, error) { return DecodeSubEvent(b) },
			want:   &SubEvent{Seq: 5, Kind: EventLeave, Cand: Candidate{Peer: 9}},
		},
		{
			name: "sub event, update", hex: "0000000000000006030000000000000009000000010003613a32",
			encode: func() ([]byte, error) {
				return EncodeSubEvent(&SubEvent{Seq: 6, Kind: EventUpdate, Cand: Candidate{Peer: 9, DTree: 1, Addr: "a:2"}})
			},
			decode: func(b []byte) (any, error) { return DecodeSubEvent(b) },
			want:   &SubEvent{Seq: 6, Kind: EventUpdate, Cand: Candidate{Peer: 9, DTree: 1, Addr: "a:2"}},
		},
		{
			name: "sub event, resync", hex: "000000000000000704" + goldenCandsHex,
			encode: func() ([]byte, error) {
				return EncodeSubEvent(&SubEvent{Seq: 7, Kind: EventResync, Neighbors: goldenCands})
			},
			decode: func(b []byte) (any, error) { return DecodeSubEvent(b) },
			want:   &SubEvent{Seq: 7, Kind: EventResync, Neighbors: goldenCands},
		},
		{
			name: "unsubscribe", hex: "0000000000000005",
			encode:   func() ([]byte, error) { return EncodeUnsubscribe(&Unsubscribe{SubID: 5}), nil },
			decode:   func(b []byte) (any, error) { return DecodeUnsubscribe(b) },
			want:     &Unsubscribe{SubID: 5},
			tolerant: true,
		},
	}
}

// TestWireBytesUnchanged pins the payload bytes of every message type, in
// each of its optional-tail forms, against what b6fd366's encoders
// produced: encode → the bytes, the bytes → decode → the value. MsgAck,
// MsgLandmarksRequest and MsgStatusRequest carry no payload; the frame
// header is pinned by netserver's TestHandshakeBytesUnchanged.
func TestWireBytesUnchanged(t *testing.T) {
	for _, v := range wireVectors() {
		golden, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatalf("%s: bad literal: %v", v.name, err)
		}
		if v.encode != nil {
			got, err := v.encode()
			if err != nil {
				t.Errorf("%s: encode: %v", v.name, err)
			} else if !bytes.Equal(got, golden) {
				t.Errorf("%s: encoded\n %x\nwant\n %x", v.name, got, golden)
			}
		}
		got, err := v.decode(golden)
		if err != nil {
			t.Errorf("%s: decode: %v", v.name, err)
		} else if !sameValue(got, v.want) {
			t.Errorf("%s: decoded\n %+v\nwant\n %+v", v.name, got, v.want)
		}
	}
	if got := hex.EncodeToString(EncodeProbe(0xDEADBEEF12345678)); got != "70647072deadbeef12345678" {
		t.Errorf("probe encoded %s", got)
	}
}

// sameValue compares two messages as printed, which is field by field
// except that a nil and an empty slice read alike: which of the two a
// decoder hands back for a zero count is not part of the format.
func sameValue(got, want any) bool {
	return fmt.Sprintf("%+v", got) == fmt.Sprintf("%+v", want)
}

// TestWireRejectionParity is the other half of the pin: what the decoders
// refuse. Every strict prefix of every vector is refused unless it is the
// same message without its optional tail; a strict decoder refuses one
// trailing byte and a tolerant one decodes the same value with it.
func TestWireRejectionParity(t *testing.T) {
	for _, v := range wireVectors() {
		golden, _ := hex.DecodeString(v.hex)
		for n := 0; n < len(golden); n++ {
			_, err := v.decode(golden[:n:n])
			ok := v.prefixOK != nil && v.prefixOK(n)
			if ok && err != nil {
				t.Errorf("%s: the %d-byte form is refused: %v", v.name, n, err)
			} else if !ok && err == nil {
				t.Errorf("%s: accepted a cut at %d of %d bytes", v.name, n, len(golden))
			}
		}
		extended := append(append([]byte(nil), golden...), 0xAB)
		got, err := v.decode(extended)
		switch {
		case !v.tolerant && err == nil:
			t.Errorf("%s: accepted a trailing byte", v.name)
		case v.tolerant && err != nil:
			t.Errorf("%s: refused a trailing byte: %v", v.name, err)
		case v.tolerant && !v.restIsData && !sameValue(got, v.want):
			t.Errorf("%s: a trailing byte changed the value: %+v", v.name, got)
		}
	}
}

// TestWireCapsReadAsLimit: a count or length over its cap is ErrLimit —
// refused before anything is sized from it — even when the payload is
// also too short to hold what it declares; a count within its cap over a
// short payload is ErrTruncated.
func TestWireCapsReadAsLimit(t *testing.T) {
	joinInto := func(b []byte) error { return DecodeJoinRequestInto(&JoinRequest{}, b) }
	dec := map[string]func(b []byte) error{
		"join":       joinInto,
		"join op":    func(b []byte) error { _, err := decodeJoinOp(b); return err },
		"batch":      func(b []byte) error { _, err := DecodeBatchJoinRequest(b); return err },
		"batch op":   func(b []byte) error { return new(BatchJoinOp).Decode(b) },
		"batch resp": func(b []byte) error { _, err := DecodeBatchJoinResponse(b); return err },
		"join resp":  func(b []byte) error { _, err := DecodeJoinResponse(b); return err },
		"lookup":     func(b []byte) error { _, err := DecodeLookupResponse(b); return err },
		"landmarks":  func(b []byte) error { _, err := DecodeLandmarksResponse(b); return err },
		"error":      func(b []byte) error { _, err := DecodeError(b); return err },
		"redirect":   func(b []byte) error { _, err := DecodeRedirect(b); return err },
		"status":     func(b []byte) error { _, err := DecodeStatus(b); return err },
		"records":    func(b []byte) error { _, err := DecodeOpRecords(b); return err },
		"chunk":      func(b []byte) error { _, err := DecodeStreamChunk(b); return err },
		"sub req":    func(b []byte) error { _, err := DecodeSubscribeRequest(b); return err },
		"sub ack":    func(b []byte) error { _, err := DecodeSubscribeAck(b); return err },
		"sub event":  func(b []byte) error { _, err := DecodeSubEvent(b); return err },
	}
	peer := "0000000000000001"
	cases := []struct {
		decoders []string
		name     string
		hex      string
		want     error
	}{
		{[]string{"join", "join op"}, "path count 257", peer + "0000" + "0101", ErrLimit},
		{[]string{"join", "join op"}, "path count 256, no hops", peer + "0000" + "0100", codec.ErrTruncated},
		{[]string{"join", "join op"}, "address length 257", peer + "0101", ErrLimit},
		{[]string{"join", "join op"}, "address length 256, no bytes", peer + "0100", codec.ErrTruncated},
		{[]string{"batch", "batch op"}, "33 joins", "0021", ErrLimit},
		{[]string{"batch", "batch op"}, "no joins", "0000", ErrLimit},
		{[]string{"batch", "batch op"}, "32 joins, none there", "0020", codec.ErrTruncated},
		{[]string{"batch", "batch op"}, "entry path count 257", "0001" + peer + "0000" + "0101", ErrLimit},
		{[]string{"batch", "batch op"}, "entry address length 257", "0001" + peer + "0101", ErrLimit},
		{[]string{"batch resp"}, "33 results", "0021", ErrLimit},
		{[]string{"batch resp"}, "no results", "0000", ErrLimit},
		{[]string{"batch resp"}, "message length 257", "0001" + "0000" + "0101", ErrLimit},
		{[]string{"batch resp"}, "257 neighbours", "0001" + "0000" + "0000" + "0101", ErrLimit},
		{[]string{"batch resp"}, "256 neighbours, none there", "0001" + "0000" + "0000" + "0100", codec.ErrTruncated},
		{[]string{"join resp", "lookup"}, "257 neighbours", "0101", ErrLimit},
		{[]string{"join resp", "lookup"}, "256 neighbours, none there", "0100", codec.ErrTruncated},
		{[]string{"join resp", "lookup"}, "neighbour address length 257", "0001" + peer + "00000002" + "0101", ErrLimit},
		{[]string{"landmarks"}, "1025 landmarks", "0401", ErrLimit},
		{[]string{"landmarks"}, "1024 landmarks, none there", "0400", codec.ErrTruncated},
		{[]string{"error"}, "message length 257", "0001" + "0101", ErrLimit},
		{[]string{"redirect"}, "address length 257", "0101", ErrLimit},
		{[]string{"status"}, "address length 257", "02000400010004" + "0101", ErrLimit},
		{[]string{"records"}, "257 records", "0101", ErrLimit},
		{[]string{"records"}, "no records", "0000", ErrLimit},
		{[]string{"records"}, "256 records, none there", "0100", codec.ErrTruncated},
		{[]string{"records"}, "record over op.MaxEncodedSize", "0001" + peer + "00ffffff", ErrLimit},
		{[]string{"records"}, "record of 16 bytes, none there", "0001" + peer + "00000010", codec.ErrTruncated},
		{[]string{"sub req"}, "k of 257", "03" + peer + "00000000" + "0101", ErrLimit},
		{[]string{"sub ack"}, "257 neighbours", peer + "0101", ErrLimit},
		{[]string{"sub ack"}, "256 neighbours, none there", peer + "0100", codec.ErrTruncated},
		{[]string{"sub event"}, "resync of 257", peer + "04" + "0101", ErrLimit},
		{[]string{"sub event"}, "enter with address length 257", peer + "01" + peer + "00000001" + "0101", ErrLimit},
	}
	for _, c := range cases {
		b, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatalf("%s: bad literal: %v", c.name, err)
		}
		for _, d := range c.decoders {
			if err := dec[d](b); !errors.Is(err, c.want) {
				t.Errorf("%s, %s: %v, want %v", d, c.name, err, c.want)
			}
		}
	}
	big := append(make([]byte, 9), make([]byte, MaxChunkData+1)...)
	if err := dec["chunk"](big); !errors.Is(err, ErrLimit) {
		t.Errorf("chunk of %d bytes: %v, want ErrLimit", MaxChunkData+1, err)
	}
	if err := dec["chunk"](big[:len(big)-1]); err != nil {
		t.Errorf("chunk of MaxChunkData bytes: %v", err)
	}
}
