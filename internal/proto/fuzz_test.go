// Native fuzz targets for the frame reader and the request decoders a
// server runs: the surfaces a malicious peer controls byte-for-byte. Each
// target checks two properties — no panic on arbitrary input, and
// encode/decode round-trip stability for inputs the decoder accepts.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"proxdisc/internal/codec"
	"proxdisc/internal/op"
)

// FuzzReadFrame throws raw bytes at both frame readers. Whatever is
// accepted must re-encode to a frame that reads back identically.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, MsgJoinRequest, []byte{1, 2, 3})
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrameID(&seed, MsgJoinResponse, 77, []byte{9})
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 1, byte(MsgAck)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	f.Add([]byte{0, 0, 0, 9, byte(MsgHello), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if typ, payload, err := ReadFrame(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := WriteFrame(&out, typ, payload); err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
			typ2, payload2, err := ReadFrame(&out)
			if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
				t.Fatalf("v1 round trip diverged: %v %v/%v", err, typ, typ2)
			}
		}
		typ, id, payload, err := ReadFrameID(bytes.NewReader(data))
		// The in-place road through a bufio.Reader must agree with it.
		btyp, bid, bpayload, berr := ReadFrameID(bufio.NewReaderSize(bytes.NewReader(data), 16))
		if (err == nil) != (berr == nil) || btyp != typ || bid != id || !bytes.Equal(bpayload, payload) {
			t.Fatalf("raw and buffered readers disagree: %v/%v %v/%v id=%d/%d", err, berr, typ, btyp, id, bid)
		}
		if err == nil {
			var out bytes.Buffer
			if err := WriteFrameID(&out, typ, id, payload); err != nil {
				t.Fatalf("re-encode of accepted v2 frame failed: %v", err)
			}
			typ2, id2, payload2, err := ReadFrameID(&out)
			if err != nil || typ2 != typ || id2 != id || !bytes.Equal(payload2, payload) {
				t.Fatalf("v2 round trip diverged: %v id=%d/%d", err, id, id2)
			}
		}
	})
}

// FuzzDecodeJoinRequest checks the decoders a server runs on the
// single-peer requests: BatchJoinOp.DecodeJoin, and DecodeLookupRequest,
// DecodeLeaveOp and DecodeRefreshOp, which read the same 8-byte peer ID and
// must agree. Malformed request IDs in the wrapping frame are covered by
// FuzzReadFrame; here the payload itself is adversarial.
func FuzzDecodeJoinRequest(f *testing.F) {
	good, _ := AppendJoinRequest(nil, &JoinRequest{Peer: 42, Addr: "198.51.100.7:9000", Path: []int32{3, 2, 1, 0}})
	f.Add(good)
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint16(nil, codec.MaxPathLen+1))
	f.Add(EncodeLookupRequest(&LookupRequest{Peer: -7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if o, err := decodeJoinOp(data); err == nil {
			if b := appendEntries(t, nil, o.Join); !bytes.Equal(b, data) {
				t.Fatalf("join encoding not canonical: %x vs %x", b, data)
			}
		}
		m, err := DecodeLookupRequest(data)
		for _, decode := range []func([]byte) (op.Op, error){DecodeLeaveOp, DecodeRefreshOp} {
			if o, oerr := decode(data); (oerr == nil) != (err == nil) || (err == nil && int64(o.Peer) != m.Peer) {
				t.Fatalf("peer-ID decoders disagree: lookup %d, %v; op %d, %v", m.Peer, err, o.Peer, oerr)
			}
		}
		if err == nil && !bytes.Equal(EncodeLookupRequest(m), data) {
			t.Fatalf("peer-ID encoding not canonical: %x", data)
		}
	})
}

// appendEntries re-encodes decoded join entries onto dst in the wire
// layout, failing t on an entry past a codec cap, which no decoder may
// accept.
func appendEntries(t *testing.T, dst []byte, entries ...op.JoinEntry) []byte {
	w := codec.Writer{Buf: dst}
	for _, e := range entries {
		codec.AppendJoin(&w, e.Peer, e.Addr, e.Path)
	}
	b, err := w.Done()
	if err != nil {
		t.Fatalf("re-encode of an accepted join entry failed: %v", err)
	}
	return b
}

// FuzzDecodeBatchJoinRequest targets BatchJoinOp.Decode, the server's batch
// decoder: truncated batch payloads, lying counts, and per-entry limit
// violations. One target decodes every input, as a server's pooled one
// does.
func FuzzDecodeBatchJoinRequest(f *testing.F) {
	good, _ := EncodeBatchJoinRequest(&BatchJoinRequest{Joins: []JoinRequest{
		{Peer: 1, Addr: "a", Path: []int32{1, 0}},
		{Peer: 2, Addr: "b", Path: []int32{2, 0}},
	}})
	f.Add(good)
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 1, 2, 3})
	if len(good) > 3 {
		f.Add(good[:len(good)-3])
	}
	var m BatchJoinOp
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := m.Decode(data); err != nil {
			return
		}
		o := m.Op
		if len(o.Batch) == 0 || len(o.Batch) > MaxBatch {
			t.Fatalf("decoder accepted batch of %d joins", len(o.Batch))
		}
		if b := appendEntries(t, binary.BigEndian.AppendUint16(nil, uint16(len(o.Batch))), o.Batch...); !bytes.Equal(b, data) {
			t.Fatalf("batch encoding not canonical")
		}
	})
}

// FuzzOpStream throws raw bytes at the replication-stream decoders — the
// frames a follower accepts from whatever answers the primary's address.
// Accepted op-record batches must re-encode byte-identically (the stream
// rides the canonical op codec), and accepted chunks must round-trip.
// FuzzSubscribe throws raw bytes at the subscription decoders, matching
// FuzzOpStream: no panics, and — for the strict event decoder — canonical
// re-encoding of anything accepted. SubscribeRequest/SubscribeAck/
// Unsubscribe tolerate trailing bytes by design (forward compatibility),
// so for those the round-trip check compares re-encodings instead of raw
// input.
func FuzzSubscribe(f *testing.F) {
	if b, err := EncodeSubscribeRequest(&SubscribeRequest{Kind: QueryKClosest, Peer: 42, K: 8}); err == nil {
		f.Add(b)
	}
	if b, err := encodeSubscribeAck(&SubscribeAck{Seq: 7, Neighbors: []Candidate{{Peer: 3, DTree: 1, Addr: "x:1"}}}); err == nil {
		f.Add(b)
	}
	if b, err := EncodeSubEvent(&SubEvent{Seq: 4, Kind: EventEnter, Cand: Candidate{Peer: 9, DTree: 3, Addr: "a:1"}}); err == nil {
		f.Add(b)
	}
	if b, err := EncodeSubEvent(&SubEvent{Seq: 9, Kind: EventResync, Neighbors: []Candidate{{Peer: 1, DTree: 1, Addr: "b"}}}); err == nil {
		f.Add(b)
	}
	f.Add(EncodeUnsubscribe(&Unsubscribe{SubID: 5}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeSubscribeRequest(data); err == nil {
			re, err := EncodeSubscribeRequest(m)
			if err != nil {
				t.Fatalf("re-encode of accepted subscribe request failed: %v", err)
			}
			if m2, err := DecodeSubscribeRequest(re); err != nil || *m2 != *m {
				t.Fatalf("subscribe request round trip diverged: %v", err)
			}
		}
		if m, err := DecodeSubscribeAck(data); err == nil {
			if len(m.Neighbors) > MaxNeighbors {
				t.Fatalf("ack accepted %d neighbours", len(m.Neighbors))
			}
			if _, err := encodeSubscribeAck(m); err != nil {
				t.Fatalf("re-encode of accepted ack failed: %v", err)
			}
		}
		if m, err := DecodeSubEvent(data); err == nil {
			re, err := EncodeSubEvent(m)
			if err != nil {
				t.Fatalf("re-encode of accepted event failed: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("sub event encoding not canonical")
			}
		}
		if m, err := DecodeUnsubscribe(data); err == nil {
			re := EncodeUnsubscribe(m)
			if m2, err := DecodeUnsubscribe(re); err != nil || m2.SubID != m.SubID {
				t.Fatalf("unsubscribe round trip diverged: %v", err)
			}
		}
	})
}

func FuzzOpStream(f *testing.F) {
	f.Add(EncodeFollowRequest(&FollowRequest{After: 7}))
	f.Add(EncodeFollowHead(&FollowHead{Head: 9}))
	f.Add(EncodeOpAck(&OpAck{Seq: 3}))
	if rec, err := EncodeOpRecords(&OpRecords{Records: []OpRecord{{Seq: 1, Data: []byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}}}}); err == nil {
		f.Add(rec)
	}
	if ch, err := EncodeStreamChunk(&StreamChunk{Seq: 5, Final: true, Data: []byte("snap")}); err == nil {
		f.Add(ch)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeFollowRequest(data)
		_, _ = DecodeFollowHead(data)
		_, _ = DecodeOpAck(data)
		if m, err := DecodeOpRecords(data); err == nil {
			re, err := EncodeOpRecords(m)
			if err != nil {
				t.Fatalf("re-encode of accepted op records failed: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("op records round trip diverged")
			}
		}
		if m, err := DecodeStreamChunk(data); err == nil {
			re, err := EncodeStreamChunk(m)
			if err != nil {
				t.Fatalf("re-encode of accepted chunk failed: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("stream chunk round trip diverged")
			}
		}
	})
}
