package proto

import (
	"bytes"
	"errors"
	"testing"

	"proxdisc/internal/codec"
	"proxdisc/internal/op"
	"proxdisc/internal/topology"
)

func TestFollowRequestRoundTrip(t *testing.T) {
	for _, after := range []uint64{0, 1, 1 << 40} {
		b := EncodeFollowRequest(&FollowRequest{After: after})
		m, err := DecodeFollowRequest(b)
		if err != nil {
			t.Fatal(err)
		}
		if m.After != after {
			t.Fatalf("after %d, want %d", m.After, after)
		}
	}
	if _, err := DecodeFollowRequest([]byte{1, 2}); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("truncated request decoded: %v", err)
	}
}

func TestFollowHeadAndAckRoundTrip(t *testing.T) {
	h, err := DecodeFollowHead(EncodeFollowHead(&FollowHead{Head: 77}))
	if err != nil || h.Head != 77 {
		t.Fatalf("head %v err %v", h, err)
	}
	a, err := DecodeOpAck(EncodeOpAck(&OpAck{Seq: 99}))
	if err != nil || a.Seq != 99 {
		t.Fatalf("ack %v err %v", a, err)
	}
}

func TestOpRecordsRoundTrip(t *testing.T) {
	rec1, err := op.Encode(op.Join(1, []topology.NodeID{5, 0}, "10.0.0.1:7000", 42))
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := op.Encode(op.Leave(1))
	if err != nil {
		t.Fatal(err)
	}
	in := &OpRecords{Records: []OpRecord{{Seq: 10, Data: rec1}, {Seq: 11, Data: rec2}}}
	payload, err := EncodeOpRecords(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeOpRecords(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != 2 {
		t.Fatalf("decoded %d records", len(out.Records))
	}
	for i := range in.Records {
		if out.Records[i].Seq != in.Records[i].Seq || !bytes.Equal(out.Records[i].Data, in.Records[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// The decoded ops must round-trip through the canonical codec.
	if _, err := op.Decode(out.Records[0].Data); err != nil {
		t.Fatal(err)
	}
}

func TestOpRecordsLimits(t *testing.T) {
	if _, err := EncodeOpRecords(&OpRecords{}); err == nil {
		t.Fatal("empty batch encoded")
	}
	big := make([]OpRecord, MaxStreamRecords+1)
	for i := range big {
		big[i] = OpRecord{Seq: uint64(i + 1), Data: []byte{byte(op.KindLeave), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}}
	}
	if _, err := EncodeOpRecords(&OpRecords{Records: big}); err == nil {
		t.Fatal("oversized batch encoded")
	}
	// A frame-budget overflow must be reported, not silently truncated.
	huge := OpRecord{Seq: 1, Data: make([]byte, MaxFrameSize)}
	if _, err := EncodeOpRecords(&OpRecords{Records: []OpRecord{huge}}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge record: %v", err)
	}
	// Truncated payloads fail loudly.
	payload, err := EncodeOpRecords(&OpRecords{Records: []OpRecord{{Seq: 3, Data: []byte{1, 2, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(payload); cut++ {
		if _, err := DecodeOpRecords(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

func TestStreamChunkRoundTrip(t *testing.T) {
	in := &StreamChunk{Seq: 123, Final: true, Data: []byte("snapshot-bytes")}
	payload, err := EncodeStreamChunk(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeStreamChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Final != in.Final || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("chunk mismatch: %+v", out)
	}
	if _, err := DecodeStreamChunk(payload[:5]); err == nil {
		t.Fatal("truncated chunk decoded")
	}
	bad := append([]byte(nil), payload...)
	bad[8] = 7 // final flag out of range
	if _, err := DecodeStreamChunk(bad); err == nil {
		t.Fatal("bad final flag decoded")
	}
	if _, err := EncodeStreamChunk(&StreamChunk{Data: make([]byte, MaxChunkData+1)}); err == nil {
		t.Fatal("oversized chunk encoded")
	}
}
