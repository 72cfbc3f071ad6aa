package proto

import (
	"encoding/binary"
	"fmt"

	"proxdisc/internal/codec"
	"proxdisc/internal/op"
)

// This file is the wire form of the replication stream (the MsgOpStream
// family): a follower process subscribes to a primary's committed op log
// with MsgFollowRequest and receives MsgOpRecords / MsgOpChunk /
// MsgSnapshotChunk frames, acknowledging its applied offset with MsgOpAck.
// Record payloads are the canonical op encoding (package op) exactly as
// the write-ahead log stores them, so the bytes a follower applies are the
// bytes the primary committed — one codec from wire to disk. A
// MsgSnapshotChunk payload is opaque here; what it carries is the
// primary's checkpoint file, itself a framed run of the same op encoding
// (op.ReadStream), so catch-up adds no second format either.

// Op-stream limits.
const (
	// MaxStreamRecords bounds the records of one MsgOpRecords frame.
	MaxStreamRecords = 256
	// MaxChunkData bounds the data of one MsgOpChunk or MsgSnapshotChunk
	// fragment, leaving room for the fragment header inside MaxFrameSize.
	MaxChunkData = MaxFrameSize - 64
)

// FollowRequest subscribes to the committed op stream.
type FollowRequest struct {
	// After is the last sequence the follower has applied; the stream
	// resumes strictly after it (0 = from the beginning of history, which
	// the primary typically serves as snapshot + tail).
	After uint64
}

// encodeU64 and decodeU64 are the single-sequence messages (the three
// below and Unsubscribe). Trailing bytes are tolerated so future versions
// can extend them.
func encodeU64(v uint64) []byte { return binary.BigEndian.AppendUint64(make([]byte, 0, 8), v) }

func decodeU64(b []byte) (uint64, error) {
	r := codec.NewReader(b)
	v := r.U64()
	return v, r.Err()
}

// EncodeFollowRequest encodes a FollowRequest payload.
func EncodeFollowRequest(m *FollowRequest) []byte { return encodeU64(m.After) }

// DecodeFollowRequest decodes a FollowRequest payload.
func DecodeFollowRequest(b []byte) (*FollowRequest, error) {
	v, err := decodeU64(b)
	return &FollowRequest{After: v}, err
}

// FollowHead announces the primary's committed head sequence.
type FollowHead struct {
	// Head is the last committed sequence on the primary.
	Head uint64
}

// EncodeFollowHead encodes a FollowHead payload.
func EncodeFollowHead(m *FollowHead) []byte { return encodeU64(m.Head) }

// DecodeFollowHead decodes a FollowHead payload.
func DecodeFollowHead(b []byte) (*FollowHead, error) {
	v, err := decodeU64(b)
	return &FollowHead{Head: v}, err
}

// OpAck reports the follower's applied offset.
type OpAck struct {
	// Seq is the highest sequence the follower has applied.
	Seq uint64
}

// EncodeOpAck encodes an OpAck payload.
func EncodeOpAck(m *OpAck) []byte { return encodeU64(m.Seq) }

// DecodeOpAck decodes an OpAck payload.
func DecodeOpAck(b []byte) (*OpAck, error) {
	v, err := decodeU64(b)
	return &OpAck{Seq: v}, err
}

// OpRecord is one committed operation on the stream: its sequence and its
// canonical op encoding.
type OpRecord struct {
	Seq  uint64
	Data []byte
}

// OpRecords is a batch of committed records, in ascending sequence order.
type OpRecords struct {
	Records []OpRecord
}

// EncodeOpRecords encodes an OpRecords payload:
//
//	count(2) then per record seq(8) len(4) data
//
// It enforces the frame budget, so callers batch greedily and flush when
// encoding reports the frame is full.
func EncodeOpRecords(m *OpRecords) ([]byte, error) {
	if len(m.Records) == 0 || len(m.Records) > MaxStreamRecords {
		return nil, fmt.Errorf("%w: %d stream records", ErrLimit, len(m.Records))
	}
	size := 2
	for i := range m.Records {
		size += 12 + len(m.Records[i].Data)
	}
	if size+9 > MaxFrameSize { // so no record here is near op.MaxEncodedSize
		return nil, ErrFrameTooLarge
	}
	// The payload comes from the frame pool: the op-stream sender hands it
	// to the connection writer, which recycles it after the frame is
	// copied out — assembling a MsgOpRecords frame allocates nothing in
	// steady state.
	w := codec.Writer{Buf: GetBuf(size)[:0]}
	w.U16(uint16(len(m.Records)))
	for i := range m.Records {
		rec := &m.Records[i]
		w.U64(rec.Seq)
		w.U32(uint32(len(rec.Data)))
		w.Bytes(rec.Data)
	}
	return w.Buf, nil
}

// DecodeOpRecords decodes an OpRecords payload. Record data is copied out
// of the frame buffer, so callers may recycle the payload immediately.
func DecodeOpRecords(b []byte) (*OpRecords, error) {
	r := codec.NewReader(b)
	m := &OpRecords{Records: make([]OpRecord, r.Count(1, MaxStreamRecords, "stream records"))}
	for i := range m.Records {
		rec := &m.Records[i]
		rec.Seq = r.U64()
		size := int(r.U32())
		if size > op.MaxEncodedSize {
			r.Fail(fmt.Errorf("%w: stream record of %d bytes", ErrLimit, size))
		}
		rec.Data = append([]byte(nil), r.Bytes(size)...)
	}
	return m, r.Done()
}

// StreamChunk is one fragment of an oversized stream payload: an op too
// big for a single frame (MsgOpChunk) or a snapshot (MsgSnapshotChunk).
type StreamChunk struct {
	// Seq is the sequence the reassembled payload belongs to: the op's
	// sequence for an op chunk, the covering sequence for a snapshot (for
	// snapshots it is authoritative only on the final fragment).
	Seq uint64
	// Final marks the last fragment.
	Final bool
	// Data is this fragment's bytes.
	Data []byte
}

// chunkLimit reports a fragment over MaxChunkData.
func chunkLimit(size int) error { return fmt.Errorf("%w: chunk of %d bytes", ErrLimit, size) }

// EncodeStreamChunk encodes a StreamChunk payload: seq(8) final(1) data.
func EncodeStreamChunk(m *StreamChunk) ([]byte, error) {
	if len(m.Data) > MaxChunkData {
		return nil, chunkLimit(len(m.Data))
	}
	w := codec.Writer{Buf: make([]byte, 0, 9+len(m.Data))}
	w.U64(m.Seq)
	w.Bool(m.Final)
	w.Bytes(m.Data)
	return w.Buf, nil
}

// DecodeStreamChunk decodes a StreamChunk payload. Data — the rest of the
// frame — is copied out of the frame buffer.
func DecodeStreamChunk(b []byte) (*StreamChunk, error) {
	r := codec.NewReader(b)
	m := &StreamChunk{Seq: r.U64(), Final: r.Bool()}
	if r.Len() > MaxChunkData {
		r.Fail(chunkLimit(r.Len()))
	}
	m.Data = append([]byte(nil), r.Bytes(r.Len())...)
	return m, r.Err()
}
