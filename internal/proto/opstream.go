package proto

import (
	"fmt"

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

// EncodeFollowRequest encodes a FollowRequest payload.
func EncodeFollowRequest(m *FollowRequest) []byte {
	enc := encoder{buf: make([]byte, 0, 8)}
	enc.u64(m.After)
	return enc.buf
}

// DecodeFollowRequest decodes a FollowRequest payload. Trailing bytes are
// tolerated so future versions can extend the subscription.
func DecodeFollowRequest(b []byte) (*FollowRequest, error) {
	d := decoder{buf: b}
	m := &FollowRequest{}
	var err error
	if m.After, err = d.u64(); err != nil {
		return nil, err
	}
	return m, nil
}

// FollowHead announces the primary's committed head sequence.
type FollowHead struct {
	// Head is the last committed sequence on the primary.
	Head uint64
}

// EncodeFollowHead encodes a FollowHead payload.
func EncodeFollowHead(m *FollowHead) []byte {
	enc := encoder{buf: make([]byte, 0, 8)}
	enc.u64(m.Head)
	return enc.buf
}

// DecodeFollowHead decodes a FollowHead payload, tolerating trailing
// bytes like DecodeFollowRequest.
func DecodeFollowHead(b []byte) (*FollowHead, error) {
	d := decoder{buf: b}
	m := &FollowHead{}
	var err error
	if m.Head, err = d.u64(); err != nil {
		return nil, err
	}
	return m, nil
}

// OpAck reports the follower's applied offset.
type OpAck struct {
	// Seq is the highest sequence the follower has applied.
	Seq uint64
}

// EncodeOpAck encodes an OpAck payload.
func EncodeOpAck(m *OpAck) []byte {
	enc := encoder{buf: make([]byte, 0, 8)}
	enc.u64(m.Seq)
	return enc.buf
}

// DecodeOpAck decodes an OpAck payload, tolerating trailing bytes.
func DecodeOpAck(b []byte) (*OpAck, error) {
	d := decoder{buf: b}
	m := &OpAck{}
	var err error
	if m.Seq, err = d.u64(); err != nil {
		return nil, err
	}
	return m, nil
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
	if size+9 > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	// The payload comes from the frame pool: the op-stream sender hands it
	// to the connection writer, which recycles it after the frame is
	// copied out — assembling a MsgOpRecords frame allocates nothing in
	// steady state.
	enc := encoder{buf: GetBuf(size)[:0]}
	enc.u16(uint16(len(m.Records)))
	for i := range m.Records {
		r := &m.Records[i]
		if len(r.Data) > op.MaxEncodedSize {
			PutBuf(enc.buf)
			return nil, fmt.Errorf("%w: stream record of %d bytes", ErrLimit, len(r.Data))
		}
		enc.u64(r.Seq)
		enc.u32(uint32(len(r.Data)))
		enc.buf = append(enc.buf, r.Data...)
	}
	return enc.buf, nil
}

// DecodeOpRecords decodes an OpRecords payload. Record data is copied out
// of the frame buffer, so callers may recycle the payload immediately.
func DecodeOpRecords(b []byte) (*OpRecords, error) {
	d := decoder{buf: b}
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if n == 0 || int(n) > MaxStreamRecords {
		return nil, fmt.Errorf("%w: %d stream records", ErrLimit, n)
	}
	m := &OpRecords{Records: make([]OpRecord, n)}
	for i := range m.Records {
		r := &m.Records[i]
		if r.Seq, err = d.u64(); err != nil {
			return nil, err
		}
		size, err := d.u32()
		if err != nil {
			return nil, err
		}
		if int(size) > op.MaxEncodedSize {
			return nil, fmt.Errorf("%w: stream record of %d bytes", ErrLimit, size)
		}
		if d.remaining() < int(size) {
			return nil, ErrTruncated
		}
		r.Data = append([]byte(nil), d.buf[d.off:d.off+int(size)]...)
		d.off += int(size)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
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

// EncodeStreamChunk encodes a StreamChunk payload: seq(8) final(1) data.
func EncodeStreamChunk(m *StreamChunk) ([]byte, error) {
	if len(m.Data) > MaxChunkData {
		return nil, fmt.Errorf("%w: chunk of %d bytes", ErrLimit, len(m.Data))
	}
	enc := encoder{buf: make([]byte, 0, 9+len(m.Data))}
	enc.u64(m.Seq)
	if m.Final {
		enc.buf = append(enc.buf, 1)
	} else {
		enc.buf = append(enc.buf, 0)
	}
	enc.buf = append(enc.buf, m.Data...)
	return enc.buf, nil
}

// DecodeStreamChunk decodes a StreamChunk payload. Data is copied out of
// the frame buffer.
func DecodeStreamChunk(b []byte) (*StreamChunk, error) {
	d := decoder{buf: b}
	m := &StreamChunk{}
	var err error
	if m.Seq, err = d.u64(); err != nil {
		return nil, err
	}
	flag, err := d.u8()
	if err != nil {
		return nil, err
	}
	if flag > 1 {
		return nil, fmt.Errorf("proto: bad chunk final flag %d", flag)
	}
	m.Final = flag == 1
	if d.remaining() > MaxChunkData {
		return nil, fmt.Errorf("%w: chunk of %d bytes", ErrLimit, d.remaining())
	}
	m.Data = append([]byte(nil), d.buf[d.off:]...)
	return m, nil
}
