// Package proto defines the wire protocol between proxdisc peers, the
// management server, and landmark probe responders.
//
// Frames are length-prefixed binary: a 4-byte big-endian payload length, a
// 1-byte message type, then the payload. Integers are big-endian; strings
// and slices carry 16-bit counts. Messages decode into preallocated structs
// without reflection, and the decoder validates every length against hard
// caps so a malicious peer cannot make the server allocate unbounded memory
// (the DecodingLayerParser mindset: bounded, allocation-light decoding).
//
// Every payload is a list of field reads on a codec.Reader (appends on a
// codec.Writer): the bounds and cap checks live there, once. Two layouts
// recur across messages and each has one home. The join entry — peer(8)
// addrLen(2) addr pathLen(2) router(4)... — is codec.AppendJoin and
// codec.ReadJoin, which package op's records share, so a wire join decodes
// straight into the op a server applies (op.go). The candidate list —
// count(2) {peer(8) dtree(4) addrLen(2) addr}... — is appendCandidate and
// readCandidates in this file. A server writes it from its backend's
// []pathtree.Candidate (EncodeAnswer and its batch and subscription
// siblings), a client reads it into []Candidate; each address is copied
// once on each side.
//
// Writing and reading a frame through buffered streams
// (TestFrameRoundTripAllocs) and the client's encoding of a join into a
// pooled buffer (TestJoinDecodeAllocs) allocate nothing. A wire join
// decoded on the server allocates only what its op keeps, and the client's
// decode of an answer two allocations whatever its length
// (TestJoinDecodeAllocs, TestDecodeCandidatesAllocs).
//
// # Protocol versions
//
// A connection has one shape for its whole life: a handshake, then ID
// framing. The client's first frame is MsgHello in the bare framing above
// (WriteFrame/ReadFrame — the handshake's framing, used for nothing else),
// offering the highest version it speaks; the server answers MsgHelloAck,
// also bare, and from the next frame on both sides insert an 8-byte request
// ID between the type byte and the payload of every frame
// (WriteFrameID/ReadFrameID), so a client pipelines many requests over one
// connection and matches responses by ID regardless of completion order.
//
// Version 2 is the only version there is. A server answers anything else
// first — a request with no hello before it, a hello offering less than
// version 2 — with one bare MsgError (CodeBadRequest, naming version 2)
// and closes the connection; a client treats any answer to its hello other
// than an ack at version 2 as a failed dial. The handshake's bytes are
// pinned (netserver's TestHandshakeBytesUnchanged): any two builds that
// speak version 2 interoperate, whichever is the client.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"proxdisc/internal/codec"
	"proxdisc/internal/pathtree"
)

// Protocol versions offered and acknowledged in the MsgHello handshake.
const (
	// Version2 is the protocol: a bare-framed hello and ack, then an 8-byte
	// request ID in every frame — pipelining, out-of-order responses, the
	// batched join messages and the pushed streams all ride on it. A peer
	// offering less (version 1 had no hello and no IDs) is refused.
	Version2 uint16 = 2
	// MaxVersion is the highest version this build speaks.
	MaxVersion = Version2
)

// MsgType identifies a frame's payload.
type MsgType byte

// Message types. Requests flow peer→server; responses server→peer.
const (
	// MsgError carries an error response.
	MsgError MsgType = iota + 1
	// MsgAck acknowledges a request with no payload to return.
	MsgAck
	// MsgLandmarksRequest asks the server for the landmark list.
	MsgLandmarksRequest
	// MsgLandmarksResponse returns landmark router IDs and probe addresses.
	MsgLandmarksResponse
	// MsgJoinRequest reports a peer's router path and overlay address.
	MsgJoinRequest
	// MsgJoinResponse returns the closest-peer list.
	MsgJoinResponse
	// MsgLookupRequest re-asks for a registered peer's closest peers.
	MsgLookupRequest
	// MsgLookupResponse answers a lookup.
	MsgLookupResponse
	// MsgLeaveRequest deregisters a peer.
	MsgLeaveRequest
	// MsgRefreshRequest is a liveness heartbeat.
	MsgRefreshRequest
	// MsgRedirect answers a join sent to a replica node: it carries the
	// address of the primary, where the client sends the join again.
	MsgRedirect
	// MsgForwardedJoinRequest is reserved: the number of a join that older
	// builds relayed between nodes. Nothing sends it, and a node answers it
	// CodeBadRequest.
	MsgForwardedJoinRequest
	// MsgHello opens every connection: the client's highest supported
	// version and batch limit, in the bare framing (WriteFrame).
	MsgHello
	// MsgHelloAck accepts the hello with the chosen version and the
	// server's batch limit, also bare; every frame after it carries a
	// request ID.
	MsgHelloAck
	// MsgBatchJoinRequest carries up to MaxBatch joins in one frame (the
	// flash-crowd path: many newcomers behind one NAT or agent).
	MsgBatchJoinRequest
	// MsgBatchJoinResponse answers a batch join entry-by-entry, in order.
	MsgBatchJoinResponse
	// MsgForwardedBatchJoinRequest is reserved, as MsgForwardedJoinRequest
	// is, for the batch join older builds relayed between nodes.
	MsgForwardedBatchJoinRequest
	// MsgStatusRequest asks a node for its replication role and shard
	// layout, so clients and operators can tell a primary from a replica.
	MsgStatusRequest
	// MsgStatusResponse answers a status request.
	MsgStatusResponse
	// MsgFollowRequest subscribes the connection to the node's committed
	// op stream after a given sequence — the opening frame of a follower
	// process. Every stream frame that follows carries this request's ID.
	MsgFollowRequest
	// MsgFollowHead announces the primary's committed head sequence: the
	// first answer to a follow request, and the idle stream's periodic
	// heartbeat (it keeps both sides' read deadlines fed and gives the
	// follower its lag denominator).
	MsgFollowHead
	// MsgOpRecords carries a batch of committed {sequence, op} records,
	// primary → follower.
	MsgOpRecords
	// MsgOpChunk carries one fragment of a committed op too large for a
	// single frame (a maximal batch join); the follower reassembles the
	// fragments by sequence before decoding.
	MsgOpChunk
	// MsgSnapshotChunk carries one fragment of a state snapshot, shipped
	// when a follower is behind the log's retention floor; the final
	// fragment names the sequence the snapshot covers.
	MsgSnapshotChunk
	// MsgOpAck reports the follower's applied offset back to the primary:
	// acknowledged-offset tracking for the bounded send window, and the
	// follower's share of the idle heartbeat.
	MsgOpAck
	// MsgSubscribeRequest registers a live query subscription — a landmark,
	// a peer, or a k-closest neighborhood — on the connection. Every event
	// frame that follows carries this request's ID.
	MsgSubscribeRequest
	// MsgSubscribeAck accepts a subscription, carrying the covering
	// committed sequence and (for k-closest queries) the initial answer
	// snapshot the pushed deltas apply to.
	MsgSubscribeAck
	// MsgSubEvent pushes one subscription delta: a peer entering, leaving,
	// or updating within the subscribed set, or a resync snapshot after the
	// subscriber fell behind the event stream.
	MsgSubEvent
	// MsgUnsubscribe cancels a subscription by its request ID; the server
	// answers MsgAck and stops pushing events.
	MsgUnsubscribe
)

// msgTypeNames names every message type, indexed by its wire value. The
// strings double as the stable "type" label of the per-message-type
// telemetry series, so they are lower_snake and never renamed.
var msgTypeNames = [...]string{
	MsgError:                     "error",
	MsgAck:                       "ack",
	MsgLandmarksRequest:          "landmarks_request",
	MsgLandmarksResponse:         "landmarks_response",
	MsgJoinRequest:               "join_request",
	MsgJoinResponse:              "join_response",
	MsgLookupRequest:             "lookup_request",
	MsgLookupResponse:            "lookup_response",
	MsgLeaveRequest:              "leave_request",
	MsgRefreshRequest:            "refresh_request",
	MsgRedirect:                  "redirect",
	MsgForwardedJoinRequest:      "forwarded_join_request",
	MsgHello:                     "hello",
	MsgHelloAck:                  "hello_ack",
	MsgBatchJoinRequest:          "batch_join_request",
	MsgBatchJoinResponse:         "batch_join_response",
	MsgForwardedBatchJoinRequest: "forwarded_batch_join_request",
	MsgStatusRequest:             "status_request",
	MsgStatusResponse:            "status_response",
	MsgFollowRequest:             "follow_request",
	MsgFollowHead:                "follow_head",
	MsgOpRecords:                 "op_records",
	MsgOpChunk:                   "op_chunk",
	MsgSnapshotChunk:             "snapshot_chunk",
	MsgOpAck:                     "op_ack",
	MsgSubscribeRequest:          "subscribe_request",
	MsgSubscribeAck:              "subscribe_ack",
	MsgSubEvent:                  "sub_event",
	MsgUnsubscribe:               "unsubscribe",
}

// NumMsgTypes is one past the highest defined message type — the size of
// a per-type lookup table.
const NumMsgTypes = int(MsgUnsubscribe) + 1

// String names the message type for logs and metric labels.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return "unknown"
}

// Limits protect the decoder. They are generous relative to real usage
// (Internet paths are < 64 hops; answers are a handful of peers).
const (
	// MaxFrameSize bounds any frame payload.
	MaxFrameSize = 1 << 16
	// MaxPathLen bounds reported router paths.
	MaxPathLen = codec.MaxPathLen
	// MaxNeighbors bounds answer lists.
	MaxNeighbors = 256
	// MaxAddrLen bounds address strings.
	MaxAddrLen = codec.MaxAddrLen
	// MaxLandmarks bounds the landmark list.
	MaxLandmarks = 1024
	// MaxBatch bounds the joins carried by one MsgBatchJoinRequest. Chosen
	// so a batch of realistic joins (paths well under 64 hops) and its
	// response (a handful of candidates per entry) both fit MaxFrameSize;
	// encoders still enforce the frame cap for adversarial inputs.
	MaxBatch = 32
	// MaxPipelineDepth bounds a connection's outstanding requests.
	// Clients cap their in-flight window here; servers size their
	// per-connection response queues to exactly this, so a compliant
	// client can never overflow one (overflowing marks the connection a
	// non-reading flooder, which servers drop).
	MaxPipelineDepth = 256
)

// Protocol errors. ErrTruncated and ErrLimit are package codec's, which the
// op records share.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrameSize")
	ErrTruncated     = codec.ErrTruncated
	ErrLimit         = codec.ErrLimit
)

// Error is the wire error response.
type Error struct {
	// Code is a machine-readable error class.
	Code uint16
	// Message is a human-readable description.
	Message string
}

// Error codes.
const (
	CodeInternal        uint16 = 1
	CodeUnknownLandmark uint16 = 2
	CodeUnknownPeer     uint16 = 3
	CodeBadRequest      uint16 = 4
	// CodeWrongShard is reserved: older builds answered a batch entry
	// whose landmark another node owned with it. Nothing sends it now, and
	// a client reports it as that entry's error.
	CodeWrongShard uint16 = 5
	// CodeNotPrimary rejects a write sent to a replica node. The error
	// message carries the primary's TCP address when the replica knows it,
	// so the client can retry there (replica-aware failover).
	CodeNotPrimary uint16 = 6
	// CodeStaleEpoch is reserved: older builds refused a write fenced at a
	// landmark epoch that a move had passed. Nothing sends it now.
	CodeStaleEpoch uint16 = 7
)

// Error implements the error interface so wire errors can be returned
// directly by clients.
func (e *Error) Error() string {
	return fmt.Sprintf("proxdisc server error %d: %s", e.Code, e.Message)
}

// Candidate is one closest-peer entry with the peer's overlay address so
// the newcomer can connect immediately.
type Candidate struct {
	Peer  int64
	DTree int32
	Addr  string
}

// JoinRequest reports a peer's identity, overlay address, and router path
// (peer-side first, ending at a landmark router ID).
type JoinRequest struct {
	Peer int64
	Addr string
	Path []int32
}

// JoinResponse returns the newcomer's closest peers.
type JoinResponse struct {
	Neighbors []Candidate
}

// LookupRequest re-queries the closest peers of a registered peer.
type LookupRequest struct {
	Peer int64
}

// LookupResponse answers a LookupRequest.
type LookupResponse struct {
	Neighbors []Candidate
}

// LeaveRequest deregisters a peer.
type LeaveRequest struct {
	Peer int64
}

// RefreshRequest heartbeats a peer.
type RefreshRequest struct {
	Peer int64
}

// LandmarksResponse lists the landmark router IDs and the UDP addresses of
// their probe responders (parallel slices).
type LandmarksResponse struct {
	Routers []int32
	Addrs   []string
}

// bufPool recycles frame-assembly and payload buffers across the encode and
// read hot paths. A sync.Pool holds pointers, so a buffer travels in a
// *[]byte box, and the empty boxes wait in boxPool: PutBuf fills a box from
// there, GetBuf hands the box back once it has the buffer, and a round trip
// allocates nothing. Being sync.Pools, both are emptied by the collector: a
// flow of frames that recycles every buffer it takes keeps as many as it
// has in flight, not a fixed freelist's worth, and an idle process keeps
// none.
var bufPool, boxPool sync.Pool

// GetBuf returns a buffer of length n from the frame buffer pool.
func GetBuf(n int) []byte {
	if p, ok := bufPool.Get().(*[]byte); ok {
		if b := *p; cap(b) >= n {
			*p = nil
			boxPool.Put(p)
			return b[:n]
		}
		bufPool.Put(p) // too small for this frame; leave it for a smaller caller
	}
	if n < 512 {
		return make([]byte, n, 512)
	}
	return make([]byte, n)
}

// PutBuf returns a buffer obtained from GetBuf, ReadFrame, or ReadFrameID
// to the pool. Callers must not retain any reference into it afterwards;
// the decoded messages never alias their payload, so recycling after
// decode is safe. Buffers over MaxFrameSize plus the largest header fall to
// the GC.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > MaxFrameSize+frameIDHeaderSize {
		return
	}
	p, ok := boxPool.Get().(*[]byte)
	if !ok {
		p = new([]byte)
	}
	*p = b[:0]
	bufPool.Put(p)
}

const (
	frameHeaderSize   = 5  // length + type
	frameIDHeaderSize = 13 // length + type + request ID
)

// WriteFrame writes one bare frame (type + payload, no request ID) to w:
// the handshake's framing, for MsgHello, MsgHelloAck and the MsgError that
// refuses a connection.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	return writeFrame(w, frameHeaderSize, t, 0, payload)
}

// WriteFrameID writes one ID frame (type + request ID + payload) to
// w. The declared length covers the type byte, the 8-byte ID, and the
// payload.
func WriteFrameID(w io.Writer, t MsgType, id uint64, payload []byte) error {
	return writeFrame(w, frameIDHeaderSize, t, id, payload)
}

// writeFrame is both frame writers. Into a *bufio.Writer — every hot
// path — the header is built in the writer's own spare buffer space and
// the payload appended behind it: no second buffer, no extra copy. Any
// other writer gets the frame assembled in a pooled buffer and handed over
// as a single Write call, so a raw connection never sees a frame split
// into two segments.
func writeFrame(w io.Writer, hdrSize int, t MsgType, id uint64, payload []byte) error {
	size := hdrSize - 4 + len(payload) // what the length field declares: everything behind it
	if size > MaxFrameSize {
		return ErrFrameTooLarge
	}
	bw, buffered := w.(*bufio.Writer)
	var frame []byte
	if buffered {
		frame = bw.AvailableBuffer()
	} else {
		frame = GetBuf(hdrSize + len(payload))[:0]
	}
	frame = binary.BigEndian.AppendUint32(frame, uint32(size))
	frame = append(frame, byte(t))
	if hdrSize == frameIDHeaderSize {
		frame = binary.BigEndian.AppendUint64(frame, id)
	}
	var err error
	if buffered {
		if _, err = bw.Write(frame); err == nil {
			_, err = bw.Write(payload)
		}
	} else {
		frame = append(frame, payload...)
		_, err = w.Write(frame)
		PutBuf(frame)
	}
	if err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one bare frame (the handshake's framing, see WriteFrame)
// from r. The returned payload comes from the frame buffer pool and is
// owned by the caller, who may recycle it with PutBuf once fully decoded.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	t, _, payload, err := readFrame(r, frameHeaderSize)
	return t, payload, err
}

// ReadFrameID reads one ID frame from r. The returned payload comes
// from the frame buffer pool and is owned by the caller, who may recycle
// it with PutBuf once fully decoded.
func ReadFrameID(r io.Reader) (MsgType, uint64, []byte, error) {
	return readFrame(r, frameIDHeaderSize)
}

// readFrame is both frame readers: the whole fixed header in one step, the
// declared length checked against the protocol bounds before anything is
// allocated for it, then the payload. From a *bufio.Reader — every hot
// path — the header is parsed in place in the reader's buffer; any other
// reader pays one small allocation for it.
func readFrame(r io.Reader, hdrSize int) (t MsgType, id uint64, payload []byte, err error) {
	var hdr []byte
	br, buffered := r.(*bufio.Reader)
	if buffered {
		hdr, err = br.Peek(hdrSize)
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
	} else {
		hdr = make([]byte, hdrSize)
		var n int
		n, err = io.ReadFull(r, hdr)
		hdr = hdr[:n]
	}
	// An impossible length is reported as such even when the stream ends
	// inside the header.
	var size int
	if len(hdr) >= 4 {
		size = int(binary.BigEndian.Uint32(hdr)) - (hdrSize - 4)
		if size < 0 || size > MaxFrameSize-(hdrSize-4) {
			return 0, 0, nil, ErrFrameTooLarge
		}
	}
	if err != nil {
		return 0, 0, nil, err
	}
	t = MsgType(hdr[4])
	if hdrSize == frameIDHeaderSize {
		id = binary.BigEndian.Uint64(hdr[5:])
	}
	if buffered {
		br.Discard(hdrSize) // hdr is dead from here: the next read may overwrite it
	}
	payload = GetBuf(size)
	if _, err := io.ReadFull(r, payload); err != nil {
		PutBuf(payload)
		return 0, 0, nil, fmt.Errorf("proto: read payload: %w", err)
	}
	return t, id, payload, nil
}

// FrameBuffered reports whether br already holds one complete ID frame,
// i.e. whether the next ReadFrameID is served from memory without touching
// (and possibly blocking on) the underlying reader.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < frameIDHeaderSize {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(n-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// --- message codecs ---

// pooled finishes a payload built in a GetBuf buffer — the answers and
// stream frames the connection writer recycles once the frame is copied
// out — giving the buffer back when the encode failed.
func pooled(w *codec.Writer) ([]byte, error) {
	b, err := w.Done()
	if err != nil {
		PutBuf(w.Buf)
	}
	return b, err
}

// appendMessage appends an error message, cut to the cap rather than
// refused.
func appendMessage(w *codec.Writer, msg string) { w.Str(msg[:min(len(msg), MaxAddrLen)]) }

// EncodeError encodes an Error payload.
func EncodeError(e *Error) []byte {
	var w codec.Writer
	w.U16(e.Code)
	appendMessage(&w, e.Message)
	return w.Buf
}

// DecodeError decodes an Error payload.
func DecodeError(b []byte) (*Error, error) {
	r := codec.NewReader(b)
	m := &Error{Code: r.U16(), Message: r.Str()}
	return m, r.Done()
}

// EncodeJoinRequest encodes a JoinRequest payload.
func EncodeJoinRequest(m *JoinRequest) ([]byte, error) {
	return AppendJoinRequest(make([]byte, 0, 16+len(m.Addr)+4*len(m.Path)), m)
}

// AppendJoinRequest encodes m — one join entry — onto dst and returns the
// extended slice: the allocation-free form of EncodeJoinRequest for
// callers holding a pooled buffer (GetBuf/PutBuf).
func AppendJoinRequest(dst []byte, m *JoinRequest) ([]byte, error) {
	w := codec.Writer{Buf: dst}
	codec.AppendJoin(&w, m.Peer, m.Addr, m.Path)
	return w.Done()
}

// DecodeJoinRequestInto decodes a JoinRequest payload into m, reusing
// m.Path's capacity and keeping m.Addr when its bytes are unchanged — the
// allocation-free decode for callers reusing a request struct across a
// stream of joins.
func DecodeJoinRequestInto(m *JoinRequest, b []byte) error {
	r := codec.NewReader(b)
	codec.ReadJoin(&r, &m.Peer, &m.Addr, &m.Path)
	return r.Done()
}

// appendCandidates appends the candidate list, the answer to a join, a
// lookup or a subscription:
//
//	count(2) {peer(8) dtree(4) addrLen(2) addr}...
func appendCandidates(w *codec.Writer, cands []Candidate) {
	w.Count(len(cands), 0, MaxNeighbors, "neighbours")
	for i := range cands {
		c := &cands[i]
		appendCandidate(w, c.Peer, c.DTree, c.Addr)
	}
}

// appendAnswer is appendCandidates from a backend's answer, so a server
// encodes what its backend returned without building the wire form first.
func appendAnswer(w *codec.Writer, cands []pathtree.Candidate) {
	w.Count(len(cands), 0, MaxNeighbors, "neighbours")
	for i := range cands {
		c := &cands[i]
		appendCandidate(w, int64(c.Peer), int32(c.DTree), c.Addr)
	}
}

func appendCandidate(w *codec.Writer, peer int64, dtree int32, addr string) {
	w.I64(peer)
	w.I32(dtree)
	w.Str(addr)
}

// candidateFixed is a candidate's bytes ahead of its address: peer and dtree.
const candidateFixed = 8 + 4

// readCandidates reads a candidate list in two passes over the payload. The
// first reads the fields and measures the addresses, which it sees as views
// into the payload; the second copies those views into one string. A list of
// any length costs two allocations, the slice and that string, and aliases
// nothing it was decoded from.
func readCandidates(r *codec.Reader) []Candidate {
	cands := make([]Candidate, r.Count(0, MaxNeighbors, "neighbours"))
	addrs := *r // the second pass's reader, at the first candidate
	size := 0
	for i := range cands {
		c := &cands[i]
		c.Peer = r.I64()
		c.DTree = r.I32()
		size += len(r.StrBytes())
	}
	if r.Err() != nil {
		return cands
	}
	// A Builder never rewrites bytes it has handed out, so each substring
	// stays good as b grows; grown to size first, b allocates once.
	var b strings.Builder
	b.Grow(size)
	for i := range cands {
		addrs.Bytes(candidateFixed)
		start := b.Len()
		b.Write(addrs.StrBytes())
		cands[i].Addr = b.String()[start:]
	}
	return cands
}

// readCandidate reads the one candidate of a subscription delta.
func readCandidate(r *codec.Reader, c *Candidate) {
	c.Peer = r.I64()
	c.DTree = r.I32()
	c.Addr = r.Str()
}

// encodeCandidates is the join and lookup responses: a candidate list and
// nothing else, in a pooled buffer (callers outside the connection
// writer's path simply let it go to the GC).
func encodeCandidates(cands []Candidate) ([]byte, error) {
	w := codec.Writer{Buf: GetBuf(0)}
	appendCandidates(&w, cands)
	return pooled(&w)
}

// EncodeAnswer encodes a backend's answer as a join or lookup response (the
// two payloads are the same bytes) into a pooled buffer: the server's road,
// byte for byte EncodeJoinResponse of the same candidates.
func EncodeAnswer(cands []pathtree.Candidate) ([]byte, error) {
	w := codec.Writer{Buf: GetBuf(0)}
	appendAnswer(&w, cands)
	return pooled(&w)
}

func decodeCandidates(b []byte) ([]Candidate, error) {
	r := codec.NewReader(b)
	cands := readCandidates(&r)
	return cands, r.Done()
}

// EncodeJoinResponse encodes a JoinResponse payload.
func EncodeJoinResponse(m *JoinResponse) ([]byte, error) { return encodeCandidates(m.Neighbors) }

// DecodeJoinResponse decodes a JoinResponse payload.
func DecodeJoinResponse(b []byte) (*JoinResponse, error) {
	cands, err := decodeCandidates(b)
	return &JoinResponse{Neighbors: cands}, err
}

// EncodeLookupResponse encodes a LookupResponse payload.
func EncodeLookupResponse(m *LookupResponse) ([]byte, error) { return encodeCandidates(m.Neighbors) }

// DecodeLookupResponse decodes a LookupResponse payload.
func DecodeLookupResponse(b []byte) (*LookupResponse, error) {
	cands, err := decodeCandidates(b)
	return &LookupResponse{Neighbors: cands}, err
}

// decodePeerID reads the single-field request messages (a lookup, a
// leave, a refresh), which encodeU64 writes; unlike the stream's
// single-sequence messages they refuse trailing bytes.
func decodePeerID(b []byte) (int64, error) {
	r := codec.NewReader(b)
	v := r.I64()
	return v, r.Done()
}

// EncodeLookupRequest encodes a LookupRequest payload.
func EncodeLookupRequest(m *LookupRequest) []byte { return encodeU64(uint64(m.Peer)) }

// AppendLookupRequest encodes m onto dst and returns the extended slice:
// the allocation-free form of EncodeLookupRequest for callers holding a
// pooled buffer (GetBuf/PutBuf).
func AppendLookupRequest(dst []byte, m *LookupRequest) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(m.Peer))
}

// DecodeLookupRequest decodes a LookupRequest payload.
func DecodeLookupRequest(b []byte) (*LookupRequest, error) {
	v, err := decodePeerID(b)
	return &LookupRequest{Peer: v}, err
}

// EncodeLeaveRequest encodes a LeaveRequest payload; servers decode it
// with DecodeLeaveOp.
func EncodeLeaveRequest(m *LeaveRequest) []byte { return encodeU64(uint64(m.Peer)) }

// EncodeRefreshRequest encodes a RefreshRequest payload; servers decode it
// with DecodeRefreshOp.
func EncodeRefreshRequest(m *RefreshRequest) []byte { return encodeU64(uint64(m.Peer)) }

// EncodeLandmarksResponse encodes a LandmarksResponse payload.
func EncodeLandmarksResponse(m *LandmarksResponse) ([]byte, error) {
	if len(m.Routers) != len(m.Addrs) {
		return nil, fmt.Errorf("proto: %d routers but %d addrs", len(m.Routers), len(m.Addrs))
	}
	var w codec.Writer
	w.Count(len(m.Routers), 0, MaxLandmarks, "landmarks")
	for i := range m.Routers {
		w.I32(m.Routers[i])
		w.Str(m.Addrs[i])
	}
	return w.Done()
}

// DecodeLandmarksResponse decodes a LandmarksResponse payload.
func DecodeLandmarksResponse(b []byte) (*LandmarksResponse, error) {
	r := codec.NewReader(b)
	n := r.Count(0, MaxLandmarks, "landmarks")
	m := &LandmarksResponse{Routers: make([]int32, n), Addrs: make([]string, n)}
	for i := range m.Routers {
		m.Routers[i] = r.I32()
		m.Addrs[i] = r.Str()
	}
	return m, r.Done()
}

// Redirect points a client that sent a join to a replica at the primary.
type Redirect struct {
	// Addr is the TCP address of the primary.
	Addr string
}

// EncodeRedirect encodes a Redirect payload: the address alone.
func EncodeRedirect(m *Redirect) ([]byte, error) {
	w := codec.Writer{Buf: make([]byte, 0, 2+len(m.Addr))}
	w.Str(m.Addr)
	return w.Done()
}

// DecodeRedirect decodes a Redirect payload. The u64 older builds could
// append after the address, a landmark fencing epoch, is reserved: read and
// ignored.
func DecodeRedirect(b []byte) (*Redirect, error) {
	r := codec.NewReader(b)
	m := &Redirect{Addr: r.Str()}
	if r.Len() >= 8 {
		r.U64()
	}
	return m, r.Done()
}

// Hello opens a connection (always bare-framed).
type Hello struct {
	// MaxVersion is the highest protocol version the client speaks.
	MaxVersion uint16
	// MaxBatch is the largest batch join the client will send.
	MaxBatch uint16
}

// HelloAck accepts the hello.
type HelloAck struct {
	// Version is the version both sides use from the next frame on:
	// Version2, the only one a server acknowledges.
	Version uint16
	// MaxBatch is the largest batch join the server accepts (0 = none).
	MaxBatch uint16
}

// EncodeHello encodes a Hello payload.
func EncodeHello(m *Hello) []byte {
	w := codec.Writer{Buf: make([]byte, 0, 4)}
	w.U16(m.MaxVersion)
	w.U16(m.MaxBatch)
	return w.Buf
}

// DecodeHello decodes a Hello payload. Trailing bytes are tolerated so
// future versions can extend the handshake without breaking old servers.
func DecodeHello(b []byte) (*Hello, error) {
	r := codec.NewReader(b)
	m := &Hello{MaxVersion: r.U16(), MaxBatch: r.U16()}
	return m, r.Err()
}

// EncodeHelloAck encodes a HelloAck payload.
func EncodeHelloAck(m *HelloAck) []byte {
	w := codec.Writer{Buf: make([]byte, 0, 4)}
	w.U16(m.Version)
	w.U16(m.MaxBatch)
	return w.Buf
}

// DecodeHelloAck decodes a HelloAck payload, tolerating trailing bytes
// like DecodeHello.
func DecodeHelloAck(b []byte) (*HelloAck, error) {
	r := codec.NewReader(b)
	m := &HelloAck{Version: r.U16(), MaxBatch: r.U16()}
	return m, r.Err()
}

// BatchJoinRequest carries up to MaxBatch joins in one frame.
type BatchJoinRequest struct {
	Joins []JoinRequest
}

// BatchJoinResult answers one entry of a batch join: either a neighbour
// list (Code 0) or a wire error code with detail.
type BatchJoinResult struct {
	// Code is 0 on success, else one of the Code* error classes.
	Code uint16
	// Message carries the error detail when Code is non-zero.
	Message string
	// Neighbors is the closest-peer answer when Code is 0.
	Neighbors []Candidate
}

// BatchJoinResponse answers a BatchJoinRequest entry-by-entry, in request
// order.
type BatchJoinResponse struct {
	Results []BatchJoinResult
}

// EncodeBatchJoinRequest encodes a BatchJoinRequest payload — count(2)
// then that many join entries.
func EncodeBatchJoinRequest(m *BatchJoinRequest) ([]byte, error) {
	w := codec.Writer{Buf: make([]byte, 0, 64*len(m.Joins))}
	w.Count(len(m.Joins), 1, MaxBatch, "joins")
	for i := range m.Joins {
		j := &m.Joins[i]
		codec.AppendJoin(&w, j.Peer, j.Addr, j.Path)
	}
	if len(w.Buf)+9 > MaxFrameSize {
		w.Fail(ErrFrameTooLarge)
	}
	return w.Done()
}

// DecodeBatchJoinRequest decodes a BatchJoinRequest payload. Servers
// decode it with DecodeBatchJoinOp.
func DecodeBatchJoinRequest(b []byte) (*BatchJoinRequest, error) {
	r := codec.NewReader(b)
	m := &BatchJoinRequest{Joins: make([]JoinRequest, r.Count(1, MaxBatch, "joins"))}
	for i := range m.Joins {
		j := &m.Joins[i]
		codec.ReadJoin(&r, &j.Peer, &j.Addr, &j.Path)
	}
	return m, r.Done()
}

// EncodeBatchJoinResponse encodes a BatchJoinResponse payload into a
// pooled buffer, like encodeCandidates.
func EncodeBatchJoinResponse(m *BatchJoinResponse) ([]byte, error) {
	w := codec.Writer{Buf: GetBuf(0)}
	w.Count(len(m.Results), 1, MaxBatch, "results")
	for i := range m.Results {
		res := &m.Results[i]
		w.U16(res.Code)
		appendMessage(&w, res.Message)
		appendCandidates(&w, res.Neighbors)
	}
	return pooledBatch(&w)
}

// BatchAnswer is one entry of a batch join's answer as a server holds it:
// a wire error code and detail, or its backend's answer. It is the
// BatchJoinResult of the same fields.
type BatchAnswer struct {
	Code      uint16
	Message   string
	Neighbors []pathtree.Candidate
}

// EncodeBatchAnswer encodes a server's batch answer into a pooled buffer:
// byte for byte EncodeBatchJoinResponse of the same results.
func EncodeBatchAnswer(res []BatchAnswer) ([]byte, error) {
	w := codec.Writer{Buf: GetBuf(0)}
	w.Count(len(res), 1, MaxBatch, "results")
	for i := range res {
		w.U16(res[i].Code)
		appendMessage(&w, res[i].Message)
		appendAnswer(&w, res[i].Neighbors)
	}
	return pooledBatch(&w)
}

// pooledBatch is pooled for a batch answer, which must also fit one frame.
func pooledBatch(w *codec.Writer) ([]byte, error) {
	if len(w.Buf)+9 > MaxFrameSize {
		w.Fail(ErrFrameTooLarge)
	}
	return pooled(w)
}

// DecodeBatchJoinResponse decodes a BatchJoinResponse payload.
func DecodeBatchJoinResponse(b []byte) (*BatchJoinResponse, error) {
	r := codec.NewReader(b)
	m := &BatchJoinResponse{Results: make([]BatchJoinResult, r.Count(1, MaxBatch, "results"))}
	for i := range m.Results {
		m.Results[i] = BatchJoinResult{Code: r.U16(), Message: r.Str(), Neighbors: readCandidates(&r)}
	}
	return m, r.Done()
}

// Node roles carried by Status.
const (
	// RolePrimary marks a node that accepts writes.
	RolePrimary uint8 = 1
	// RoleReplica marks a read-only replica that redirects writes to its
	// primary.
	RoleReplica uint8 = 2
)

// Status reports a node's replication role and shard layout.
type Status struct {
	// Role is RolePrimary or RoleReplica.
	Role uint8
	// Shards is the shard count of the management plane behind this node,
	// which a follower takes from its primary's. Replicas and Live keep
	// their wire slots from the builds that kept several copies of a shard
	// in one process: a node now reports Replicas = 1 and Live = Shards,
	// and further copies are follower nodes reporting their own status.
	Shards   uint16
	Replicas uint16
	Live     uint16
	// PrimaryAddr is the TCP address of the primary node, set on replicas.
	PrimaryAddr string

	// Durability and replication telemetry: the first optional block,
	// zero when the payload ends before it.

	// SnapshotSeq is the covering op sequence of the node's last on-disk
	// snapshot; WalTail is the number of log records beyond it (the tail
	// a restart replays, and the followers' catch-up buffer).
	SnapshotSeq uint64
	WalTail     uint64
	// ReplayMillis is how long the node's last restart spent replaying
	// that tail.
	ReplayMillis uint32
	// Applied and Head describe the node's position on the replication
	// stream: on a follower, the last op sequence applied locally and the
	// last head announced by its primary (lag = Head − Applied); on a
	// durable primary, both equal the committed head.
	Applied uint64
	Head    uint64

	// Operational gauges: the second optional block, zero when the
	// payload ends before it.

	// Peers is the number of peers registered with the node's backend.
	Peers uint64
	// QueueDepth is the worker pool's queued pipelined requests at the
	// moment the status was served.
	QueueDepth uint32
	// RequestsTotal is the number of requests the front end has served
	// across all message types.
	RequestsTotal uint64
	// WalFsyncs is the write-ahead log's fsync count (0 on non-durable
	// nodes).
	WalFsyncs uint64
}

// EncodeStatus encodes a Status payload.
func EncodeStatus(m *Status) ([]byte, error) {
	w := codec.Writer{Buf: make([]byte, 0, 45+len(m.PrimaryAddr))}
	w.U8(m.Role)
	w.U16(m.Shards)
	w.U16(m.Replicas)
	w.U16(m.Live)
	w.Str(m.PrimaryAddr)
	w.U64(m.SnapshotSeq)
	w.U64(m.WalTail)
	w.U32(m.ReplayMillis)
	w.U64(m.Applied)
	w.U64(m.Head)
	w.U64(m.Peers)
	w.U32(m.QueueDepth)
	w.U64(m.RequestsTotal)
	w.U64(m.WalFsyncs)
	return w.Done()
}

// DecodeStatus decodes a Status payload. The report has grown twice and
// may end where either block begins — the fields behind that point stay
// zero — and trailing bytes are tolerated so the next block does not break
// this build's clients.
func DecodeStatus(b []byte) (*Status, error) {
	r := codec.NewReader(b)
	m := &Status{
		Role:        r.U8(),
		Shards:      r.U16(),
		Replicas:    r.U16(),
		Live:        r.U16(),
		PrimaryAddr: r.Str(),
	}
	if r.Len() != 0 { // the durability block
		m.SnapshotSeq = r.U64()
		m.WalTail = r.U64()
		m.ReplayMillis = r.U32()
		m.Applied = r.U64()
		m.Head = r.U64()
	}
	if r.Len() != 0 { // the operational gauges
		m.Peers = r.U64()
		m.QueueDepth = r.U32()
		m.RequestsTotal = r.U64()
		m.WalFsyncs = r.U64()
	}
	return m, r.Err()
}

// ProbePacket is the 12-byte UDP landmark probe: a magic tag plus a nonce
// echoed back verbatim. RTT = receive time − send time.
const (
	// ProbeMagic tags proxdisc probe datagrams.
	ProbeMagic uint32 = 0x70647072 // "pdpr"
	// ProbeSize is the datagram length.
	ProbeSize = 12
)

// EncodeProbe builds a probe datagram with the given nonce.
func EncodeProbe(nonce uint64) []byte {
	b := make([]byte, ProbeSize)
	binary.BigEndian.PutUint32(b[:4], ProbeMagic)
	binary.BigEndian.PutUint64(b[4:], nonce)
	return b
}

// DecodeProbe validates a probe datagram and returns its nonce.
func DecodeProbe(b []byte) (uint64, error) {
	if len(b) != ProbeSize {
		return 0, fmt.Errorf("proto: probe size %d", len(b))
	}
	if binary.BigEndian.Uint32(b[:4]) != ProbeMagic {
		return 0, errors.New("proto: bad probe magic")
	}
	return binary.BigEndian.Uint64(b[4:]), nil
}
