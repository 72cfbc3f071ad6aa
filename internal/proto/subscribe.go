package proto

import (
	"fmt"

	"proxdisc/internal/codec"
	"proxdisc/internal/pathtree"
)

// This file is the wire form of the push-based read plane (the
// MsgSubscribe family): a client registers a live query with
// MsgSubscribeRequest and receives MsgSubEvent deltas as committed ops
// change the answer, cancelling with MsgUnsubscribe. Like the op stream,
// subscriptions ride the ID framing: every event frame carries the
// subscribe request's ID, so any number of subscriptions and ordinary
// pipelined requests share one connection.

// Query kinds a subscription can register.
const (
	// QueryLandmark watches every peer registered under one landmark tree.
	QueryLandmark uint8 = 1
	// QueryPeer watches one peer's registration (joins, refreshes,
	// departures).
	QueryPeer uint8 = 2
	// QueryKClosest watches the k-closest answer set of a registered peer —
	// the push form of MsgLookupRequest.
	QueryKClosest uint8 = 3
)

// Subscription event kinds.
const (
	// EventEnter reports a peer entering the subscribed set.
	EventEnter uint8 = 1
	// EventLeave reports a peer leaving the subscribed set. A k-closest
	// subscription whose subject itself deregistered reports the subject.
	EventLeave uint8 = 2
	// EventUpdate reports a peer already in the set whose record changed
	// (distance, address, or liveness).
	EventUpdate uint8 = 3
	// EventResync replaces the subscriber's whole cached set: the server
	// dropped deltas for a slow consumer (or the subscription was just
	// re-established) and ships the current full answer instead.
	EventResync uint8 = 4
)

// SubscribeRequest registers a live query on the connection.
type SubscribeRequest struct {
	// Kind is the query kind (QueryLandmark, QueryPeer, QueryKClosest).
	Kind uint8
	// Peer is the subject of QueryPeer and QueryKClosest.
	Peer int64
	// Landmark is the subject of QueryLandmark.
	Landmark int32
	// K is the QueryKClosest answer size; 0 means the server's configured
	// neighbor count (the only size a cached lookup can cover).
	K uint16
}

// check reports a query kind or answer size no server accepts.
func (m *SubscribeRequest) check() error {
	if m.Kind < QueryLandmark || m.Kind > QueryKClosest {
		return fmt.Errorf("proto: bad query kind %d", m.Kind)
	}
	if int(m.K) > MaxNeighbors {
		return fmt.Errorf("%w: k of %d", ErrLimit, m.K)
	}
	return nil
}

// EncodeSubscribeRequest encodes a SubscribeRequest payload.
func EncodeSubscribeRequest(m *SubscribeRequest) ([]byte, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	w := codec.Writer{Buf: make([]byte, 0, 15)}
	w.U8(m.Kind)
	w.I64(m.Peer)
	w.I32(m.Landmark)
	w.U16(m.K)
	return w.Buf, nil
}

// DecodeSubscribeRequest decodes a SubscribeRequest payload. Trailing
// bytes are tolerated so future versions can extend the query.
func DecodeSubscribeRequest(b []byte) (*SubscribeRequest, error) {
	r := codec.NewReader(b)
	m := &SubscribeRequest{Kind: r.U8(), Peer: r.I64(), Landmark: r.I32(), K: r.U16()}
	if err := r.Err(); err != nil {
		return m, err
	}
	return m, m.check()
}

// SubscribeAck accepts a subscription.
type SubscribeAck struct {
	// Seq is the committed sequence the initial snapshot covers (0 when the
	// serving node cannot name one).
	Seq uint64
	// Neighbors is the query's current answer: the k-closest set for
	// QueryKClosest (possibly empty), empty for the other kinds.
	Neighbors []Candidate
}

// EncodeSubscribeAckAnswer encodes a SubscribeAck whose answer is a
// backend's into a pooled buffer: seq(8), then the candidates as a
// LookupResponse lays them out.
func EncodeSubscribeAckAnswer(seq uint64, cands []pathtree.Candidate) ([]byte, error) {
	w := codec.Writer{Buf: GetBuf(0)}
	w.U64(seq)
	appendAnswer(&w, cands)
	return pooled(&w)
}

// DecodeSubscribeAck decodes a SubscribeAck payload. Trailing bytes are
// tolerated — like DecodeStatus, the ack is the message newer servers
// extend, and an older client must keep decoding the fields it knows.
func DecodeSubscribeAck(b []byte) (*SubscribeAck, error) {
	r := codec.NewReader(b)
	m := &SubscribeAck{Seq: r.U64(), Neighbors: readCandidates(&r)}
	return m, r.Err()
}

// SubEvent is one pushed subscription delta.
type SubEvent struct {
	// Seq is the committed sequence of the op the event derives from.
	Seq uint64
	// Kind is the event kind (EventEnter, EventLeave, EventUpdate,
	// EventResync).
	Kind uint8
	// Cand is the affected peer for enter/leave/update events; a leave
	// carries the peer ID with a zero distance and empty address.
	Cand Candidate
	// Neighbors is the full refreshed answer set of an EventResync.
	Neighbors []Candidate
}

// EncodeSubEvent encodes a SubEvent payload:
//
//	seq(8) kind(1) then candidate for enter/leave/update,
//	or the candidate list for resync.
func EncodeSubEvent(m *SubEvent) ([]byte, error) {
	w := codec.Writer{Buf: make([]byte, 0, 32)}
	w.U64(m.Seq)
	w.U8(m.Kind)
	switch m.Kind {
	case EventEnter, EventLeave, EventUpdate:
		appendCandidate(&w, m.Cand.Peer, m.Cand.DTree, m.Cand.Addr)
	case EventResync:
		appendCandidates(&w, m.Neighbors)
	default:
		w.Fail(fmt.Errorf("proto: bad event kind %d", m.Kind))
	}
	return w.Done()
}

// EncodeResyncAnswer encodes an EventResync whose answer is a backend's into
// a pooled buffer: byte for byte EncodeSubEvent of the same resync.
func EncodeResyncAnswer(seq uint64, cands []pathtree.Candidate) ([]byte, error) {
	w := codec.Writer{Buf: GetBuf(0)}
	w.U64(seq)
	w.U8(EventResync)
	appendAnswer(&w, cands)
	return pooled(&w)
}

// DecodeSubEvent decodes a SubEvent payload.
func DecodeSubEvent(b []byte) (*SubEvent, error) {
	r := codec.NewReader(b)
	m := &SubEvent{Seq: r.U64(), Kind: r.U8()}
	switch m.Kind {
	case EventEnter, EventLeave, EventUpdate:
		readCandidate(&r, &m.Cand)
	case EventResync:
		m.Neighbors = readCandidates(&r)
	default:
		r.Fail(fmt.Errorf("proto: bad event kind %d", m.Kind))
	}
	return m, r.Done()
}

// Unsubscribe cancels a subscription.
type Unsubscribe struct {
	// SubID is the request ID the subscription was registered under.
	SubID uint64
}

// EncodeUnsubscribe encodes an Unsubscribe payload.
func EncodeUnsubscribe(m *Unsubscribe) []byte { return encodeU64(m.SubID) }

// DecodeUnsubscribe decodes an Unsubscribe payload, tolerating trailing
// bytes.
func DecodeUnsubscribe(b []byte) (*Unsubscribe, error) {
	v, err := decodeU64(b)
	return &Unsubscribe{SubID: v}, err
}
