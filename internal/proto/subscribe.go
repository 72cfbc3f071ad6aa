package proto

import "fmt"

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

// EncodeSubscribeRequest encodes a SubscribeRequest payload.
func EncodeSubscribeRequest(m *SubscribeRequest) ([]byte, error) {
	if m.Kind < QueryLandmark || m.Kind > QueryKClosest {
		return nil, fmt.Errorf("proto: bad query kind %d", m.Kind)
	}
	if int(m.K) > MaxNeighbors {
		return nil, fmt.Errorf("%w: k of %d", ErrLimit, m.K)
	}
	enc := encoder{buf: make([]byte, 0, 15)}
	enc.buf = append(enc.buf, m.Kind)
	enc.i64(m.Peer)
	enc.i32(m.Landmark)
	enc.u16(m.K)
	return enc.buf, nil
}

// DecodeSubscribeRequest decodes a SubscribeRequest payload. Trailing
// bytes are tolerated so future versions can extend the query.
func DecodeSubscribeRequest(b []byte) (*SubscribeRequest, error) {
	d := decoder{buf: b}
	m := &SubscribeRequest{}
	var err error
	if m.Kind, err = d.u8(); err != nil {
		return nil, err
	}
	if m.Kind < QueryLandmark || m.Kind > QueryKClosest {
		return nil, fmt.Errorf("proto: bad query kind %d", m.Kind)
	}
	if m.Peer, err = d.i64(); err != nil {
		return nil, err
	}
	if m.Landmark, err = d.i32(); err != nil {
		return nil, err
	}
	if m.K, err = d.u16(); err != nil {
		return nil, err
	}
	if int(m.K) > MaxNeighbors {
		return nil, fmt.Errorf("%w: k of %d", ErrLimit, m.K)
	}
	return m, nil
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

// EncodeSubscribeAck encodes a SubscribeAck payload.
func EncodeSubscribeAck(m *SubscribeAck) ([]byte, error) {
	enc := encoder{buf: make([]byte, 0, 10+24*len(m.Neighbors))}
	enc.u64(m.Seq)
	if err := appendCandidates(&enc, m.Neighbors); err != nil {
		return nil, err
	}
	return enc.buf, nil
}

// DecodeSubscribeAck decodes a SubscribeAck payload. Trailing bytes are
// tolerated — like DecodeStatus, the ack is the message newer servers
// extend, and an older client must keep decoding the fields it knows.
func DecodeSubscribeAck(b []byte) (*SubscribeAck, error) {
	d := decoder{buf: b}
	m := &SubscribeAck{}
	var err error
	if m.Seq, err = d.u64(); err != nil {
		return nil, err
	}
	if m.Neighbors, err = readCandidates(&d); err != nil {
		return nil, err
	}
	return m, nil
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
//	or count(2) candidate... for resync.
func EncodeSubEvent(m *SubEvent) ([]byte, error) {
	enc := encoder{buf: make([]byte, 0, 32)}
	enc.u64(m.Seq)
	enc.buf = append(enc.buf, m.Kind)
	switch m.Kind {
	case EventEnter, EventLeave, EventUpdate:
		enc.i64(m.Cand.Peer)
		enc.i32(m.Cand.DTree)
		if err := enc.str(m.Cand.Addr); err != nil {
			return nil, err
		}
	case EventResync:
		if err := appendCandidates(&enc, m.Neighbors); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("proto: bad event kind %d", m.Kind)
	}
	return enc.buf, nil
}

// DecodeSubEvent decodes a SubEvent payload.
func DecodeSubEvent(b []byte) (*SubEvent, error) {
	d := decoder{buf: b}
	m := &SubEvent{}
	var err error
	if m.Seq, err = d.u64(); err != nil {
		return nil, err
	}
	if m.Kind, err = d.u8(); err != nil {
		return nil, err
	}
	switch m.Kind {
	case EventEnter, EventLeave, EventUpdate:
		if m.Cand.Peer, err = d.i64(); err != nil {
			return nil, err
		}
		if m.Cand.DTree, err = d.i32(); err != nil {
			return nil, err
		}
		if m.Cand.Addr, err = d.str(); err != nil {
			return nil, err
		}
	case EventResync:
		if m.Neighbors, err = readCandidates(&d); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("proto: bad event kind %d", m.Kind)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Unsubscribe cancels a subscription.
type Unsubscribe struct {
	// SubID is the request ID the subscription was registered under.
	SubID uint64
}

// EncodeUnsubscribe encodes an Unsubscribe payload.
func EncodeUnsubscribe(m *Unsubscribe) []byte {
	enc := encoder{buf: make([]byte, 0, 8)}
	enc.u64(m.SubID)
	return enc.buf
}

// DecodeUnsubscribe decodes an Unsubscribe payload, tolerating trailing
// bytes.
func DecodeUnsubscribe(b []byte) (*Unsubscribe, error) {
	d := decoder{buf: b}
	m := &Unsubscribe{}
	var err error
	if m.SubID, err = d.u64(); err != nil {
		return nil, err
	}
	return m, nil
}

// appendCandidates encodes a counted candidate list onto an encoder —
// the in-message form of encodeCandidates, shared by the subscription
// messages whose candidates follow other fields.
func appendCandidates(enc *encoder, cands []Candidate) error {
	if len(cands) > MaxNeighbors {
		return fmt.Errorf("%w: %d neighbours", ErrLimit, len(cands))
	}
	enc.u16(uint16(len(cands)))
	for _, c := range cands {
		enc.i64(c.Peer)
		enc.i32(c.DTree)
		if err := enc.str(c.Addr); err != nil {
			return err
		}
	}
	return nil
}

// readCandidates decodes a counted candidate list from a decoder mid-
// message.
func readCandidates(d *decoder) ([]Candidate, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > MaxNeighbors {
		return nil, fmt.Errorf("%w: %d neighbours", ErrLimit, n)
	}
	cands := make([]Candidate, n)
	for i := range cands {
		if cands[i].Peer, err = d.i64(); err != nil {
			return nil, err
		}
		if cands[i].DTree, err = d.i32(); err != nil {
			return nil, err
		}
		if cands[i].Addr, err = d.str(); err != nil {
			return nil, err
		}
	}
	return cands, nil
}
