package proto

import (
	"fmt"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// This file bridges wire payloads and the canonical typed operation
// (package op): servers decode write-class requests directly into ops and
// dispatch those, so the message a client sent, the command followers
// apply, and the record the write-ahead log persists are one value with
// one meaning. The wire layouts are those of the request structs; only the
// decode target is unified.

// DecodeJoinOp decodes a MsgJoinRequest (or MsgForwardedJoinRequest)
// payload into a KindJoin op. The op is unstamped; the applying backend
// stamps it from its own clock.
func DecodeJoinOp(b []byte) (op.Op, error) {
	m, err := DecodeJoinRequest(b)
	if err != nil {
		return op.Op{}, err
	}
	return op.Join(pathtree.PeerID(m.Peer), wireToPath(m.Path), m.Addr, 0), nil
}

// EncodeJoinOp encodes a KindJoin op as a MsgJoinRequest payload — the
// inverse bridge, used when a node forwards a decoded join to the cluster
// node owning its landmark.
func EncodeJoinOp(o op.Op) ([]byte, error) {
	if o.Kind != op.KindJoin {
		return nil, fmt.Errorf("proto: cannot encode op kind %d as a join request", o.Kind)
	}
	return EncodeJoinRequest(&JoinRequest{
		Peer: int64(o.Join.Peer),
		Addr: o.Join.Addr,
		Path: pathToWire(o.Join.Path),
	})
}

// EncodeForwardedJoinOp encodes a KindJoin op as a MsgForwardedJoinRequest
// payload: a JoinRequest plus the op's fencing epoch as an optional
// trailing u64 (omitted when zero, so the bytes a pre-epoch node sees are
// exactly a JoinRequest). The forwarding node stamps the epoch from the
// Redirect (or its own table) that told it where to send the join; the
// owner rejects with CodeStaleEpoch if the landmark has moved since.
func EncodeForwardedJoinOp(o op.Op) ([]byte, error) {
	b, err := EncodeJoinOp(o)
	if err != nil {
		return nil, err
	}
	if o.Epoch != 0 {
		enc := encoder{buf: b}
		enc.u64(o.Epoch)
		b = enc.buf
	}
	return b, nil
}

// DecodeForwardedJoinOp decodes a MsgForwardedJoinRequest payload into a
// KindJoin op, picking up the optional trailing fencing epoch (absent
// means zero: unfenced, the pre-epoch wire form).
func DecodeForwardedJoinOp(b []byte) (op.Op, error) {
	d := decoder{buf: b}
	m := &JoinRequest{}
	if err := decodeJoinRequestPrefix(&d, m); err != nil {
		return op.Op{}, err
	}
	var epoch uint64
	if d.remaining() >= 8 {
		var err error
		if epoch, err = d.u64(); err != nil {
			return op.Op{}, err
		}
	}
	if err := d.finish(); err != nil {
		return op.Op{}, err
	}
	o := op.Join(pathtree.PeerID(m.Peer), wireToPath(m.Path), m.Addr, 0)
	o.Epoch = epoch
	return o, nil
}

// DecodeBatchJoinOp decodes a MsgBatchJoinRequest (or its forwarded
// variant) payload into a KindBatchJoin op.
func DecodeBatchJoinOp(b []byte) (op.Op, error) {
	m, err := DecodeBatchJoinRequest(b)
	if err != nil {
		return op.Op{}, err
	}
	entries := make([]op.JoinEntry, len(m.Joins))
	for i := range m.Joins {
		j := &m.Joins[i]
		entries[i] = op.JoinEntry{
			Peer: pathtree.PeerID(j.Peer),
			Addr: j.Addr,
			Path: wireToPath(j.Path),
		}
	}
	return op.BatchJoin(entries, 0), nil
}

// DecodeLeaveOp decodes a MsgLeaveRequest payload into a KindLeave op.
func DecodeLeaveOp(b []byte) (op.Op, error) {
	m, err := DecodeLeaveRequest(b)
	if err != nil {
		return op.Op{}, err
	}
	return op.Leave(pathtree.PeerID(m.Peer)), nil
}

// DecodeRefreshOp decodes a MsgRefreshRequest payload into a KindRefresh
// op (unstamped, like DecodeJoinOp).
func DecodeRefreshOp(b []byte) (op.Op, error) {
	m, err := DecodeRefreshRequest(b)
	if err != nil {
		return op.Op{}, err
	}
	return op.Refresh(pathtree.PeerID(m.Peer), 0), nil
}

// wireToPath converts a wire router path to the topology form.
func wireToPath(path []int32) []topology.NodeID {
	out := make([]topology.NodeID, len(path))
	for i, r := range path {
		out[i] = topology.NodeID(r)
	}
	return out
}

// pathToWire converts a topology router path to the wire form.
func pathToWire(path []topology.NodeID) []int32 {
	out := make([]int32, len(path))
	for i, r := range path {
		out[i] = int32(r)
	}
	return out
}

// PathToWire converts a topology router path to its wire form. Front ends
// use it when re-encoding a decoded op for node-to-node forwarding.
func PathToWire(path []topology.NodeID) []int32 { return pathToWire(path) }
