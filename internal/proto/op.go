package proto

import (
	"proxdisc/internal/codec"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
)

// This file bridges wire payloads and the canonical typed operation
// (package op): servers decode write-class requests straight into ops and
// dispatch those, so the message a client sent, the command followers
// apply, and the record the write-ahead log persists are one value with
// one meaning. The wire layouts are those of the request structs — the
// join entry is the same bytes in both — and only the decode target
// differs. The ops are unstamped; the applying backend stamps them from its
// own clock.

// DecodeJoinOp decodes a MsgJoinRequest payload into a KindJoin op.
func DecodeJoinOp(b []byte) (op.Op, error) {
	r := codec.NewReader(b)
	o := op.Op{Kind: op.KindJoin}
	codec.ReadJoin(&r, &o.Join.Peer, &o.Join.Addr, &o.Join.Path)
	return o, r.Done()
}

// DecodeBatchJoinOp decodes a MsgBatchJoinRequest payload into a
// KindBatchJoin op.
func DecodeBatchJoinOp(b []byte) (op.Op, error) {
	r := codec.NewReader(b)
	o := op.Op{Kind: op.KindBatchJoin, Batch: make([]op.JoinEntry, r.Count(1, MaxBatch, "joins"))}
	for i := range o.Batch {
		e := &o.Batch[i]
		codec.ReadJoin(&r, &e.Peer, &e.Addr, &e.Path)
	}
	return o, r.Done()
}

// DecodeLeaveOp decodes a MsgLeaveRequest payload into a KindLeave op.
func DecodeLeaveOp(b []byte) (op.Op, error) {
	p, err := decodePeerID(b)
	return op.Leave(pathtree.PeerID(p)), err
}

// DecodeRefreshOp decodes a MsgRefreshRequest payload into a KindRefresh
// op.
func DecodeRefreshOp(b []byte) (op.Op, error) {
	p, err := decodePeerID(b)
	return op.Refresh(pathtree.PeerID(p), 0), err
}
