package proto

import (
	"slices"
	"strings"

	"proxdisc/internal/codec"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// This file bridges wire payloads and the canonical typed operation
// (package op): servers decode write-class requests straight into ops and
// dispatch those, so the message a client sent, the command followers
// apply, and the record the write-ahead log persists are one value with
// one meaning. The wire layouts are those of the request structs — the
// join entry is the same bytes in both — and only the decode target
// differs. A join, single or batched, decodes into a KindBatchJoin op, a
// single one as a batch of one, so the server answers both on one road.
// The ops are unstamped; the applying backend stamps them from its own
// clock.

// BatchJoinOp is a reusable decode target for join payloads: a KindBatchJoin
// op whose entries' paths are runs of one block of hops and whose addresses
// are substrings of one string. A target reused from call to call has grown
// its entries and hops, so a decode allocates the string and nothing else.
// The entries and their paths are good until the next decode; the
// addresses, being a string, for ever.
type BatchJoinOp struct {
	// Op is the decoded op.
	Op   op.Op
	hops []topology.NodeID
}

// Decode decodes a MsgBatchJoinRequest payload into m.Op.
func (m *BatchJoinOp) Decode(b []byte) error {
	r := codec.NewReader(b)
	n := r.Count(1, MaxBatch, "joins")
	return m.decode(r, n)
}

// DecodeJoin decodes a MsgJoinRequest payload — one join entry, with no
// count before it — into m.Op, as a batch of one.
func (m *BatchJoinOp) DecodeJoin(b []byte) error {
	return m.decode(codec.NewReader(b), 1)
}

// decode reads n join entries from r into m.Op in two passes, the first
// measuring the paths and addresses, the second filling the blocks. It
// accepts and refuses exactly what codec.ReadJoin does, entry by entry.
func (m *BatchJoinOp) decode(r codec.Reader, n int) error {
	fill := r // the second pass's reader, at the first entry
	hops, size := 0, 0
	for range n {
		r.I64()
		size += len(r.StrBytes())
		k := r.Count(0, codec.MaxPathLen, "path hops")
		hops += k
		r.Bytes(4 * k)
	}
	m.Op = op.Op{Kind: op.KindBatchJoin, Batch: m.Op.Batch[:0]}
	if err := r.Done(); err != nil {
		return err
	}
	m.Op.Batch = slices.Grow(m.Op.Batch, n)[:n]
	m.hops = slices.Grow(m.hops[:0], hops)[:hops]
	var addrs strings.Builder
	addrs.Grow(size)
	at := 0
	for i := range m.Op.Batch {
		e := &m.Op.Batch[i]
		e.Peer = pathtree.PeerID(fill.I64())
		start := addrs.Len()
		addrs.Write(fill.StrBytes())
		e.Addr = addrs.String()[start:]
		k := fill.Count(0, codec.MaxPathLen, "path hops")
		e.Path = m.hops[at : at+k : at+k]
		for j := range e.Path {
			e.Path[j] = topology.NodeID(fill.I32())
		}
		at += k
	}
	return nil
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
