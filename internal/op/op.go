// Package op defines the canonical typed mutation command of the proxdisc
// management plane. Every write — a peer joining, a flash-crowd batch of
// joins, a departure, a liveness refresh, a super-peer flag, a TTL expiry
// sweep — is one Op, and every layer that moves writes around speaks Op:
// the server applies them, the write-ahead log persists them, the follower
// stream ships them, and the TCP front end decodes wire requests into them
// before dispatch. One type, one binary codec, one replay semantics, so the
// record/ship/recover paths can never drift apart. A checkpoint is not a run
// of ops but the trees themselves, framed as a checkpoint stream
// (stream.go), whose frames this package bounds by MaxEncodedSize.
//
// Ops are deterministic: a Join or Refresh carries the apply-time
// timestamp and an Expire carries its cutoff deadline, so replaying the
// same op sequence on any copy — a follower in another process, or a
// process restarted from the WAL — reproduces byte-identical state,
// including TTL bookkeeping.
//
// The binary codec is big-endian with 16-bit counts and hard field caps,
// read and appended through package codec like the wire protocol's
// payloads: a corrupt or adversarial log record fails to decode instead of
// causing unbounded allocation. Append and DecodeInto below are the whole
// record layout; the join entry inside a Join or BatchJoin record is
// codec.AppendJoin / codec.ReadJoin, the same bytes a wire join carries.
// Encoding an op into a pooled buffer and decoding it into a reused one
// (TestCodecAllocs) allocate nothing, and reading a checkpoint stream into
// one reused buffer (TestStreamReadReusesBuffer) allocates a handful.
package op

import (
	"fmt"

	"proxdisc/internal/codec"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// Kind discriminates the mutation an Op carries.
type Kind uint8

// Op kinds. The values are part of the durable log format; never renumber.
const (
	// KindJoin registers one peer with its reported router path.
	KindJoin Kind = iota + 1
	// KindBatchJoin registers up to MaxBatch peers in one command.
	KindBatchJoin
	// KindLeave deregisters a peer.
	KindLeave
	// KindRefresh updates a peer's liveness timestamp.
	KindRefresh
	// KindSetSuperPeer flags or unflags a peer as a super-peer.
	KindSetSuperPeer
	// KindExpire sweeps out every peer whose last refresh predates the
	// op's Time (the deadline). Logged and shipped as the one sweep
	// command rather than as per-peer leaves, so logs stay compact and
	// byte-comparable across copies.
	KindExpire
	// KindMoveLandmark names one landmark, whose tree it brings into the
	// state. Builds that moved landmarks between shards logged one per move
	// and wrote owners and fencing epochs into it (MoveEntry); the op-stream
	// checkpoints that preceded tree sections opened with one per held
	// landmark. Every log reader still accepts such a record, checks that
	// its landmark is served, and ignores the rest.
	KindMoveLandmark
)

// Codec limits. The per-entry caps are the wire protocol's (both are
// package codec's): a join entry that fits the wire fits the log and vice
// versa. The batch cap is not.
const (
	// MaxPathLen bounds a reported router path.
	MaxPathLen = codec.MaxPathLen
	// MaxAddrLen bounds an overlay address string.
	MaxAddrLen = codec.MaxAddrLen
	// MaxBatch bounds the entries of a KindBatchJoin op. It is eight times
	// proto.MaxBatch, which is sized to fit a frame: a snapshot packs its
	// peers MaxBatch to a record, and the cluster's commit splits a wider
	// in-process batch into records of at most this many.
	MaxBatch = 256
	// MaxShard bounds the shard indices a KindMoveLandmark op may carry;
	// they are encoded as 16-bit values.
	MaxShard = 1<<16 - 1
	// MaxEncodedSize bounds any encoded op (a full batch of maximum-length
	// joins), sized from the per-field caps above.
	MaxEncodedSize = 16 + MaxBatch*(8+2+MaxAddrLen+2+4*MaxPathLen)
)

// ErrLimit reports a field exceeding its codec cap (package codec's, which
// the wire protocol shares, as is codec.ErrTruncated, which a decoder
// returns for a record shorter than its declared fields).
var ErrLimit = codec.ErrLimit

// JoinEntry is one peer registration inside a Join or BatchJoin op.
type JoinEntry struct {
	// Peer is the joining peer.
	Peer pathtree.PeerID
	// Addr is the peer's advertised overlay address ("" when the join came
	// from an in-process caller rather than the wire).
	Addr string
	// Path is the reported router path, peer-side first, ending at a
	// landmark.
	Path []topology.NodeID
}

// MoveEntry is the payload of a KindMoveLandmark op: the landmark, and
// the fields builds that moved landmarks between shards filled — the shard
// giving it up, the shard taking it and its fencing epoch. This build
// writes them zero and reads past them.
type MoveEntry struct {
	// Landmark is the landmark the record names.
	Landmark topology.NodeID
	// Src and Dst are the shard indices of an older build's move.
	Src, Dst int
	// Epoch is an older build's fencing epoch.
	Epoch uint64
}

// Op is one typed mutation of management-plane state.
type Op struct {
	// Kind selects the mutation.
	Kind Kind
	// Time is the op's timestamp in Unix nanoseconds: the apply time of a
	// Join/BatchJoin/Refresh (it becomes the peer's LastRefresh) and the
	// expiry deadline of an Expire. Zero means "not yet stamped"; the
	// applying layer stamps it from its clock before recording, so every
	// copy replays the same instant.
	Time int64
	// Peer is the subject of Leave, Refresh, and SetSuperPeer.
	Peer pathtree.PeerID
	// Join is the registration of a KindJoin op.
	Join JoinEntry
	// Batch lists the registrations of a KindBatchJoin op.
	Batch []JoinEntry
	// Super is the flag of a KindSetSuperPeer op.
	Super bool
	// Move is the payload of a KindMoveLandmark op.
	Move MoveEntry
}

// Join builds a single-peer registration op. A zero time means "stamp me
// at apply".
func Join(p pathtree.PeerID, path []topology.NodeID, addr string, timeNanos int64) Op {
	return Op{Kind: KindJoin, Time: timeNanos, Join: JoinEntry{Peer: p, Addr: addr, Path: path}}
}

// BatchJoin builds a batched registration op.
func BatchJoin(entries []JoinEntry, timeNanos int64) Op {
	return Op{Kind: KindBatchJoin, Time: timeNanos, Batch: entries}
}

// Leave builds a departure op.
func Leave(p pathtree.PeerID) Op { return Op{Kind: KindLeave, Peer: p} }

// Refresh builds a liveness-heartbeat op.
func Refresh(p pathtree.PeerID, timeNanos int64) Op {
	return Op{Kind: KindRefresh, Time: timeNanos, Peer: p}
}

// SetSuperPeer builds a super-peer flag op.
func SetSuperPeer(p pathtree.PeerID, super bool) Op {
	return Op{Kind: KindSetSuperPeer, Peer: p, Super: super}
}

// Expire builds a TTL sweep op removing every peer whose last refresh is
// strictly before deadlineNanos.
func Expire(deadlineNanos int64) Op { return Op{Kind: KindExpire, Time: deadlineNanos} }

// Append encodes o onto dst and returns the extended slice. The layout is
//
//	kind(1) time(8) body
//
// with a kind-specific body:
//
//	Join:         entry
//	BatchJoin:    count(2) entry...
//	Leave:        peer(8)
//	Refresh:      peer(8)
//	SetSuperPeer: peer(8) super(1)
//	Expire:       —
//	MoveLandmark: landmark(4) src(2) dst(2) epoch(8)
//
// where entry is the join entry of codec.AppendJoin. All integers are
// big-endian.
func Append(dst []byte, o Op) ([]byte, error) {
	w := codec.Writer{Buf: dst}
	w.U8(uint8(o.Kind))
	w.I64(o.Time)
	switch o.Kind {
	case KindJoin:
		codec.AppendJoin(&w, o.Join.Peer, o.Join.Addr, o.Join.Path)
	case KindBatchJoin:
		w.Count(len(o.Batch), 1, MaxBatch, "joins")
		for i := range o.Batch {
			e := &o.Batch[i]
			codec.AppendJoin(&w, e.Peer, e.Addr, e.Path)
		}
	case KindLeave, KindRefresh:
		w.I64(int64(o.Peer))
	case KindSetSuperPeer:
		w.I64(int64(o.Peer))
		w.Bool(o.Super)
	case KindExpire:
	case KindMoveLandmark:
		if o.Move.Src < 0 || o.Move.Src > MaxShard || o.Move.Dst < 0 || o.Move.Dst > MaxShard {
			w.Fail(fmt.Errorf("%w: shard move %d -> %d", ErrLimit, o.Move.Src, o.Move.Dst))
		}
		w.I32(int32(o.Move.Landmark))
		w.U16(uint16(o.Move.Src))
		w.U16(uint16(o.Move.Dst))
		w.U64(o.Move.Epoch)
	default:
		w.Fail(fmt.Errorf("op: cannot encode unknown kind %d", o.Kind))
	}
	return w.Done()
}

// Encode encodes o into a fresh buffer.
func Encode(o Op) ([]byte, error) { return Append(nil, o) }

// Decode decodes one op from b, which must contain exactly one encoded op
// (trailing bytes are an error — log records and wire payloads are framed
// by their carriers).
func Decode(b []byte) (Op, error) {
	var o Op
	if err := DecodeInto(&o, b); err != nil {
		return Op{}, err
	}
	return o, nil
}

// DecodeInto decodes one op from b into o, reusing o's Batch and Path
// capacity — and Addr strings when the bytes are unchanged — so a
// steady-state decode loop over a record stream allocates nothing.
// Scalar fields are reset; slice/entry fields of kinds other than the
// decoded one keep stale contents, which is safe because every consumer
// switches on Kind and reads only that kind's fields. On error o's
// contents are unspecified.
func DecodeInto(o *Op, b []byte) error {
	r := codec.NewReader(b)
	// Reset the scalars a stale target could leak between kinds; Join,
	// Batch, and Move are overwritten (or ignored) per the Kind contract
	// above, and keeping their capacity is the point.
	o.Peer, o.Super = 0, false
	o.Kind = Kind(r.U8())
	o.Time = r.I64()
	switch o.Kind {
	case KindJoin:
		codec.ReadJoin(&r, &o.Join.Peer, &o.Join.Addr, &o.Join.Path)
	case KindBatchJoin:
		n := r.Count(1, MaxBatch, "joins")
		if o.Batch == nil || cap(o.Batch) < n {
			o.Batch = make([]JoinEntry, n)
		} else {
			o.Batch = o.Batch[:n]
		}
		for i := range o.Batch {
			e := &o.Batch[i]
			codec.ReadJoin(&r, &e.Peer, &e.Addr, &e.Path)
		}
	case KindLeave, KindRefresh:
		o.Peer = pathtree.PeerID(r.I64())
	case KindSetSuperPeer:
		o.Peer = pathtree.PeerID(r.I64())
		o.Super = r.Bool()
	case KindExpire:
	case KindMoveLandmark:
		o.Move = MoveEntry{
			Landmark: topology.NodeID(r.I32()),
			Src:      int(r.U16()),
			Dst:      int(r.U16()),
			Epoch:    r.U64(),
		}
	default:
		r.Fail(fmt.Errorf("op: unknown kind %d", o.Kind))
	}
	return r.Done()
}
