// Package op defines the canonical typed mutation command of the proxdisc
// management plane. Every write — a peer joining, a flash-crowd batch of
// joins, a departure, a liveness refresh, a super-peer flag, a TTL expiry
// sweep — is one Op, and every layer that moves writes around speaks Op:
// the server applies them, the write-ahead log persists them, the
// checkpoint compacts them, the follower stream ships them, and the TCP
// front end decodes wire requests into them before dispatch. One type, one
// binary codec, one replay semantics, so the record/ship/recover paths can
// never drift apart. A snapshot is itself a run of ops — the shortest one
// that rebuilds the state — framed as an op stream (stream.go).
//
// Ops are deterministic: a Join or Refresh carries the apply-time
// timestamp and an Expire carries its cutoff deadline, so replaying the
// same op sequence on any copy — a follower in another process, or a
// process restarted from the WAL — reproduces byte-identical state,
// including TTL bookkeeping.
//
// The binary codec is big-endian with 16-bit counts and hard field caps,
// mirroring the wire protocol's bounded-decoder discipline: a corrupt or
// adversarial log record fails to decode instead of causing unbounded
// allocation.
package op

import (
	"encoding/binary"
	"errors"
	"fmt"

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
	// KindMoveLandmark reassigns one landmark tree from a source shard to
	// a destination shard and bumps the landmark's fencing epoch. Logged
	// and streamed like every other mutation, it is what makes a handoff
	// survive a crash: recovery replays the move, so the assignment table
	// and the per-shard trees come back owned by exactly the shard that
	// acknowledged the transfer, and any write still fenced to the old
	// epoch is rejected instead of double-applied.
	KindMoveLandmark
)

// Codec limits. They deliberately match the wire protocol's caps (see
// package proto): an op that fits the wire fits the log and vice versa.
const (
	// MaxPathLen bounds a reported router path.
	MaxPathLen = 256
	// MaxAddrLen bounds an overlay address string.
	MaxAddrLen = 256
	// MaxBatch bounds the entries of a KindBatchJoin op.
	MaxBatch = 256
	// MaxShard bounds the shard indices a KindMoveLandmark op may carry;
	// they are encoded as 16-bit values.
	MaxShard = 1<<16 - 1
	// MaxEncodedSize bounds any encoded op (a full batch of maximum-length
	// joins), sized from the per-field caps above.
	MaxEncodedSize = 16 + MaxBatch*(8+2+MaxAddrLen+2+4*MaxPathLen)
)

// Codec errors.
var (
	// ErrTruncated reports a record shorter than its declared fields.
	ErrTruncated = errors.New("op: truncated record")
	// ErrLimit reports a field exceeding its codec cap.
	ErrLimit = errors.New("op: field exceeds limit")
)

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

// MoveEntry is the payload of a KindMoveLandmark op: which landmark
// moves, between which shards, and the fencing epoch the move installs.
type MoveEntry struct {
	// Landmark is the landmark whose tree moves.
	Landmark topology.NodeID
	// Src is the shard index giving the landmark up.
	Src int
	// Dst is the shard index taking ownership.
	Dst int
	// Epoch is the landmark's new monotonic fencing epoch. Every completed
	// move increments it; a write routed under an older epoch is a message
	// from a deposed owner and is rejected.
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
	// Epoch is an in-memory routing fence on shard-routed writes: when
	// non-zero, the cluster rejects the op unless it matches the subject
	// landmark's current epoch. It is NOT part of the codec for any kind
	// but KindMoveLandmark (whose epoch lives in Move.Epoch): the fence
	// guards the routing decision at apply time, and a replayed or
	// replicated op has already been routed.
	Epoch uint64
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

// MoveLandmark builds a landmark-handoff op installing epoch as the
// landmark's new fence.
func MoveLandmark(lm topology.NodeID, src, dst int, epoch uint64) Op {
	return Op{Kind: KindMoveLandmark, Move: MoveEntry{Landmark: lm, Src: src, Dst: dst, Epoch: epoch}}
}

// Replicator is one consumer of a committed op stream: a network follower
// applying ops streamed to it from another process (netserver.Follower).
// Implementations receive every op exactly once per stream position, in
// ascending sequence order; because ops are deterministic overwrites, a
// consumer that deduplicates by sequence may safely be handed overlapping
// ranges (a reconnecting follower re-reads the tail it already applied).
type Replicator interface {
	// ReplicateOp applies one committed op stamped with its position in
	// the stream's total order.
	ReplicateOp(seq uint64, o Op) error
}

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
// where entry = peer(8) addrLen(2) addr pathLen(2) router(4)... . All
// integers are big-endian.
func Append(dst []byte, o Op) ([]byte, error) {
	dst = append(dst, byte(o.Kind))
	dst = binary.BigEndian.AppendUint64(dst, uint64(o.Time))
	switch o.Kind {
	case KindJoin:
		return appendEntry(dst, &o.Join)
	case KindBatchJoin:
		if len(o.Batch) == 0 || len(o.Batch) > MaxBatch {
			return nil, fmt.Errorf("%w: batch of %d joins", ErrLimit, len(o.Batch))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(o.Batch)))
		var err error
		for i := range o.Batch {
			if dst, err = appendEntry(dst, &o.Batch[i]); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case KindLeave, KindRefresh:
		return binary.BigEndian.AppendUint64(dst, uint64(o.Peer)), nil
	case KindSetSuperPeer:
		dst = binary.BigEndian.AppendUint64(dst, uint64(o.Peer))
		if o.Super {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case KindExpire:
		return dst, nil
	case KindMoveLandmark:
		if o.Move.Src < 0 || o.Move.Src > MaxShard || o.Move.Dst < 0 || o.Move.Dst > MaxShard {
			return nil, fmt.Errorf("%w: shard move %d -> %d", ErrLimit, o.Move.Src, o.Move.Dst)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(o.Move.Landmark))
		dst = binary.BigEndian.AppendUint16(dst, uint16(o.Move.Src))
		dst = binary.BigEndian.AppendUint16(dst, uint16(o.Move.Dst))
		return binary.BigEndian.AppendUint64(dst, o.Move.Epoch), nil
	default:
		return nil, fmt.Errorf("op: cannot encode unknown kind %d", o.Kind)
	}
}

// Encode encodes o into a fresh buffer.
func Encode(o Op) ([]byte, error) { return Append(nil, o) }

// bufFree recycles encode buffers across the commit and replication hot
// paths — the op-codec side of the proto.GetBuf/PutBuf discipline. A
// caller takes a zero-length buffer, Appends an op into it, hands the
// bytes to a consumer that copies them (the WAL's write buffer, a commit
// tap), and puts the buffer back, so encoding a committed op allocates
// nothing in steady state. A bounded channel freelist rather than a
// sync.Pool: nonblocking channel transfer of a slice header allocates
// nothing, whereas sync.Pool.Put must box the header (&b escapes).
var bufFree = make(chan []byte, 64)

// GetBuf returns a zero-length buffer from the codec pool, intended as the
// dst of Append. Return it with PutBuf once its bytes have been consumed.
func GetBuf() []byte {
	select {
	case b := <-bufFree:
		return b
	default:
		return make([]byte, 0, 512)
	}
}

// PutBuf returns a buffer obtained from GetBuf (or grown from one by
// Append) to the codec pool. Callers must not retain any reference into it
// afterwards. Buffers beyond the largest encodable op are dropped so the
// pool cannot pin pathological allocations; when the freelist is full the
// buffer falls to the GC.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > MaxEncodedSize {
		return
	}
	select {
	case bufFree <- b[:0]:
	default:
	}
}

func appendEntry(dst []byte, e *JoinEntry) ([]byte, error) {
	if len(e.Addr) > MaxAddrLen {
		return nil, fmt.Errorf("%w: address length %d", ErrLimit, len(e.Addr))
	}
	if len(e.Path) > MaxPathLen {
		return nil, fmt.Errorf("%w: path length %d", ErrLimit, len(e.Path))
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.Peer))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Addr)))
	dst = append(dst, e.Addr...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Path)))
	for _, r := range e.Path {
		dst = binary.BigEndian.AppendUint32(dst, uint32(r))
	}
	return dst, nil
}

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
	d := opDecoder{buf: b}
	if err := d.opInto(o); err != nil {
		return err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("op: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

type opDecoder struct {
	buf []byte
	off int
}

func (d *opDecoder) remaining() int { return len(d.buf) - d.off }

func (d *opDecoder) u8() (byte, error) {
	if d.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *opDecoder) u16() (uint16, error) {
	if d.remaining() < 2 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *opDecoder) u32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *opDecoder) u64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *opDecoder) entry(e *JoinEntry) error {
	peer, err := d.u64()
	if err != nil {
		return err
	}
	e.Peer = pathtree.PeerID(peer)
	alen, err := d.u16()
	if err != nil {
		return err
	}
	if int(alen) > MaxAddrLen {
		return fmt.Errorf("%w: address length %d", ErrLimit, alen)
	}
	if d.remaining() < int(alen) {
		return ErrTruncated
	}
	// Reuse the string when the bytes match what e already holds: a
	// re-decoded entry (replay, refresh of the same peer into the same
	// target struct) costs no allocation, and the == comparison against a
	// converted byte slice does not allocate.
	if addr := d.buf[d.off : d.off+int(alen)]; string(addr) != e.Addr {
		e.Addr = string(addr)
	}
	d.off += int(alen)
	plen, err := d.u16()
	if err != nil {
		return err
	}
	if int(plen) > MaxPathLen {
		return fmt.Errorf("%w: path length %d", ErrLimit, plen)
	}
	if e.Path == nil || cap(e.Path) < int(plen) {
		e.Path = make([]topology.NodeID, plen)
	} else {
		e.Path = e.Path[:plen]
	}
	for i := range e.Path {
		r, err := d.u32()
		if err != nil {
			return err
		}
		e.Path[i] = topology.NodeID(r)
	}
	return nil
}

func (d *opDecoder) opInto(o *Op) error {
	// Reset the scalars a stale target could leak between kinds; Join,
	// Batch, and Move are overwritten (or ignored) per the Kind contract
	// documented on DecodeInto, and keeping their capacity is the point.
	o.Peer = 0
	o.Super = false
	o.Epoch = 0
	kind, err := d.u8()
	if err != nil {
		return err
	}
	o.Kind = Kind(kind)
	t, err := d.u64()
	if err != nil {
		return err
	}
	o.Time = int64(t)
	switch o.Kind {
	case KindJoin:
		return d.entry(&o.Join)
	case KindBatchJoin:
		n, err := d.u16()
		if err != nil {
			return err
		}
		if n == 0 || int(n) > MaxBatch {
			return fmt.Errorf("%w: batch of %d joins", ErrLimit, n)
		}
		if o.Batch == nil || cap(o.Batch) < int(n) {
			o.Batch = make([]JoinEntry, n)
		} else {
			o.Batch = o.Batch[:n]
		}
		for i := range o.Batch {
			if err := d.entry(&o.Batch[i]); err != nil {
				return err
			}
		}
		return nil
	case KindLeave, KindRefresh:
		p, err := d.u64()
		o.Peer = pathtree.PeerID(p)
		return err
	case KindSetSuperPeer:
		p, err := d.u64()
		if err != nil {
			return err
		}
		o.Peer = pathtree.PeerID(p)
		super, err := d.u8()
		if err != nil {
			return err
		}
		if super > 1 {
			return fmt.Errorf("op: bad super flag %d", super)
		}
		o.Super = super == 1
		return nil
	case KindExpire:
		return nil
	case KindMoveLandmark:
		lm, err := d.u32()
		if err != nil {
			return err
		}
		o.Move.Landmark = topology.NodeID(lm)
		src, err := d.u16()
		if err != nil {
			return err
		}
		o.Move.Src = int(src)
		dst, err := d.u16()
		if err != nil {
			return err
		}
		o.Move.Dst = int(dst)
		o.Move.Epoch, err = d.u64()
		return err
	default:
		return fmt.Errorf("op: unknown kind %d", kind)
	}
}
