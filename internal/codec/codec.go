// Package codec is the one set of byte-level primitives under proxdisc's
// two binary formats — the wire payloads of package proto and the op
// records of package op (WAL, checkpoint and follower stream) — and the
// one layout the two share, the join entry.
//
// Integers are big-endian; strings and lists carry 16-bit counts. A Reader
// checks every read against the bytes left and every count against its cap
// before anything is sized from it, and remembers the first failure: a
// decoder is a straight list of field reads with one Done at the end. A
// Writer is its append-side twin.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Caps shared by both formats: an entry that fits the wire fits the log.
const (
	// MaxAddrLen bounds every string (addresses, error messages).
	MaxAddrLen = 256
	// MaxPathLen bounds a reported router path.
	MaxPathLen = 256
)

// Codec errors; package proto and package op export them under their own
// names.
var (
	// ErrTruncated reports a payload shorter than its declared fields.
	ErrTruncated = errors.New("codec: truncated payload")
	// ErrLimit reports a count or length beyond its cap.
	ErrLimit = errors.New("codec: field exceeds limit")
)

func limit(n int, what string) error { return fmt.Errorf("%w: %d %s", ErrLimit, n, what) }

// Reader decodes a payload front to back. After the first failure every
// read returns zero and Len reports 0; Err and Done return that failure.
// It keeps an offset rather than re-slicing buf, so a read stores no
// pointer and pays no write barrier.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. It does not retain b past the last
// read: strings and paths are copied out, and only Bytes and StrBytes
// return views.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Fail records err as the decode's outcome unless a read already failed.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.buf)
}

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Err is the first failure, for decoders that tolerate trailing bytes.
func (r *Reader) Err() error { return r.err }

// Done is the first failure, or an error if bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() != 0 {
		return fmt.Errorf("codec: %d trailing bytes", r.Len())
	}
	return r.err
}

// Bytes returns the next n bytes, aliasing the payload, or nil if fewer
// are left.
func (r *Reader) Bytes(n int) []byte {
	if uint(n) > uint(r.Len()) {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a flag byte, which must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail(fmt.Errorf("codec: bad flag byte %d", v))
	}
	return v == 1
}

// U16 reads a 16-bit integer.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a 32-bit integer.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a 64-bit integer.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// I32 reads a signed 32-bit integer.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Count reads a 16-bit count and checks it against [min, max]; outside it
// the decode fails with ErrLimit and the count reads as 0.
func (r *Reader) Count(min, max int, what string) int {
	n := int(r.U16())
	if r.err != nil {
		return 0
	}
	if n < min || n > max {
		r.Fail(limit(n, what))
		return 0
	}
	return n
}

// str reads a counted string of at most MaxAddrLen bytes, in place. It is
// the read every address takes, so it checks its cap itself: through Count
// it is one more call that does not inline.
func (r *Reader) str() []byte {
	n := int(r.U16())
	if n > MaxAddrLen {
		r.Fail(limit(n, "string bytes"))
		return nil
	}
	return r.Bytes(n)
}

// Str reads a counted string of at most MaxAddrLen bytes.
func (r *Reader) Str() string { return string(r.str()) }

// StrBytes reads a counted string like Str, as a view into the payload: the
// caller copies out what it keeps.
func (r *Reader) StrBytes() []byte { return r.str() }

// StrInto reads a counted string into *s, keeping the existing value when
// the bytes are unchanged so a reused decode target allocates nothing in
// steady state (the string(b) != *s comparison does not allocate).
func (r *Reader) StrInto(s *string) {
	if b := r.str(); string(b) != *s {
		*s = string(b)
	}
}

// ReadJoin reads one join entry — see AppendJoin — reusing *path's
// capacity and *addr's value like StrInto.
func ReadJoin[P ~int64, R ~int32](r *Reader, peer *P, addr *string, path *[]R) {
	*peer = P(r.I64())
	r.StrInto(addr)
	n := r.Count(0, MaxPathLen, "path hops")
	p := *path
	if p == nil || cap(p) < n {
		p = make([]R, n)
	} else {
		p = p[:n]
	}
	*path = p
	hops := r.Bytes(4 * n) // nothing, if they are not all there
	for i := 0; len(hops) >= 4; i, hops = i+1, hops[4:] {
		p[i] = R(binary.BigEndian.Uint32(hops))
	}
}

// Writer appends a payload to Buf. After the first failure Done returns
// that failure and no bytes. Each method appends to Buf in one statement,
// the form the compiler grows in place: short of a reallocation only the
// length is stored, and no pointer.
type Writer struct {
	Buf []byte
	err error
}

// Fail records err as the encode's outcome unless one is already recorded.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Done returns the payload, or the first failure.
func (w *Writer) Done() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.Buf, nil
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// Bool appends a flag byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a 16-bit integer.
func (w *Writer) U16(v uint16) { w.Buf = append(w.Buf, byte(v>>8), byte(v)) }

// U32 appends a 32-bit integer.
func (w *Writer) U32(v uint32) {
	w.Buf = append(w.Buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// U64 appends a 64-bit integer.
func (w *Writer) U64(v uint64) {
	w.Buf = append(w.Buf, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// I32 appends a signed 32-bit integer.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends a signed 64-bit integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bytes appends b as it is.
func (w *Writer) Bytes(b []byte) { w.Buf = append(w.Buf, b...) }

// Count appends n as a 16-bit count; outside [min, max] the encode fails
// with ErrLimit.
func (w *Writer) Count(n, min, max int, what string) {
	if n < min || n > max {
		w.Fail(limit(n, what))
	}
	w.U16(uint16(n))
}

// Str appends a counted string of at most MaxAddrLen bytes.
func (w *Writer) Str(s string) {
	if len(s) > MaxAddrLen {
		w.Fail(limit(len(s), "string bytes"))
		return
	}
	w.U16(uint16(len(s)))
	w.Buf = append(w.Buf, s...)
}

// StrBytes appends a counted string like Str, from a view of its bytes.
func (w *Writer) StrBytes(b []byte) {
	if len(b) > MaxAddrLen {
		w.Fail(limit(len(b), "string bytes"))
		return
	}
	w.U16(uint16(len(b)))
	w.Buf = append(w.Buf, b...)
}

// AppendJoin appends one join entry, the registration of one peer:
//
//	peer(8) addrLen(2) addr pathLen(2) router(4)...
//
// It is the payload of a wire join (a batch join carries a counted run of
// them) and the body of a Join op (a BatchJoin op likewise). The commit
// path encodes every join through here, so it appends to a local slice and
// stores Buf once: field by field through w it measured twice as slow.
func AppendJoin[P ~int64, R ~int32](w *Writer, peer P, addr string, path []R) {
	if len(addr) > MaxAddrLen || len(path) > MaxPathLen {
		w.Fail(fmt.Errorf("%w: join entry of %d address bytes, %d path hops", ErrLimit, len(addr), len(path)))
		return
	}
	b := binary.BigEndian.AppendUint64(w.Buf, uint64(peer))
	b = binary.BigEndian.AppendUint16(b, uint16(len(addr)))
	b = append(b, addr...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(path)))
	for _, hop := range path {
		b = binary.BigEndian.AppendUint32(b, uint32(hop))
	}
	w.Buf = b
}
