package op

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// A checkpoint stream is the at-rest form of a state: a checkpoint file,
// and the image a primary ships to a follower that fell behind its log. The
// layout is
//
//	magic(8) frame... end
//	frame = length(4) crc32c(4) body     (0 < length ≤ MaxEncodedSize)
//	end   = zero(4)   crc32c(4) count(8) nodes(8) peers(8)
//
// with big-endian integers and each CRC covering its frame's length field
// and body (so no frame can pass for the end frame, or the reverse, by a
// damaged length). The end frame carries the number of frames before it, so
// a stream cut at a frame boundary is as detectable as one cut inside a
// frame, and two totals the bodies declare — a checkpoint's trie nodes and
// peers — which a loader sizes itself by before it reads the first body: a
// writer that walks one tree at a time knows them only after its last walk,
// so they close the stream, and the reader, which holds a seekable source,
// reads the end frame first. A stream is good only if it is read to its end
// frame, every CRC and the count agree, and nothing follows. This file is
// the only place that knows the framing; what a body holds is package
// server's (the header) and package pathtree's (a section).

// streamMagic opens every checkpoint stream; opStreamMagic opened the op
// streams it replaced, which held every peer as a logged join.
var (
	streamMagic   = [8]byte{'p', 'x', 'd', 't', 'r', 'e', 'e', 's'}
	opStreamMagic = [8]byte{'p', 'x', 'd', 'o', 'p', 's', 't', 'r'}
)

// endLen is the size of the end frame.
const endLen = 8 + 24

var streamCRC = crc32.MakeTable(crc32.Castagnoli)

// Stream errors. A stream that simply stops early is io.ErrUnexpectedEOF
// when its opening is short, ErrStreamCorrupt when its end frame is missing;
// a frame longer than MaxEncodedSize is ErrLimit.
var (
	// ErrStreamFormat reports bytes that do not begin with the checkpoint
	// magic: garbage, or a snapshot written in the gob format that preceded
	// op streams, which no reader exists for any more.
	ErrStreamFormat = errors.New("op: not a checkpoint stream (unknown or pre-op-stream snapshot format)")
	// ErrOpStreamFormat reports a checkpoint in the op-stream format, which
	// held every peer as a join: its trees were rebuilt one path descent
	// at a time. No reader for it is kept.
	ErrOpStreamFormat = errors.New("op: an op-stream checkpoint (the format per-landmark tree sections replaced; no reader is kept)")
	// ErrStreamCorrupt reports a checksum or frame-count mismatch, a
	// missing end frame, or bytes after it.
	ErrStreamCorrupt = errors.New("op: corrupt checkpoint stream")
)

// StreamWriter frames bodies onto a writer, one Write each, with no buffer
// of its own. Close writes the end frame; a stream without it does not read
// back. The first error — a body out of bounds, a failed write — is sticky:
// Write and Close keep returning it and nothing more is written, so a caller
// may check Close alone.
type StreamWriter struct {
	w     io.Writer
	hdr   [8]byte
	end   [24]byte
	count uint64
	err   error
}

// NewStreamWriter starts a checkpoint stream on w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	s := &StreamWriter{w: w}
	_, s.err = w.Write(streamMagic[:])
	return s
}

// sum is the CRC a frame's header carries, over its length field, in
// h[0:4], and its body. The header lives in its reader's or writer's
// struct: a CRC's input escapes, so a header on the stack would be
// allocated each time.
func sum(h *[8]byte, body []byte) uint32 {
	return crc32.Update(crc32.Checksum(h[0:4], streamCRC), streamCRC, body)
}

// Write appends one frame holding body, 1 to MaxEncodedSize bytes.
func (s *StreamWriter) Write(body []byte) error {
	if s.err != nil {
		return s.err
	}
	if len(body) == 0 || len(body) > MaxEncodedSize {
		s.err = fmt.Errorf("%w: stream frame of %d bytes", ErrLimit, len(body))
		return s.err
	}
	binary.BigEndian.PutUint32(s.hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(s.hdr[4:8], sum(&s.hdr, body))
	if _, s.err = s.w.Write(s.hdr[:]); s.err == nil {
		_, s.err = s.w.Write(body)
	}
	s.count++
	return s.err
}

// Close writes the end frame, with the totals of nodes and peers the frames
// hold; it does not close the underlying writer.
func (s *StreamWriter) Close(nodes, peers uint64) error {
	if s.err == nil {
		binary.BigEndian.PutUint64(s.end[0:], s.count)
		binary.BigEndian.PutUint64(s.end[8:], nodes)
		binary.BigEndian.PutUint64(s.end[16:], peers)
		binary.BigEndian.PutUint32(s.hdr[0:4], 0)
		binary.BigEndian.PutUint32(s.hdr[4:8], sum(&s.hdr, s.end[:]))
		if _, s.err = s.w.Write(s.hdr[:]); s.err == nil {
			_, s.err = s.w.Write(s.end[:])
		}
	}
	return s.err
}

// StreamReader reads a checkpoint stream one frame at a time (Next). It
// reads the end frame when it opens, so the totals are known before the
// first body, and checks it again, in place, when the frames reach it.
type StreamReader struct {
	br     *bufio.Reader
	hdr    [8]byte
	pos    int64 // the offset of the next frame
	size   int64
	count  uint64 // frames read so far
	frames uint64 // the end frame's count
	// Nodes and Peers are the end frame's totals.
	Nodes, Peers uint64
}

// NewStreamReader opens the stream in r: it checks the magic — naming the
// op-stream format it replaced, or any other, when it is not there — and
// reads the end frame, and leaves r at the first frame.
func NewStreamReader(r io.ReadSeeker) (*StreamReader, error) {
	var magic [8]byte
	n, err := io.ReadFull(r, magic[:])
	switch {
	case n == len(magic) && magic == opStreamMagic:
		return nil, ErrOpStreamFormat
	case !bytes.Equal(magic[:n], streamMagic[:n]):
		return nil, ErrStreamFormat
	case err != nil:
		return nil, io.ErrUnexpectedEOF
	}
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	s := &StreamReader{pos: int64(len(magic)), size: size}
	if size < s.pos+endLen {
		return nil, fmt.Errorf("%w: %d bytes hold no end frame", ErrStreamCorrupt, size)
	}
	end := make([]byte, endLen)
	if _, err := r.Seek(size-endLen, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, end); err != nil {
		return nil, err
	}
	copy(s.hdr[:], end)
	if binary.BigEndian.Uint32(end[0:4]) != 0 || binary.BigEndian.Uint32(end[4:8]) != sum(&s.hdr, end[8:]) {
		return nil, fmt.Errorf("%w: no end frame (the stream is cut short or damaged)", ErrStreamCorrupt)
	}
	s.frames = binary.BigEndian.Uint64(end[8:])
	s.Nodes, s.Peers = binary.BigEndian.Uint64(end[16:]), binary.BigEndian.Uint64(end[24:])
	if _, err := r.Seek(s.pos, io.SeekStart); err != nil {
		return nil, err
	}
	s.br = bufio.NewReaderSize(r, 64<<10)
	return s, nil
}

// Size is the stream's length in bytes: what bounds how much its totals
// may claim.
func (s *StreamReader) Size() int64 { return s.size }

// Next reads the next frame's body into buf, grown as needed, and returns
// it; pass the previous body to reuse its memory, or nil for a body of the
// caller's own. At the end frame it returns io.EOF, once the frames counted
// agree with it and the end frame is the stream's last bytes. A frame's
// length is checked against MaxEncodedSize before any buffer is sized from
// it.
func (s *StreamReader) Next(buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(s.br, s.hdr[:]); err != nil {
		return nil, s.short(err)
	}
	length := binary.BigEndian.Uint32(s.hdr[0:4])
	if length == 0 {
		if s.pos != s.size-endLen || s.count != s.frames {
			return nil, fmt.Errorf("%w: end frame counts %d frames at byte %d, the stream held %d and ends at byte %d",
				ErrStreamCorrupt, s.frames, s.size-endLen, s.count, s.pos)
		}
		return nil, io.EOF
	}
	if length > MaxEncodedSize {
		return nil, fmt.Errorf("%w: stream frame %d of %d bytes", ErrLimit, s.count, length)
	}
	body := slices.Grow(buf[:0], int(length))[:length]
	if _, err := io.ReadFull(s.br, body); err != nil {
		return nil, s.short(err)
	}
	if binary.BigEndian.Uint32(s.hdr[4:8]) != sum(&s.hdr, body) {
		return nil, fmt.Errorf("%w: frame %d checksum", ErrStreamCorrupt, s.count)
	}
	s.count++
	s.pos += 8 + int64(length)
	return body, nil
}

// short names a read that ran out of bytes before the end frame: the end
// frame found at open says where the stream ends, so a frame running past
// it is corrupt.
func (s *StreamReader) short(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: frame %d runs past the end frame", ErrStreamCorrupt, s.count)
	}
	return err
}
