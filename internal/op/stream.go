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

// An op stream is the at-rest form of a run of ops: a snapshot, a
// checkpoint file, the payload a primary ships to a follower that fell
// behind its log. The layout is
//
//	magic(8) record... end
//	record = length(4) crc32c(4) op      (op as written by Append, length > 0)
//	end    = zero(4)   crc32c(4) count(8)
//
// with big-endian integers and each CRC covering its frame's length field
// and body (so no record can pass for an end frame, or the reverse, by a
// damaged length). The end frame carries the number of records before it, so
// a stream cut at a record boundary is as detectable as one cut inside a
// record: a stream is good only if it is read to its end frame, every CRC
// and the count agree, and nothing follows. This file is the only place
// that knows the framing; everything else sees Op values.

// streamMagic opens every op stream.
var streamMagic = [8]byte{'p', 'x', 'd', 'o', 'p', 's', 't', 'r'}

var streamCRC = crc32.MakeTable(crc32.Castagnoli)

// Stream errors. A stream that simply stops early is io.ErrUnexpectedEOF;
// a record longer than MaxEncodedSize is ErrLimit.
var (
	// ErrStreamFormat reports bytes that do not begin with the op-stream
	// magic: garbage, or a snapshot written in the gob format this one
	// replaced, which no reader exists for any more.
	ErrStreamFormat = errors.New("op: not an op stream (unknown or pre-op-stream snapshot format)")
	// ErrStreamCorrupt reports a checksum or record-count mismatch, or
	// bytes after the end frame.
	ErrStreamCorrupt = errors.New("op: corrupt op stream")
)

// StreamWriter frames ops onto a writer. Close writes the end frame; a
// stream without it does not read back. The first error — an op that does
// not encode, a failed write — is sticky: Write and Close keep returning
// it and nothing more is written, so a caller may check Close alone.
type StreamWriter struct {
	w     *bufio.Writer
	frame []byte // the frame being built: 8 header bytes, then the body
	count uint64
	err   error
}

// NewStreamWriter starts an op stream on w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	s := &StreamWriter{w: bufio.NewWriter(w), frame: make([]byte, 8, 512)}
	_, s.err = s.w.Write(streamMagic[:])
	return s
}

// emit fills in the header of the frame built in s.frame — the given
// length field, and the CRC over it and the body — and writes the frame.
func (s *StreamWriter) emit(length uint32) {
	binary.BigEndian.PutUint32(s.frame[0:4], length)
	sum := crc32.Update(crc32.Checksum(s.frame[0:4], streamCRC), streamCRC, s.frame[8:])
	binary.BigEndian.PutUint32(s.frame[4:8], sum)
	_, s.err = s.w.Write(s.frame)
}

// Write appends one op to the stream.
func (s *StreamWriter) Write(o Op) error {
	if s.err != nil {
		return s.err
	}
	frame, err := Append(s.frame[:8], o)
	if err != nil {
		s.err = err
		return err
	}
	s.frame = frame
	s.count++
	s.emit(uint32(len(frame) - 8))
	return s.err
}

// Close writes the end frame and flushes; it does not close the
// underlying writer.
func (s *StreamWriter) Close() error {
	if s.err == nil {
		s.frame = binary.BigEndian.AppendUint64(s.frame[:8], s.count)
		s.emit(0)
	}
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// ReadStream reads a whole op stream from r, calling fn for each op in
// order, and returns nil only if the stream was good to its end: fn's
// first error, a short stream, a bad checksum or count, an oversized or
// undecodable record, or trailing bytes all fail it — callers that must
// not act on a bad stream collect first and act after ReadStream returns.
// A record's length is checked against MaxEncodedSize before any buffer is
// sized from it.
//
// The Op passed to fn is reused between calls (DecodeInto): fn may read it
// freely but must copy whatever it keeps — or take the slices outright by
// saving *o and resetting *o to the zero Op.
func ReadStream(r io.Reader, fn func(o *Op) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [8]byte
	n, err := io.ReadFull(br, hdr[:])
	if !bytes.Equal(hdr[:n], streamMagic[:n]) {
		return ErrStreamFormat
	}
	var (
		o     Op
		body  []byte
		count uint64
	)
	for ; err == nil; count++ {
		if _, err = io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		length, sum := binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
		if length > MaxEncodedSize {
			return fmt.Errorf("%w: stream record %d of %d bytes", ErrLimit, count, length)
		}
		size := int(length)
		if length == 0 {
			size = 8 // the end frame's body: the record count
		}
		body = slices.Grow(body[:0], size)[:size]
		if _, err = io.ReadFull(br, body); err != nil {
			break
		}
		if crc32.Update(crc32.Checksum(hdr[0:4], streamCRC), streamCRC, body) != sum {
			return fmt.Errorf("%w: frame %d checksum", ErrStreamCorrupt, count)
		}
		if length == 0 {
			if want := binary.BigEndian.Uint64(body); want != count {
				return fmt.Errorf("%w: end frame counts %d records, stream held %d", ErrStreamCorrupt, want, count)
			}
			if _, err = br.ReadByte(); err == nil {
				return fmt.Errorf("%w: bytes after the end frame", ErrStreamCorrupt)
			} else if err == io.EOF {
				return nil
			}
			return err
		}
		if err := DecodeInto(&o, body); err != nil {
			return fmt.Errorf("op: stream record %d: %w", count, err)
		}
		if err := fn(&o); err != nil {
			return err
		}
	}
	if err == io.EOF {
		return io.ErrUnexpectedEOF // the stream stopped short of its end frame
	}
	return err
}
