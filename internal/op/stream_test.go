package op

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

// sampleStream frames sampleOps plus a move and returns the bytes.
func sampleStream(t *testing.T) ([]Op, []byte) {
	t.Helper()
	ops := append(sampleOps(), Op{Kind: KindMoveLandmark, Move: MoveEntry{Landmark: 3, Src: 1, Dst: 1, Epoch: 7}})
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, o := range ops {
		if err := sw.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return ops, buf.Bytes()
}

// readAll reads a stream to its end and returns re-encodings of its ops
// (the callback's Op is reused, so it must not be kept).
func readAll(b []byte) ([][]byte, error) {
	var recs [][]byte
	err := ReadStream(bytes.NewReader(b), func(o *Op) error {
		rec, err := Encode(*o)
		recs = append(recs, rec)
		return err
	})
	return recs, err
}

func TestStreamRoundTrip(t *testing.T) {
	ops, stream := sampleStream(t)
	recs, err := readAll(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ops) {
		t.Fatalf("read %d ops, wrote %d", len(recs), len(ops))
	}
	for i, o := range ops {
		want, _ := Encode(o)
		if !bytes.Equal(recs[i], want) {
			t.Errorf("op %d changed across the stream: %x, want %x", i, recs[i], want)
		}
	}
	// The callback's error ends the read and is returned as is.
	stop := errors.New("stop")
	if err := ReadStream(bytes.NewReader(stream), func(*Op) error { return stop }); err != stop {
		t.Fatalf("callback error came back as %v", err)
	}
	// An op that does not encode fails the writer for good.
	sw := NewStreamWriter(io.Discard)
	if err := sw.Write(Op{Kind: 99}); err == nil || sw.Write(Leave(1)) == nil || sw.Close() == nil {
		t.Fatal("writer carried on past an op it could not encode")
	}
}

// TestStreamRejects is the contract that replaced gob's accidental
// strictness: nothing short of the exact bytes written reads as a stream.
func TestStreamRejects(t *testing.T) {
	_, stream := sampleStream(t)
	isNamed := func(err error) bool {
		return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrStreamFormat) ||
			errors.Is(err, ErrStreamCorrupt) || errors.Is(err, ErrLimit)
	}
	for n := 0; n < len(stream); n++ {
		if _, err := readAll(stream[:n]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d/%d bytes: %v, want io.ErrUnexpectedEOF", n, len(stream), err)
		}
	}
	for bit := 0; bit < 8*len(stream); bit++ {
		flipped := bytes.Clone(stream)
		flipped[bit/8] ^= 1 << (bit % 8)
		// Whatever the flip hits — magic, a length, a CRC, a payload, the
		// end frame — the failure carries one of the stream's names, never
		// a bare codec error: the CRC is checked before the op is decoded.
		if _, err := readAll(flipped); !isNamed(err) {
			t.Fatalf("bit %d flipped: %v, want a named stream error", bit, err)
		}
	}
	if _, err := readAll(append(bytes.Clone(stream), 0)); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrStreamCorrupt", err)
	}
	if _, err := readAll([]byte("\x00pxdctb1 and then a gob header")); !errors.Is(err, ErrStreamFormat) {
		t.Fatalf("old checkpoint magic: %v, want ErrStreamFormat", err)
	}

	// An end frame whose count is off by one, with a CRC that matches it:
	// a stream cut (or spliced) at a record boundary.
	end := len(stream) - 16
	for _, delta := range []uint64{1, ^uint64(0)} {
		forged := bytes.Clone(stream)
		binary.BigEndian.PutUint64(forged[end+8:], binary.BigEndian.Uint64(forged[end+8:])+delta)
		binary.BigEndian.PutUint32(forged[end+4:], crc32.Update(crc32.Checksum(forged[end:end+4], streamCRC), streamCRC, forged[end+8:]))
		if _, err := readAll(forged); !errors.Is(err, ErrStreamCorrupt) {
			t.Fatalf("end frame count off by %d: %v, want ErrStreamCorrupt", int64(delta), err)
		}
	}

	// A record length over the codec's bound is refused before a buffer is
	// sized from it: 4 GiB is never allocated.
	for _, size := range []uint32{MaxEncodedSize + 1, 1<<32 - 1} {
		huge := binary.BigEndian.AppendUint32(bytes.Clone(streamMagic[:]), size)
		huge = append(huge, 0, 0, 0, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readAll(huge)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("record length %d: %v, want ErrLimit", size, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("record length %d: reader allocated %d bytes before refusing", size, grew)
		}
	}
}

// TestStreamReadReusesOp pins the reader's allocation contract: one Op and
// one record buffer serve the whole stream.
func TestStreamReadReusesOp(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for i := 0; i < 200; i++ {
		sw.Write(BatchJoin(sampleOps()[2].Batch, int64(i)))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var first *Op
	allocs := testing.AllocsPerRun(10, func() {
		first = nil
		if err := ReadStream(bytes.NewReader(buf.Bytes()), func(o *Op) error {
			if first == nil {
				first = o
			}
			if o != first || len(o.Batch) != 2 || o.Batch[1].Path[1] != 9 {
				t.Fatalf("record %d: op %p (first %p) decoded as %+v", o.Time, o, first, o.Batch)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("reading 200 records allocated %v times, want a handful", allocs)
	}
}
