package op

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// sampleStream frames the encodings of sampleOps and returns the bodies and
// the bytes. It is small enough for TestStreamRejects to cut and flip
// everywhere; capStream holds the one frame of the cap's length.
func sampleStream(t *testing.T) ([][]byte, []byte) {
	t.Helper()
	var bodies [][]byte
	for _, o := range sampleOps() {
		rec, err := Encode(o)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, rec)
	}
	return bodies, frameAll(t, bodies)
}

// capStream frames one body of MaxEncodedSize bytes between two short ones.
func capStream(t *testing.T) ([][]byte, []byte) {
	t.Helper()
	bodies := [][]byte{{1}, bytes.Repeat([]byte{7}, MaxEncodedSize), {2, 3}}
	return bodies, frameAll(t, bodies)
}

// frameAll writes bodies as one stream closed with the totals 11 and 22.
func frameAll(t *testing.T, bodies [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, b := range bodies {
		if err := sw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(11, 22); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll reads a stream to its end and returns its bodies and totals.
func readAll(b []byte) (bodies [][]byte, nodes, peers uint64, err error) {
	sr, err := NewStreamReader(bytes.NewReader(b))
	if err != nil {
		return nil, 0, 0, err
	}
	for {
		body, err := sr.Next(nil)
		if err == io.EOF {
			return bodies, sr.Nodes, sr.Peers, nil
		}
		if err != nil {
			return nil, 0, 0, err
		}
		bodies = append(bodies, body)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	for _, mk := range []func(*testing.T) ([][]byte, []byte){sampleStream, capStream} {
		bodies, stream := mk(t)
		got, nodes, peers, err := readAll(stream)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(bodies) || nodes != 11 || peers != 22 {
			t.Fatalf("read %d frames and totals %d, %d; wrote %d and 11, 22", len(got), nodes, peers, len(bodies))
		}
		for i := range bodies {
			if !bytes.Equal(got[i], bodies[i]) {
				t.Errorf("frame %d changed across the stream", i)
			}
		}
	}
	// A body out of bounds fails the writer for good.
	for _, size := range []int{0, MaxEncodedSize + 1} {
		sw := NewStreamWriter(io.Discard)
		if err := sw.Write(make([]byte, size)); !errors.Is(err, ErrLimit) || sw.Write([]byte{1}) == nil || sw.Close(0, 0) == nil {
			t.Fatalf("writer carried on past a frame of %d bytes: %v", size, err)
		}
	}
}

// TestStreamRejects: nothing short of the exact bytes written reads as a
// stream, and the formats it replaced are refused by name.
func TestStreamRejects(t *testing.T) {
	_, stream := sampleStream(t)
	isNamed := func(err error) bool {
		return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrStreamFormat) ||
			errors.Is(err, ErrStreamCorrupt) || errors.Is(err, ErrLimit)
	}
	for n := 0; n < len(stream); n++ {
		if _, _, _, err := readAll(stream[:n]); !isNamed(err) {
			t.Fatalf("prefix of %d/%d bytes: %v, want a named stream error", n, len(stream), err)
		}
	}
	for bit := 0; bit < 8*len(stream); bit++ {
		flipped := bytes.Clone(stream)
		flipped[bit/8] ^= 1 << (bit % 8)
		// Whatever the flip hits — magic, a length, a CRC, a body, the end
		// frame — the failure carries one of the stream's names.
		if _, _, _, err := readAll(flipped); !isNamed(err) {
			t.Fatalf("bit %d flipped: %v, want a named stream error", bit, err)
		}
	}
	// The cap-length frame: cut and flipped in its header, at both ends of
	// its body, and in the frames and end frame around it.
	_, big := capStream(t)
	bigHdr := len(streamMagic) + 9 // the short first frame
	bigEnd := bigHdr + 8 + MaxEncodedSize
	var cuts []int
	for _, at := range []int{bigHdr, bigEnd, len(big) - endLen} {
		for n := max(at-12, 0); n < at+12; n++ {
			cuts = append(cuts, n)
		}
	}
	for _, n := range cuts {
		if _, _, _, err := readAll(big[:n]); !isNamed(err) {
			t.Fatalf("cap stream cut at %d/%d bytes: %v, want a named stream error", n, len(big), err)
		}
		for bit := range 8 {
			flipped := bytes.Clone(big)
			flipped[n] ^= 1 << bit
			if _, _, _, err := readAll(flipped); !isNamed(err) {
				t.Fatalf("cap stream byte %d bit %d flipped: %v, want a named stream error", n, bit, err)
			}
		}
	}

	if _, _, _, err := readAll(append(bytes.Clone(stream), 0)); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrStreamCorrupt", err)
	}
	if _, _, _, err := readAll([]byte("\x00pxdctb1 and then a gob header")); !errors.Is(err, ErrStreamFormat) {
		t.Fatalf("old checkpoint magic: %v, want ErrStreamFormat", err)
	}
	if _, _, _, err := readAll(append(bytes.Clone(opStreamMagic[:]), stream[8:]...)); !errors.Is(err, ErrOpStreamFormat) {
		t.Fatalf("op-stream magic: %v, want ErrOpStreamFormat", err)
	}

	// An end frame whose count is off by one, with a CRC that matches it:
	// a stream cut (or spliced) at a frame boundary.
	end := len(stream) - endLen
	for _, delta := range []uint64{1, ^uint64(0)} {
		forged := bytes.Clone(stream)
		binary.BigEndian.PutUint64(forged[end+8:], binary.BigEndian.Uint64(forged[end+8:])+delta)
		h := [8]byte(forged[end:])
		binary.BigEndian.PutUint32(forged[end+4:], sum(&h, forged[end+8:]))
		if _, _, _, err := readAll(forged); !errors.Is(err, ErrStreamCorrupt) {
			t.Fatalf("end frame count off by %d: %v, want ErrStreamCorrupt", int64(delta), err)
		}
	}

	// A frame length over the codec's bound is refused before a buffer is
	// sized from it: 4 GiB is never allocated.
	for _, size := range []uint32{MaxEncodedSize + 1, 1<<32 - 1} {
		var huge bytes.Buffer
		sw := NewStreamWriter(&huge)
		sw.Write([]byte{1})
		sw.Close(0, 0)
		b := huge.Bytes()
		b = append(append(b[:8:8], binary.BigEndian.AppendUint32(nil, size)...), b[12:]...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := readAll(b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("frame length %d: %v, want ErrLimit", size, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("frame length %d: reader allocated %d bytes before refusing", size, grew)
		}
	}
}

// TestStreamReadReusesBuffer pins the reader's allocation contract: a
// caller that hands each body back reads the whole stream into one buffer.
func TestStreamReadReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	want := make([]string, 200)
	for i := range want {
		want[i] = fmt.Sprintf("frame %d", i)
		sw.Write([]byte(want[i]))
	}
	if err := sw.Close(0, 200); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var body []byte
		for i := 0; ; i++ {
			if body, err = sr.Next(body); err == io.EOF {
				break
			} else if err != nil || string(body) != want[i] {
				t.Fatalf("frame %d read as %q (%v)", i, body, err)
			}
		}
	})
	if allocs > 20 {
		t.Fatalf("reading 200 frames allocated %v times, want a handful", allocs)
	}
}
