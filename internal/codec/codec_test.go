package codec

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// The formats built on this package pin its bytes and its refusals
// (proto's TestWire*, op's TestOpBytesUnchanged and the fuzz targets);
// these tests pin the contract the decoders lean on: the first failure is
// the outcome, and nothing read after it is trusted.

func TestReaderFirstFailureSticks(t *testing.T) {
	r := NewReader([]byte{0x01, 0x01, 0xAA}) // a count of 257, then one byte
	if n := r.Count(0, 256, "things"); n != 0 {
		t.Fatalf("over-cap count read as %d", n)
	}
	if r.Len() != 0 || r.U8() != 0 || r.U64() != 0 || r.Str() != "" || r.Bytes(1) != nil {
		t.Fatal("reads after a failure returned data")
	}
	r.Fail(errors.New("later"))
	if !errors.Is(r.Err(), ErrLimit) || !errors.Is(r.Done(), ErrLimit) {
		t.Fatalf("err=%v done=%v, want the first failure", r.Err(), r.Done())
	}

	r = NewReader([]byte{0, 2, 'h', 'i', 7})
	if s := r.Str(); s != "hi" || r.Err() != nil {
		t.Fatalf("str=%q err=%v", s, r.Err())
	}
	if r.Done() == nil || r.Err() != nil {
		t.Fatalf("one unread byte: done=%v err=%v", r.Done(), r.Err())
	}
	if r.U8() != 7 || r.Done() != nil {
		t.Fatal("a fully read payload is not done")
	}
	if r.U16() != 0 || !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("read past the end: %v", r.Done())
	}
}

func TestWriterFirstFailureSticks(t *testing.T) {
	var w Writer
	w.U8(1)
	w.Str(strings.Repeat("x", MaxAddrLen+1))
	w.Count(5, 0, 4, "things")
	w.Fail(errors.New("later"))
	if b, err := w.Done(); b != nil || !errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), "string bytes") {
		t.Fatalf("done=%x, %v", b, err)
	}
}

func TestJoinEntryReusesTarget(t *testing.T) {
	var w Writer
	AppendJoin(&w, int64(-2), "a:1", []int32{7, 0})
	payload, err := w.Done()
	if err != nil || !bytes.Equal(payload, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0, 3, 'a', ':', '1', 0, 2, 0, 0, 0, 7, 0, 0, 0, 0}) {
		t.Fatalf("payload=%x err=%v", payload, err)
	}
	peer, addr, path := int64(0), "a:1", make([]int32, 0, 8)
	allocs := testing.AllocsPerRun(10, func() {
		r := NewReader(payload)
		ReadJoin(&r, &peer, &addr, &path)
		if r.Done() != nil {
			t.Fatal(r.Done())
		}
	})
	if allocs != 0 || peer != -2 || addr != "a:1" || len(path) != 2 || path[0] != 7 || cap(path) != 8 {
		t.Fatalf("allocs=%v peer=%d addr=%q path=%v cap=%d", allocs, peer, addr, path, cap(path))
	}
	// A path cut short fails the read.
	r := NewReader(payload[:len(payload)-1])
	ReadJoin(&r, &peer, &addr, &path)
	if !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("cut path: %v", r.Done())
	}
	var over Writer
	AppendJoin(&over, int64(1), "", make([]int32, MaxPathLen+1))
	if b, err := over.Done(); b != nil || !errors.Is(err, ErrLimit) {
		t.Fatalf("over-long path: %x, %v", b, err)
	}
}
