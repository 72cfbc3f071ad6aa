package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"proxdisc/internal/codec"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4}
	if err := WriteFrame(&buf, MsgJoinRequest, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgJoinRequest || !bytes.Equal(got, payload) {
		t.Fatalf("typ=%v payload=%v", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgAck, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgAck || len(got) != 0 {
		t.Fatalf("typ=%v payload=%v", typ, got)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgAck, make([]byte, MaxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err=%v", err)
	}
	// Oversized length header on the read side.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgAck)}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err=%v", err)
	}
	// Zero-length frame is invalid (must at least carry the type byte).
	zero := []byte{0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(zero)); err == nil {
		t.Fatal("accepted zero-size frame")
	}
}

func TestFrameTruncatedRead(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgAck, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("accepted truncated frame")
	}
}

// decodeJoinRequest decodes into a fresh request.
func decodeJoinRequest(b []byte) (*JoinRequest, error) {
	m := &JoinRequest{}
	return m, DecodeJoinRequestInto(m, b)
}

func TestJoinRequestRoundTrip(t *testing.T) {
	m := &JoinRequest{Peer: 42, Addr: "127.0.0.1:9000", Path: []int32{5, 9, 13, 0}}
	b, err := AppendJoinRequest(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJoinRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Peer != m.Peer || got.Addr != m.Addr || len(got.Path) != len(m.Path) {
		t.Fatalf("got=%+v", got)
	}
	for i := range m.Path {
		if got.Path[i] != m.Path[i] {
			t.Fatalf("path[%d]=%d", i, got.Path[i])
		}
	}
}

func TestJoinRequestLimits(t *testing.T) {
	if _, err := AppendJoinRequest(nil, &JoinRequest{Path: make([]int32, codec.MaxPathLen+1)}); !errors.Is(err, ErrLimit) {
		t.Fatalf("err=%v", err)
	}
	if _, err := AppendJoinRequest(nil, &JoinRequest{Addr: strings.Repeat("x", MaxAddrLen+1)}); !errors.Is(err, ErrLimit) {
		t.Fatalf("err=%v", err)
	}
	// Decoder-side limit: forge a count beyond the cap.
	forged := []byte{
		0, 0, 0, 0, 0, 0, 0, 1, // peer
		0, 0, // addr len 0
		0xFF, 0xFF, // path count 65535
	}
	if _, err := decodeJoinRequest(forged); !errors.Is(err, ErrLimit) {
		t.Fatalf("err=%v", err)
	}
}

func TestJoinRequestTrailingBytes(t *testing.T) {
	m := &JoinRequest{Peer: 1, Addr: "a", Path: []int32{0}}
	b, _ := AppendJoinRequest(nil, m)
	b = append(b, 0xAB)
	if _, err := decodeJoinRequest(b); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestResponsesRoundTrip(t *testing.T) {
	cands := []Candidate{
		{Peer: 1, DTree: 3, Addr: "10.0.0.1:1"},
		{Peer: 2, DTree: 0, Addr: ""},
	}
	jb, err := EncodeJoinResponse(&JoinResponse{Neighbors: cands})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := DecodeJoinResponse(jb)
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Neighbors) != 2 || jr.Neighbors[0] != cands[0] || jr.Neighbors[1] != cands[1] {
		t.Fatalf("join resp=%+v", jr)
	}
	lb, err := EncodeLookupResponse(&LookupResponse{Neighbors: cands})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := DecodeLookupResponse(lb)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Neighbors) != 2 {
		t.Fatalf("lookup resp=%+v", lr)
	}
}

func TestResponseLimit(t *testing.T) {
	if _, err := EncodeJoinResponse(&JoinResponse{Neighbors: make([]Candidate, MaxNeighbors+1)}); !errors.Is(err, ErrLimit) {
		t.Fatalf("err=%v", err)
	}
}

func TestPeerIDMessages(t *testing.T) {
	lr, err := DecodeLookupRequest(EncodeLookupRequest(&LookupRequest{Peer: -7}))
	if err != nil || lr.Peer != -7 {
		t.Fatalf("lookup=%+v err=%v", lr, err)
	}
	lv, err := DecodeLeaveOp(EncodeLeaveRequest(&LeaveRequest{Peer: 9}))
	if err != nil || lv.Peer != 9 {
		t.Fatalf("leave=%+v err=%v", lv, err)
	}
	rf, err := DecodeRefreshOp(EncodeRefreshRequest(&RefreshRequest{Peer: 11}))
	if err != nil || rf.Peer != 11 {
		t.Fatalf("refresh=%+v err=%v", rf, err)
	}
	if _, err := DecodeLookupRequest([]byte{1, 2}); err == nil {
		t.Fatal("accepted short peer id")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := &Error{Code: CodeUnknownPeer, Message: "peer 5 not found"}
	got, err := DecodeError(EncodeError(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != e.Code || got.Message != e.Message {
		t.Fatalf("got=%+v", got)
	}
	if !strings.Contains(got.Error(), "peer 5") {
		t.Fatalf("error string=%q", got.Error())
	}
	// Oversized messages are truncated, not rejected.
	big := &Error{Code: 1, Message: strings.Repeat("m", 1000)}
	got2, err := DecodeError(EncodeError(big))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Message) != MaxAddrLen {
		t.Fatalf("message length %d", len(got2.Message))
	}
}

func TestLandmarksRoundTrip(t *testing.T) {
	m := &LandmarksResponse{
		Routers: []int32{10, 20, 30},
		Addrs:   []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"},
	}
	b, err := EncodeLandmarksResponse(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLandmarksResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Routers) != 3 || got.Routers[1] != 20 || got.Addrs[2] != "127.0.0.1:7003" {
		t.Fatalf("got=%+v", got)
	}
	if _, err := EncodeLandmarksResponse(&LandmarksResponse{Routers: []int32{1}, Addrs: nil}); err == nil {
		t.Fatal("accepted mismatched slices")
	}
}

func TestProbeRoundTrip(t *testing.T) {
	b := EncodeProbe(0xDEADBEEF12345678)
	nonce, err := DecodeProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if nonce != 0xDEADBEEF12345678 {
		t.Fatalf("nonce=%x", nonce)
	}
	if _, err := DecodeProbe(b[:8]); err == nil {
		t.Fatal("accepted short probe")
	}
	b[0] ^= 0xFF
	if _, err := DecodeProbe(b); err == nil {
		t.Fatal("accepted bad magic")
	}
}

// Property: JoinRequest round-trips for arbitrary valid field values.
func TestJoinRequestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &JoinRequest{
			Peer: rng.Int63() - rng.Int63(),
			Addr: strings.Repeat("a", rng.Intn(64)),
			Path: make([]int32, rng.Intn(codec.MaxPathLen)),
		}
		for i := range m.Path {
			m.Path[i] = rng.Int31()
		}
		b, err := AppendJoinRequest(nil, m)
		if err != nil {
			return false
		}
		got, err := decodeJoinRequest(b)
		if err != nil {
			return false
		}
		if got.Peer != m.Peer || got.Addr != m.Addr || len(got.Path) != len(m.Path) {
			return false
		}
		for i := range m.Path {
			if got.Path[i] != m.Path[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on random garbage.
func TestDecodersRobustToGarbage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, rng.Intn(256))
		rng.Read(b)
		// All decoders must return (possibly error) without panicking.
		_, _ = decodeJoinRequest(b)
		_, _ = DecodeJoinResponse(b)
		_, _ = DecodeLookupRequest(b)
		_, _ = DecodeLookupResponse(b)
		_, _ = DecodeLeaveOp(b)
		_, _ = DecodeRefreshOp(b)
		_, _ = DecodeLandmarksResponse(b)
		_, _ = DecodeError(b)
		_, _ = DecodeProbe(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- shard-aware messages (cluster wire protocol) ---

func TestRedirectRoundTrip(t *testing.T) {
	m := &Redirect{Addr: "10.0.0.7:7470"}
	b, err := EncodeRedirect(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRedirect(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != m.Addr {
		t.Fatalf("got=%+v", got)
	}
}

func TestRedirectLimits(t *testing.T) {
	if _, err := EncodeRedirect(&Redirect{Addr: strings.Repeat("x", MaxAddrLen+1)}); !errors.Is(err, ErrLimit) {
		t.Fatalf("err=%v", err)
	}
	b, err := EncodeRedirect(&Redirect{Addr: "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	// Truncated payloads at every length must error, never panic.
	for n := 0; n < len(b); n++ {
		if _, err := DecodeRedirect(b[:n]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", n)
		}
	}
	// Trailing bytes are rejected.
	if _, err := DecodeRedirect(append(b, 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

// TestRedirectEpochRoundTrip covers the redirect's reserved tail: a payload
// carrying an older build's trailing fencing epoch decodes to its address,
// and re-encodes to the address-only payload every build reads.
func TestRedirectEpochRoundTrip(t *testing.T) {
	plain, err := EncodeRedirect(&Redirect{Addr: "10.0.0.7:7470"})
	if err != nil {
		t.Fatal(err)
	}
	fenced := binary.BigEndian.AppendUint64(bytes.Clone(plain), 42)
	got, err := DecodeRedirect(fenced)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != "10.0.0.7:7470" {
		t.Fatalf("got=%+v", got)
	}
	re, err := EncodeRedirect(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, plain) {
		t.Fatalf("re-encoded %x, want the address-only %x", re, plain)
	}
}

// --- framing edge cases ---

func TestReadFrameTruncatedHeader(t *testing.T) {
	for n := 0; n < 5; n++ {
		if _, _, err := ReadFrame(bytes.NewReader(make([]byte, n))); err == nil {
			t.Fatalf("accepted %d-byte header", n)
		}
	}
}

func TestReadFrameOversizedDeclaredLength(t *testing.T) {
	// Declared payload of exactly MaxFrameSize+1 must be rejected before
	// any allocation is attempted.
	hdr := []byte{0, 1, 0, 1, byte(MsgAck)} // 65537
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err=%v", err)
	}
	// Largest legal frame round-trips.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgAck, make([]byte, MaxFrameSize-1)); err != nil {
		t.Fatal(err)
	}
	if _, got, err := ReadFrame(&buf); err != nil || len(got) != MaxFrameSize-1 {
		t.Fatalf("len=%d err=%v", len(got), err)
	}
}

func TestDecodeCandidatesTruncated(t *testing.T) {
	resp := &JoinResponse{Neighbors: []Candidate{
		{Peer: 1, DTree: 2, Addr: "a:1"},
		{Peer: 2, DTree: 4, Addr: "b:2"},
	}}
	b, err := EncodeJoinResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := DecodeJoinResponse(b[:n]); err == nil {
			t.Fatalf("accepted candidate list truncated to %d bytes", n)
		}
	}
	// A count field claiming more entries than the payload holds.
	short := append([]byte(nil), b...)
	short[0], short[1] = 0xFF, 0x00 // count 65280 > MaxNeighbors
	if _, err := DecodeJoinResponse(short); !errors.Is(err, ErrLimit) {
		t.Fatalf("err=%v", err)
	}
	short[0], short[1] = 0, 3 // count 3, but only 2 entries of bytes
	if _, err := DecodeJoinResponse(short); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("err=%v", err)
	}
	// Trailing garbage after a well-formed list.
	if _, err := DecodeLookupResponse(append(b, 0xAA)); err == nil {
		t.Fatal("accepted trailing bytes after candidates")
	}
}

func TestDecodeRedirectGarbage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, rng.Intn(256))
		rng.Read(b)
		_, _ = DecodeRedirect(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- version-2 framing ---

func TestFrameIDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{9, 8, 7}
	if err := WriteFrameID(&buf, MsgJoinResponse, 0xdeadbeefcafe, payload); err != nil {
		t.Fatal(err)
	}
	typ, id, got, err := ReadFrameID(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgJoinResponse || id != 0xdeadbeefcafe || !bytes.Equal(got, payload) {
		t.Fatalf("typ=%v id=%x payload=%v", typ, id, got)
	}
}

func TestFrameIDEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameID(&buf, MsgAck, 7, nil); err != nil {
		t.Fatal(err)
	}
	typ, id, got, err := ReadFrameID(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgAck || id != 7 || len(got) != 0 {
		t.Fatalf("typ=%v id=%d payload=%v", typ, id, got)
	}
}

func TestFrameIDSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameID(&buf, MsgAck, 1, make([]byte, MaxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err=%v", err)
	}
	// A declared length below the 9-byte minimum must be rejected.
	raw := []byte{0, 0, 0, 5, byte(MsgAck), 0, 0, 0, 0}
	if _, _, _, err := ReadFrameID(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err=%v", err)
	}
}

func TestFrameIDTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameID(&buf, MsgJoinRequest, 42, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, _, _, err := ReadFrameID(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(raw))
		}
	}
}

func TestBufPoolReuse(t *testing.T) {
	b := GetBuf(100)
	if len(b) != 100 {
		t.Fatalf("len=%d", len(b))
	}
	PutBuf(b)
	// Oversized buffers must not enter the pool.
	PutBuf(make([]byte, MaxFrameSize+frameIDHeaderSize+1))
	c := GetBuf(8)
	if len(c) != 8 {
		t.Fatalf("len=%d", len(c))
	}
	PutBuf(c)
}

// TestFramesThroughBufio drives the in-place road both frame functions
// take on bufio readers and writers: header built in the writer's spare
// space and parsed in the reader's buffer. The 16-byte buffers make
// headers straddle buffer ends and every payload outgrow the buffer; the
// result must be what the one-Write road produces, byte for byte, with the
// same errors for the same malformed streams.
func TestFramesThroughBufio(t *testing.T) {
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{7}, 11), bytes.Repeat([]byte{9}, 100)}
	for _, size := range []int{16, 64, 16 << 10} {
		var viaBufio, direct bytes.Buffer
		bw := bufio.NewWriterSize(&viaBufio, size)
		for i, p := range payloads {
			if err := WriteFrameID(bw, MsgLookupResponse, uint64(i+1), p); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(bw, MsgAck, p); err != nil {
				t.Fatal(err)
			}
			WriteFrameID(&direct, MsgLookupResponse, uint64(i+1), p)
			WriteFrame(&direct, MsgAck, p)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaBufio.Bytes(), direct.Bytes()) {
			t.Fatalf("bufio size %d: buffered and direct writers produced different streams", size)
		}
		br := bufio.NewReaderSize(&viaBufio, size)
		for i, p := range payloads {
			typ, id, got, err := ReadFrameID(br)
			if err != nil || typ != MsgLookupResponse || id != uint64(i+1) || !bytes.Equal(got, p) {
				t.Fatalf("bufio size %d frame %d: typ=%v id=%d payload=%v err=%v", size, i, typ, id, got, err)
			}
			typ, got, err = ReadFrame(br)
			if err != nil || typ != MsgAck || !bytes.Equal(got, p) {
				t.Fatalf("bufio size %d v1 frame %d: typ=%v payload=%v err=%v", size, i, typ, got, err)
			}
		}
		if _, _, _, err := ReadFrameID(br); err != io.EOF {
			t.Fatalf("end of stream: %v, want a bare io.EOF", err)
		}
	}

	var one bytes.Buffer
	WriteFrameID(&one, MsgJoinRequest, 42, []byte{1, 2, 3, 4})
	raw := one.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		_, _, _, err := ReadFrameID(bufio.NewReader(bytes.NewReader(raw[:cut])))
		if err == nil || (cut < frameIDHeaderSize && err != io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d of %d: %v", cut, len(raw), err)
		}
	}
	for _, bad := range [][]byte{
		{0, 0, 0, 5, byte(MsgAck), 0, 0, 0, 0}, // below the 9-byte minimum, stream ends inside the header
		{0xff, 0xff, 0xff, 0xff, byte(MsgAck), 0, 0, 0, 0, 0, 0, 0, 0, 1},
	} {
		if _, _, _, err := ReadFrameID(bufio.NewReader(bytes.NewReader(bad))); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("bad length %v: %v", bad[:4], err)
		}
	}
}

// TestFrameBuffered: true exactly when the next ReadFrameID needs no byte
// the reader does not already hold.
func TestFrameBuffered(t *testing.T) {
	var stream bytes.Buffer
	WriteFrameID(&stream, MsgLookupRequest, 1, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	WriteFrameID(&stream, MsgStatusRequest, 2, nil)
	raw := stream.Bytes()
	for cut := 0; cut <= len(raw); cut++ {
		br := bufio.NewReader(bytes.NewReader(raw[:cut]))
		br.Peek(1) // pull what there is into the buffer
		if got, want := FrameBuffered(br), cut >= 21; got != want {
			t.Fatalf("%d bytes buffered: FrameBuffered=%v want %v", cut, got, want)
		}
		if cut < 21 {
			continue
		}
		if _, _, p, err := ReadFrameID(br); err != nil {
			t.Fatal(err)
		} else {
			PutBuf(p)
		}
		if got, want := FrameBuffered(br), cut == len(raw); got != want {
			t.Fatalf("%d bytes, one frame read: FrameBuffered=%v want %v", cut, got, want)
		}
	}
	// A declared length that is garbage is simply "not buffered": the read
	// that follows reports it.
	br := bufio.NewReader(bytes.NewReader(bytes.Repeat([]byte{0xff}, 32)))
	br.Peek(1)
	if FrameBuffered(br) {
		t.Fatal("garbage length counted as a buffered frame")
	}
}

// TestFrameRoundTripAllocs: a frame written to and read from buffered
// streams allocates nothing — no assembly buffer, no escaping header.
func TestFrameRoundTripAllocs(t *testing.T) {
	var pipe bytes.Buffer
	bw, br := bufio.NewWriter(&pipe), bufio.NewReader(&pipe)
	payload := make([]byte, 8)
	allocs := testing.AllocsPerRun(200, func() {
		if err := WriteFrameID(bw, MsgLookupRequest, 7, payload); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		_, _, p, err := ReadFrameID(br)
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(p)
	})
	if allocs != 0 {
		t.Fatalf("frame round trip allocates %v times", allocs)
	}
}

// --- hello negotiation ---

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{MaxVersion: MaxVersion, MaxBatch: MaxBatch}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Fatalf("got=%+v want=%+v", got, h)
	}
	a := &HelloAck{Version: Version2, MaxBatch: 16}
	gotA, err := DecodeHelloAck(EncodeHelloAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if *gotA != *a {
		t.Fatalf("got=%+v want=%+v", gotA, a)
	}
}

func TestHelloToleratesTrailingBytes(t *testing.T) {
	// A future client may extend the handshake; old decoders must not choke.
	b := append(EncodeHello(&Hello{MaxVersion: 3, MaxBatch: 64}), 0xff, 0xee)
	h, err := DecodeHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxVersion != 3 || h.MaxBatch != 64 {
		t.Fatalf("hello=%+v", h)
	}
	if _, err := DecodeHello([]byte{1}); err == nil {
		t.Fatal("truncated hello accepted")
	}
	if _, err := DecodeHelloAck([]byte{0, 2, 0}); err == nil {
		t.Fatal("truncated hello-ack accepted")
	}
}

// --- batch joins ---

func batchFixture() *BatchJoinRequest {
	return &BatchJoinRequest{Joins: []JoinRequest{
		{Peer: 1, Addr: "10.0.0.1:9000", Path: []int32{5, 4, 0}},
		{Peer: 2, Addr: "10.0.0.2:9000", Path: []int32{7, 4, 0}},
		{Peer: 3, Addr: "", Path: []int32{0}},
	}}
}

func TestBatchJoinRequestRoundTrip(t *testing.T) {
	m := batchFixture()
	b, err := EncodeBatchJoinRequest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchJoinRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Joins) != len(m.Joins) {
		t.Fatalf("joins=%d", len(got.Joins))
	}
	for i := range m.Joins {
		if got.Joins[i].Peer != m.Joins[i].Peer || got.Joins[i].Addr != m.Joins[i].Addr {
			t.Fatalf("entry %d: %+v", i, got.Joins[i])
		}
		for k, r := range m.Joins[i].Path {
			if got.Joins[i].Path[k] != r {
				t.Fatalf("entry %d hop %d: %d", i, k, got.Joins[i].Path[k])
			}
		}
	}
}

func TestBatchJoinRequestLimits(t *testing.T) {
	if _, err := EncodeBatchJoinRequest(&BatchJoinRequest{}); !errors.Is(err, ErrLimit) {
		t.Fatalf("empty batch: %v", err)
	}
	big := &BatchJoinRequest{Joins: make([]JoinRequest, MaxBatch+1)}
	for i := range big.Joins {
		big.Joins[i] = JoinRequest{Peer: int64(i), Path: []int32{0}}
	}
	if _, err := EncodeBatchJoinRequest(big); !errors.Is(err, ErrLimit) {
		t.Fatalf("oversized batch: %v", err)
	}
	longPath := &BatchJoinRequest{Joins: []JoinRequest{{Peer: 1, Path: make([]int32, codec.MaxPathLen+1)}}}
	if _, err := EncodeBatchJoinRequest(longPath); !errors.Is(err, ErrLimit) {
		t.Fatalf("long path: %v", err)
	}
	// Decoder side: a declared count over the cap must be rejected before
	// any allocation proportional to it.
	if _, err := DecodeBatchJoinRequest([]byte{0xff, 0xff}); !errors.Is(err, ErrLimit) {
		t.Fatalf("decoder count cap: %v", err)
	}
	if _, err := DecodeBatchJoinRequest([]byte{0, 0}); !errors.Is(err, ErrLimit) {
		t.Fatalf("decoder zero count: %v", err)
	}
}

func TestBatchJoinRequestTruncated(t *testing.T) {
	b, err := EncodeBatchJoinRequest(batchFixture())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeBatchJoinRequest(b[:cut]); err == nil {
			t.Fatalf("truncated batch at %d of %d accepted", cut, len(b))
		}
	}
	if _, err := DecodeBatchJoinRequest(append(b, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestBatchJoinResponseRoundTrip(t *testing.T) {
	m := &BatchJoinResponse{Results: []BatchJoinResult{
		{Neighbors: []Candidate{{Peer: 9, DTree: 2, Addr: "10.0.0.9:1"}}},
		{Code: CodeUnknownLandmark, Message: "no such landmark"},
		{},
	}}
	b, err := EncodeBatchJoinResponse(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchJoinResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 3 {
		t.Fatalf("results=%d", len(got.Results))
	}
	if got.Results[0].Code != 0 || len(got.Results[0].Neighbors) != 1 || got.Results[0].Neighbors[0].Addr != "10.0.0.9:1" {
		t.Fatalf("entry 0: %+v", got.Results[0])
	}
	if got.Results[1].Code != CodeUnknownLandmark || got.Results[1].Message != "no such landmark" {
		t.Fatalf("entry 1: %+v", got.Results[1])
	}
	if got.Results[2].Code != 0 || len(got.Results[2].Neighbors) != 0 {
		t.Fatalf("entry 2: %+v", got.Results[2])
	}
}

func TestBatchJoinResponseTruncated(t *testing.T) {
	m := &BatchJoinResponse{Results: []BatchJoinResult{
		{Neighbors: []Candidate{{Peer: 1, DTree: 1, Addr: "a"}, {Peer: 2, DTree: 3, Addr: "b"}}},
	}}
	b, err := EncodeBatchJoinResponse(m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeBatchJoinResponse(b[:cut]); err == nil {
			t.Fatalf("truncated response at %d of %d accepted", cut, len(b))
		}
	}
}

// --- status ---

func statusFixture() *Status {
	return &Status{
		Role: RoleReplica, Shards: 4, Replicas: 3, Live: 11,
		PrimaryAddr: "10.0.0.1:4100",
		SnapshotSeq: 9000, WalTail: 250, ReplayMillis: 42,
		Applied: 9240, Head: 9250,
		Peers: 77, QueueDepth: 5, RequestsTotal: 123456, WalFsyncs: 890,
	}
}

func TestStatusRoundTrip(t *testing.T) {
	m := statusFixture()
	b, err := EncodeStatus(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStatus(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("got=%+v want=%+v", got, m)
	}
}

// TestStatusDecodeOldPayloads: the status report has grown twice (the
// durability block, then the operational gauges); today's decoder must
// accept both older generations' payloads with the newer fields zero —
// that is the wire-compat contract that lets mixed-version deployments
// scrape each other.
func TestStatusDecodeOldPayloads(t *testing.T) {
	m := statusFixture()
	b, err := EncodeStatus(m)
	if err != nil {
		t.Fatal(err)
	}
	const gaugeBytes = 8 + 4 + 8 + 8    // Peers, QueueDepth, RequestsTotal, WalFsyncs
	const duraBytes = 8 + 8 + 4 + 8 + 8 // SnapshotSeq..Head

	// A pre-gauge node: payload stops after Head.
	got, err := DecodeStatus(b[:len(b)-gaugeBytes])
	if err != nil {
		t.Fatal(err)
	}
	want := *m
	want.Peers, want.QueueDepth, want.RequestsTotal, want.WalFsyncs = 0, 0, 0, 0
	if *got != want {
		t.Fatalf("pre-gauge decode got=%+v want=%+v", got, want)
	}

	// A pre-durability node: payload stops after PrimaryAddr.
	got, err = DecodeStatus(b[:len(b)-gaugeBytes-duraBytes])
	if err != nil {
		t.Fatal(err)
	}
	want = Status{Role: m.Role, Shards: m.Shards, Replicas: m.Replicas,
		Live: m.Live, PrimaryAddr: m.PrimaryAddr}
	if *got != want {
		t.Fatalf("pre-durability decode got=%+v want=%+v", got, want)
	}

	// Truncation INSIDE either appended block is corruption, not an old
	// node, and must be rejected.
	for _, cut := range []int{1, gaugeBytes - 1, gaugeBytes + 1, gaugeBytes + duraBytes - 1} {
		if _, err := DecodeStatus(b[:len(b)-cut]); err == nil {
			t.Fatalf("mid-field truncation (−%d bytes) accepted", cut)
		}
	}

	// Trailing bytes are a FUTURE extension and must be tolerated, so the
	// next block added to the report does not break this build's clients.
	got, err = DecodeStatus(append(append([]byte(nil), b...), 0xde, 0xad))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("extended decode got=%+v want=%+v", got, m)
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ := 1; typ < NumMsgTypes; typ++ {
		s := MsgType(typ).String()
		if s == "" || s == "unknown" {
			t.Fatalf("message type %d has no name", typ)
		}
	}
	if s := MsgType(250).String(); s != "unknown" {
		t.Fatalf("out-of-range type named %q", s)
	}
}
