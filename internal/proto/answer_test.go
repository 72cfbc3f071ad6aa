package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"proxdisc/internal/pathtree"
)

// answerOf builds the same k-candidate answer in the backend's form and in
// the wire's, every address distinct and non-empty.
func answerOf(k int) ([]pathtree.Candidate, []Candidate) {
	backend := make([]pathtree.Candidate, k)
	wire := make([]Candidate, k)
	for i := range backend {
		addr := fmt.Sprintf("10.%d.%d.%d:%d", i/65536, i/256%256, i%256, 7000+i)
		backend[i] = pathtree.Candidate{Peer: pathtree.PeerID(i*7 - 3), DTree: i % 9, Addr: addr}
		wire[i] = Candidate{Peer: int64(i*7 - 3), DTree: int32(i % 9), Addr: addr}
	}
	return backend, wire
}

// blockOf writes entries answers into one answer block, each the candidates
// cands, except those errs refuses.
func blockOf(cands []pathtree.Candidate, entries int, errs map[int]error) *pathtree.Answers {
	a := new(pathtree.Answers)
	a.Reset(entries)
	for i := range a.Entries {
		if err := errs[i]; err != nil {
			a.Entries[i].Err = err
			continue
		}
		a.Entries[i].Lo = int32(len(a.Cands))
		for _, c := range cands {
			a.Addrs = append(a.Addrs, c.Addr...)
			a.Cands = append(a.Cands, pathtree.AnswerCand{Peer: c.Peer, DTree: int32(c.DTree), AddrEnd: int32(len(a.Addrs))})
		}
		a.Entries[i].Hi = int32(len(a.Cands))
	}
	return a
}

// wrongShard is the code function of the batch answers below: every refusal
// is CodeWrongShard.
func wrongShard(error) uint16 { return CodeWrongShard }

// TestAnswerEncodersMatchWireForm pins that the server's encoders, which
// write a backend's answer, produce the bytes of the wire-form encoders the
// golden tables pin (a subscribe ack is its seq, then a lookup response's
// bytes), and refuse what those refuse.
func TestAnswerEncodersMatchWireForm(t *testing.T) {
	for _, k := range []int{0, 1, 5, MaxNeighbors} {
		backend, wire := answerOf(k)
		check := func(name string, got []byte, gerr error, want []byte, werr error) {
			t.Helper()
			if gerr != nil || werr != nil {
				t.Fatalf("k=%d %s: %v / %v", k, name, gerr, werr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("k=%d %s: %x, want %x", k, name, got, want)
			}
		}
		block := blockOf(backend, 1, nil)
		got, gerr := EncodeAnswer(block, block.Entries[0])
		want, werr := EncodeLookupResponse(&LookupResponse{Neighbors: wire})
		check("EncodeAnswer", got, gerr, want, werr)
		got, gerr = EncodeSubscribeAckAnswer(99, backend)
		check("EncodeSubscribeAckAnswer", got, gerr, append(binary.BigEndian.AppendUint64(nil, 99), want...), werr)
		got, gerr = EncodeResyncAnswer(7, backend)
		want, werr = EncodeSubEvent(&SubEvent{Seq: 7, Kind: EventResync, Neighbors: wire})
		check("EncodeResyncAnswer", got, gerr, want, werr)
		if k <= 5 {
			got, gerr = EncodeBatchAnswer(blockOf(backend, 3, map[int]error{1: errors.New("10.0.0.9:7470")}), wrongShard)
			want, werr = EncodeBatchJoinResponse(&BatchJoinResponse{Results: []BatchJoinResult{{Neighbors: wire}, {Code: CodeWrongShard, Message: "10.0.0.9:7470"}, {Neighbors: wire}}})
			check("EncodeBatchAnswer", got, gerr, want, werr)
		}
	}
	over, _ := answerOf(MaxNeighbors + 1)
	if block := blockOf(over, 1, nil); !errors.Is(second(EncodeAnswer(block, block.Entries[0])), ErrLimit) {
		t.Errorf("EncodeAnswer of %d candidates: want ErrLimit", len(over))
	}
	full, _ := answerOf(MaxNeighbors)
	if _, err := EncodeBatchAnswer(blockOf(full, MaxBatch, nil), wrongShard); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("EncodeBatchAnswer over a frame: %v, want ErrFrameTooLarge", err)
	}
}

// second returns the error of a call's two results.
func second[T any](_ T, err error) error { return err }

// TestDecodeCandidatesAllocs pins the client's decode of a candidate list:
// two allocations whatever its length, the slice and the one string every
// address is copied into. A batch answer costs four whatever its width:
// the response, its results, one candidate block and one string.
func TestDecodeCandidatesAllocs(t *testing.T) {
	for _, k := range []int{1, 5, 32, MaxNeighbors} {
		_, wire := answerOf(k)
		payload, err := EncodeLookupResponse(&LookupResponse{Neighbors: wire})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if cands, err := decodeCandidates(payload); err != nil || len(cands) != k {
				t.Fatalf("decode: %d candidates, %v", len(cands), err)
			}
		})
		if allocs != 2 {
			t.Errorf("decoding %d candidates allocates %v times, want 2", k, allocs)
		}
	}
	for _, width := range []int{1, 8, MaxBatch} {
		var batch BatchJoinResponse
		for i := 0; i < width; i++ {
			_, wire := answerOf(5)
			res := BatchJoinResult{Neighbors: wire}
			if i%7 == 3 {
				res = BatchJoinResult{Code: CodeUnknownLandmark, Message: "no such landmark"}
			}
			batch.Results = append(batch.Results, res)
		}
		payload, err := EncodeBatchJoinResponse(&batch)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeBatchJoinResponse(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 4 {
			t.Errorf("decoding a %d-entry batch answer allocates %v times, want 4", width, allocs)
		}
	}
}

// TestDecodedAnswersAliasNothing holds the decoders to PutBuf's contract: a
// decoded message never aliases its payload, so a payload recycled and
// overwritten after the decode leaves every decoded address as it was.
func TestDecodedAnswersAliasNothing(t *testing.T) {
	_, wire := answerOf(5)
	results := []BatchJoinResult{{Neighbors: wire}, {Code: CodeWrongShard, Message: "10.0.0.9:7470"}, {Neighbors: wire[:2]}}
	encode := map[string]func() ([]byte, error){
		"lookup": func() ([]byte, error) { return EncodeLookupResponse(&LookupResponse{Neighbors: wire}) },
		"join":   func() ([]byte, error) { return EncodeJoinResponse(&JoinResponse{Neighbors: wire}) },
		"batch":  func() ([]byte, error) { return EncodeBatchJoinResponse(&BatchJoinResponse{Results: results}) },
		"ack":    func() ([]byte, error) { return encodeSubscribeAck(&SubscribeAck{Seq: 3, Neighbors: wire}) },
		"resync": func() ([]byte, error) { return EncodeSubEvent(&SubEvent{Seq: 4, Kind: EventResync, Neighbors: wire}) },
		"enter":  func() ([]byte, error) { return EncodeSubEvent(&SubEvent{Seq: 5, Kind: EventEnter, Cand: wire[1]}) },
	}
	decode := map[string]func([]byte) (any, error){
		"lookup": func(b []byte) (any, error) { return DecodeLookupResponse(b) },
		"join":   func(b []byte) (any, error) { return DecodeJoinResponse(b) },
		"batch":  func(b []byte) (any, error) { return DecodeBatchJoinResponse(b) },
		"ack":    func(b []byte) (any, error) { return DecodeSubscribeAck(b) },
		"resync": func(b []byte) (any, error) { return DecodeSubEvent(b) },
		"enter":  func(b []byte) (any, error) { return DecodeSubEvent(b) },
	}
	for name, enc := range encode {
		b, err := enc()
		if err != nil {
			t.Fatal(err)
		}
		payload := append(GetBuf(0), b...)
		got, err := decode[name](payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := decode[name](bytes.Clone(b))
		if err != nil {
			t.Fatal(err)
		}
		// Overwrite the payload as the next frame read into it would, and
		// recycle it.
		for j := range payload {
			payload[j] = 0x5A
		}
		PutBuf(payload)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v changed to %+v once its payload was recycled", name, want, got)
		}
	}
}

// TestBatchAnswerFit pins the batch answer's frame budget at its boundary
// for k = 10: 24 entries of 10 candidates with MaxAddrLen-byte addresses
// encode and go out through WriteFrameID, 25 are refused. At the default
// k = 5 the budget is MaxBatch.
func TestBatchAnswerFit(t *testing.T) {
	if got := BatchAnswerFit(5); got != MaxBatch {
		t.Fatalf("BatchAnswerFit(5) = %d, want %d", got, MaxBatch)
	}
	if got := BatchAnswerFit(10); got != 24 {
		t.Fatalf("BatchAnswerFit(10) = %d, want 24", got)
	}
	cands := make([]pathtree.Candidate, 10)
	for i := range cands {
		cands[i] = pathtree.Candidate{Peer: pathtree.PeerID(i), DTree: i, Addr: strings.Repeat("a", MaxAddrLen)}
	}
	answer := func(n int) *pathtree.Answers { return blockOf(cands, n, nil) }
	b, err := EncodeBatchAnswer(answer(24), wrongShard)
	if err != nil {
		t.Fatalf("24 entries: %v", err)
	}
	if err := WriteFrameID(io.Discard, MsgBatchJoinResponse, 1<<63, b); err != nil {
		t.Fatalf("24 entries' frame: %v", err)
	}
	if _, err := EncodeBatchAnswer(answer(25), wrongShard); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("25 entries: %v, want ErrFrameTooLarge", err)
	}
}
