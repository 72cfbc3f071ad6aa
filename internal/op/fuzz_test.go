package op

import (
	"bytes"
	"testing"

	"proxdisc/internal/topology"
)

// FuzzOpDecode drives the log-record decoder with arbitrary bytes. Any
// input that decodes must re-encode to the identical byte string (the
// codec is canonical: one op, one encoding), and the re-encoding must
// decode back without error — the property the WAL's crash recovery and
// the replica apply log both rely on.
func FuzzOpDecode(f *testing.F) {
	seeds := []Op{
		Join(7, []topology.NodeID{1, 2, 3}, "10.0.0.7:4100", 12345),
		BatchJoin([]JoinEntry{{Peer: 1, Addr: "a:1", Path: []topology.NodeID{9}}}, 99),
		Leave(42),
		Refresh(42, 1<<40),
		SetSuperPeer(5, true),
		Expire(1 << 50),
		Op{Kind: KindMoveLandmark, Move: MoveEntry{Landmark: 3, Src: 0, Dst: 2, Epoch: 7}},
	}
	for _, o := range seeds {
		b, err := Encode(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindBatchJoin), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(o)
		if err != nil {
			t.Fatalf("decoded op %+v does not re-encode: %v", o, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("codec not canonical:\n in  %x\n out %x", data, re)
		}
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
	})
}
