package op

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// opVectors pins the encoding of every op kind against what b6fd366's
// Append produced. These are the bytes of a WAL record, a checkpoint
// record and a follower-stream record alike.
var opVectors = []struct {
	name string
	hex  string
	op   Op
}{
	{
		"join", "01" + "0000000000003039" + "0000000000000007" + "000d31302e302e302e373a34313030" + "0003000000010000000200000003",
		Join(7, []topology.NodeID{1, 2, 3}, "10.0.0.7:4100", 12345),
	},
	{
		"join, no address, no path", "01" + "0000000000000000" + "ffffffffffffffff" + "0000" + "0000",
		Join(-1, []topology.NodeID{}, "", 0),
	},
	{
		"batch join", "02" + "0000000000000063" + "0002" +
			"0000000000000001" + "0003613a31" + "000100000009" +
			"0000000000000002" + "0000" + "00020000000800000009",
		BatchJoin([]JoinEntry{
			{Peer: 1, Addr: "a:1", Path: []topology.NodeID{9}},
			{Peer: 2, Addr: "", Path: []topology.NodeID{8, 9}},
		}, 99),
	},
	{"leave", "03" + "0000000000000000" + "000000000000002a", Leave(42)},
	{"refresh", "04" + "0000010000000000" + "000000000000002a", Refresh(42, 1<<40)},
	{"super on", "05" + "0000000000000000" + "0000000000000005" + "01", SetSuperPeer(5, true)},
	{"super off", "05" + "0000000000000000" + "0000000000000005" + "00", SetSuperPeer(5, false)},
	{"expire", "06" + "0004000000000000", Expire(1 << 50)},
	{"move landmark", "07" + "0000000000000000" + "00000003" + "0000" + "0002" + "0000000000000007", Op{Kind: KindMoveLandmark, Move: MoveEntry{Landmark: 3, Src: 0, Dst: 2, Epoch: 7}}},
}

// TestOpBytesUnchanged: encode → the bytes, the bytes → decode → the op,
// through both the fresh and the appending/reusing forms; every strict
// prefix and one trailing byte are refused.
func TestOpBytesUnchanged(t *testing.T) {
	var reused Op
	for _, v := range opVectors {
		golden, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatalf("%s: bad literal: %v", v.name, err)
		}
		if got, err := Encode(v.op); err != nil || !bytes.Equal(got, golden) {
			t.Errorf("%s: encoded\n %x (%v)\nwant\n %x", v.name, got, err, golden)
		}
		if got, err := Append([]byte{0xEE}, v.op); err != nil || !bytes.Equal(got[1:], golden) || got[0] != 0xEE {
			t.Errorf("%s: appended\n %x (%v)\nwant\n ee%x", v.name, got, err, golden)
		}
		if got, err := Decode(golden); err != nil || !reflect.DeepEqual(got, v.op) {
			t.Errorf("%s: decoded\n %+v (%v)\nwant\n %+v", v.name, got, err, v.op)
		}
		// Into a target the previous vectors have dirtied: the fields of
		// this op's kind must come out as from a fresh one.
		if err := DecodeInto(&reused, golden); err != nil {
			t.Errorf("%s: DecodeInto: %v", v.name, err)
		} else if re, err := Encode(reused); err != nil || !bytes.Equal(re, golden) {
			t.Errorf("%s: reused target re-encodes\n %x (%v)\nwant\n %x", v.name, re, err, golden)
		}
		for n := 0; n < len(golden); n++ {
			if _, err := Decode(golden[:n:n]); err == nil {
				t.Errorf("%s: accepted a cut at %d of %d bytes", v.name, n, len(golden))
			}
		}
		if _, err := Decode(append(append([]byte(nil), golden...), 0)); err == nil {
			t.Errorf("%s: accepted a trailing byte", v.name)
		}
	}
}

// TestOpCapsReadAsLimit: a count or length over its cap is ErrLimit even
// when the record is also too short for it; one within its cap over a
// short record is ErrTruncated.
func TestOpCapsReadAsLimit(t *testing.T) {
	join, batch := "01"+"0000000000000000", "02"+"0000000000000000"
	peer := "0000000000000001"
	for _, c := range []struct {
		name string
		hex  string
		want error
	}{
		{"address length 257", join + peer + "0101", ErrLimit},
		{"address length 256, no bytes", join + peer + "0100", codec.ErrTruncated},
		{"path length 257", join + peer + "0000" + "0101", ErrLimit},
		{"path length 256, no hops", join + peer + "0000" + "0100", codec.ErrTruncated},
		{"batch of 257", batch + "0101", ErrLimit},
		{"batch of none", batch + "0000", ErrLimit},
		{"batch of 256, none there", batch + "0100", codec.ErrTruncated},
		{"batch entry path length 257", batch + "0001" + peer + "0000" + "0101", ErrLimit},
		{"leave without a peer", "03" + "0000000000000000", codec.ErrTruncated},
		{"no timestamp", "06", codec.ErrTruncated},
	} {
		b, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatalf("%s: bad literal: %v", c.name, err)
		}
		if _, err := Decode(b); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}
