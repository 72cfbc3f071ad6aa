package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// FuzzWALRecover holds recovery to its promise against a damaged tail: a
// valid log — single joins (KindJoin, the record of builds with a single
// join road), a batch of one, a wider batch, a leave and a sweep — is cut
// at a fuzzed offset and a fuzzed tail written after the cut. Reopened, the
// log must replay a byte-for-byte prefix of the records written, holding at
// least every record whose frame lies wholly before the cut, and append
// after it.
func FuzzWALRecover(f *testing.F) {
	join := func(p pathtree.PeerID, lm topology.NodeID) op.JoinEntry {
		return op.JoinEntry{Peer: p, Addr: "10.0.0.1:7000", Path: []topology.NodeID{topology.NodeID(1000 + p), 11, lm}}
	}
	var written [][]byte
	for _, o := range []op.Op{
		op.Join(1, join(1, 0).Path, "10.0.0.1:7000", 100),
		op.BatchJoin([]op.JoinEntry{join(2, 100)}, 101),
		op.BatchJoin([]op.JoinEntry{join(3, 0), join(4, 100), join(3, 100)}, 102),
		op.Leave(4),
		op.Join(5, join(5, 100).Path, "", 103),
		op.Expire(104),
	} {
		rec, err := op.Encode(o)
		if err != nil {
			f.Fatal(err)
		}
		written = append(written, rec)
	}
	dir := f.TempDir()
	log, err := OpenSharded(dir, 1, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := log.Append(0, written[:2]...); err != nil {
		f.Fatal(err)
	}
	if _, err := log.Append(0, written[2:]...); err != nil {
		f.Fatal(err)
	}
	if err := log.Close(); err != nil {
		f.Fatal(err)
	}
	name := shardSegName(0, 1)
	seg, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		f.Fatal(err)
	}
	// ends[i] is the offset at which record i's frame ends.
	var ends []int
	end := 0
	for _, rec := range written {
		end += frameHeader + len(rec)
		ends = append(ends, end)
	}
	if end != len(seg) {
		f.Fatalf("the segment holds %d bytes, its frames %d", len(seg), end)
	}

	f.Add(uint16(len(seg)), []byte(nil))    // intact
	f.Add(uint16(len(seg)-3), []byte(nil))  // the last record torn
	f.Add(uint16(ends[1]+5), []byte(nil))   // a header torn
	f.Add(uint16(ends[0]), []byte{0, 0, 0}) // a stray tail
	flipped := bytes.Clone(seg[ends[2]:])
	flipped[frameHeader] ^= 0xff // the fourth record's first payload byte
	f.Add(uint16(ends[2]), flipped)
	f.Add(uint16(0), seg) // the whole log again, after nothing

	f.Fuzz(func(t *testing.T, cut uint16, tail []byte) {
		at := int(cut) % (len(seg) + 1)
		dir := t.TempDir()
		damaged := append(bytes.Clone(seg[:at]), tail...)
		if err := os.WriteFile(filepath.Join(dir, name), damaged, 0o666); err != nil {
			t.Fatal(err)
		}
		log, err := OpenSharded(dir, 1, Options{NoSync: true})
		if err != nil {
			t.Fatalf("open of a log cut at %d with a %d-byte tail: %v", at, len(tail), err)
		}
		defer log.Close()
		var got [][]byte
		if err := log.Replay(0, func(seq uint64, rec []byte) error {
			if seq != uint64(len(got)+1) {
				t.Fatalf("replayed sequence %d after %d records", seq, len(got))
			}
			got = append(got, bytes.Clone(rec))
			return nil
		}); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(got) > len(written) {
			t.Fatalf("replayed %d records of %d written", len(got), len(written))
		}
		for i := range got {
			if !bytes.Equal(got[i], written[i]) {
				t.Fatalf("record %d replays as %x, written %x", i+1, got[i], written[i])
			}
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= at {
			whole++
		}
		if len(got) < whole {
			t.Fatalf("replayed %d records; the cut at %d kept %d whole", len(got), at, whole)
		}
		// The recovered log goes on: the next record takes the next sequence.
		seq, err := log.Append(0, written[0])
		if err != nil || seq != uint64(len(got)+1) {
			t.Fatalf("append after recovery: sequence %d, %v; want %d", seq, err, len(got)+1)
		}
	})
}
