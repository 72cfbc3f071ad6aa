package pathtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// sectionTree is a tree of n peers under landmark 9 at random leaves of a
// fan-out-8 router space, with addresses of every form: IPv4 endpoints,
// text of lengths around the pools' edges and none, and one super-peer in
// seven; and, at the landmark itself and at one router, several peers.
func sectionTree(n int) *Core {
	const lm topology.NodeID = 9
	c := NewCore(lm)
	rng := rand.New(rand.NewSource(int64(n)))
	lengths := []int{0, 1, 7, 8, 9, 16, 17, 255, 256}
	for i := 0; i < n; i++ {
		var path []topology.NodeID
		for r := 1 + rng.Intn(4_000); r > 0; r = (r - 1) / 8 {
			path = append(path, topology.NodeID(1_000+r))
		}
		switch i % 11 {
		case 3:
			path = nil // at the landmark
		case 4:
			path = []topology.NodeID{1_001}
		}
		slot, _ := c.Join(PeerID(n-i), append(path, lm), 0, nil)
		rec := c.Record(slot)
		rec.RefreshNanos, rec.Super = int64(1_000+i%7), i%7 == 0
		if i%2 == 0 {
			c.SetAddr(rec, fmt.Sprintf("10.%d.%d.%d:7000", i>>16&255, i>>8&255, i&255))
		} else {
			c.SetAddr(rec, strings.Repeat(fmt.Sprintf("p%d.", i), 100)[:lengths[i%len(lengths)]])
		}
	}
	return c
}

// frames cuts a section at its frame offsets.
func frames(buf []byte, cuts []int) [][]byte {
	var out [][]byte
	prev := 0
	for _, cut := range append(cuts, len(buf)) {
		out = append(out, buf[prev:cut])
		prev = cut
	}
	return out
}

// peerPaths maps every peer of c to its record's fields, address and path.
func peerPaths(c *Core) map[PeerID]string {
	out := make(map[PeerID]string, c.Len())
	for slot, rec := range c.Records() {
		out[rec.ID] = fmt.Sprintf("%d %v %q %v", rec.RefreshNanos, rec.Super, c.AppendAddr(nil, rec), c.AppendPath(nil, slot))
	}
	return out
}

// TestSectionRoundTrip: a tree read back from its section, cut into many
// frames, holds the same peers on the same paths, passes the invariant
// checker, and writes the same section again; its child runs are the
// smallest that hold each node's children, so it holds no parked run.
func TestSectionRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 300, 5_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			c := sectionTree(n)
			buf, cuts := c.AppendSection(nil, nil, 2*maxItem)
			if len(buf) > c.SectionBound() {
				t.Fatalf("a section of %d bytes over its bound of %d", len(buf), c.SectionBound())
			}
			fs := frames(buf, cuts)
			for i, f := range fs {
				if len(f) > 2*maxItem {
					t.Fatalf("frame %d of %d bytes", i, len(f))
				}
			}
			seen := make(map[int32]*Record)
			got, err := ReadSection(fs, func(slot int32, rec *Record) {
				seen[slot] = rec
			})
			if err != nil {
				t.Fatal(err)
			}
			for slot, rec := range seen {
				if got.Record(slot) != rec {
					t.Fatalf("peer %d handed with slot %d", rec.ID, slot)
				}
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if len(seen) != n || got.Len() != n || got.NumNodes() != c.NumNodes() {
				t.Fatalf("read %d peers (%d handed) and %d nodes, want %d and %d", got.Len(), len(seen), got.NumNodes(), n, c.NumNodes())
			}
			if want, have := peerPaths(c), peerPaths(got); fmt.Sprint(want) != fmt.Sprint(have) {
				t.Fatal("the tree read back holds other peers or paths")
			}
			if a := got.ArenaStats(); a.FreeRecords != 0 || a.FreeAddrBytes >= addrChunk {
				t.Fatalf("a read tree holds parked records or address runs: %+v", a)
			}
			again, _ := got.AppendSection(nil, nil, 2*maxItem)
			if !bytes.Equal(buf, again) {
				t.Fatal("the tree read back writes another section")
			}
			h, err := ParseSectionHeader(buf)
			if err != nil || h != (SectionHeader{9, len(fs), c.NumNodes(), n}) {
				t.Fatalf("header %+v (%v)", h, err)
			}
		})
	}
}

// item helpers write a section by hand, for the refusals below.
type handSection struct {
	buf          []byte
	nodes, peers int
}

func (s *handSection) node(r topology.NodeID, kids, peers int) *handSection {
	s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(r))
	s.buf = binary.AppendUvarint(binary.AppendUvarint(s.buf, uint64(kids)), uint64(peers))
	s.nodes++
	return s
}

func (s *handSection) peer(id PeerID, flags byte, addr string) *handSection {
	s.buf = binary.BigEndian.AppendUint64(s.buf, uint64(id))
	s.buf = binary.BigEndian.AppendUint64(s.buf, 1)
	s.buf = append(s.buf, flags)
	if flags&flagInline != 0 {
		s.buf = append(s.buf, 10, 0, 0, 1, 0, 80)
	} else {
		s.buf = append(binary.AppendUvarint(s.buf, uint64(len(addr))), addr...)
	}
	s.peers++
	return s
}

// frame is the section as one frame under landmark lm.
func (s *handSection) frame(lm topology.NodeID) [][]byte {
	h := binary.BigEndian.AppendUint32(nil, uint32(lm))
	h = binary.BigEndian.AppendUint32(h, 1)
	h = binary.BigEndian.AppendUint32(h, uint32(s.nodes))
	h = binary.BigEndian.AppendUint32(h, uint32(s.peers))
	return [][]byte{append(h, s.buf...)}
}

func hand() *handSection { return &handSection{} }

// TestSectionRefuses pins what ReadSection refuses: everything that would
// leave a tree CheckInvariants fails, or one that a path ValidatePath
// refuses could have built.
func TestSectionRefuses(t *testing.T) {
	deep := hand().node(9, 1, 0)
	for d := 1; d <= MaxDepth+1; d++ {
		kids := 1
		if d == MaxDepth+1 {
			kids = 0
		}
		deep.node(topology.NodeID(100+d), kids, 1-kids)
		if kids == 0 {
			deep.peer(1, 0, "")
		}
	}
	good := hand().node(9, 2, 1).peer(5, 0, "").node(10, 0, 1).peer(1, flagInline, "").node(11, 0, 1).peer(2, 0, "x")
	if c, err := ReadSection(good.frame(9), nil); err != nil || c.CheckInvariants() != nil {
		t.Fatalf("the well-formed case is refused: %v", err)
	}
	cut := good.frame(9)[0]
	short := hand().node(9, 2, 0).node(10, 0, 1).peer(1, 0, "")
	short.nodes++ // the header counts the child that never comes
	// over's nodes promise more children than its header counts: once the
	// count is read, a last node claims a child run no section could fill.
	over := hand().node(9, 2, 0).node(10, 1, 0).node(11, 0, 1).peer(1, 0, "").node(12, 1<<40, 0)
	over.nodes--
	for name, fs := range map[string][][]byte{
		"deeper than MaxDepth":    deep.frame(9),
		"repeat on a path":        hand().node(9, 1, 0).node(10, 1, 0).node(10, 0, 1).peer(1, 0, "").frame(9),
		"the landmark repeated":   hand().node(9, 1, 0).node(9, 0, 1).peer(1, 0, "").frame(9),
		"anonymous router":        hand().node(9, 1, 0).node(topology.InvalidNode, 0, 1).peer(1, 0, "").frame(9),
		"siblings out of order":   hand().node(9, 2, 0).node(11, 0, 1).peer(1, 0, "").node(10, 0, 1).peer(2, 0, "").frame(9),
		"siblings repeat":         hand().node(9, 2, 0).node(10, 0, 1).peer(1, 0, "").node(10, 0, 1).peer(2, 0, "").frame(9),
		"empty node":              hand().node(9, 1, 0).node(10, 0, 0).frame(9),
		"other landmark":          good.frame(8),
		"peers out of order":      hand().node(9, 0, 2).peer(2, 0, "").peer(1, 0, "").frame(9),
		"peer twice at a node":    hand().node(9, 0, 2).peer(1, 0, "").peer(1, 0, "").frame(9),
		"unknown flag":            hand().node(9, 0, 1).peer(1, 4, "").frame(9),
		"address over the cap":    hand().node(9, 0, 1).peer(1, 0, strings.Repeat("a", codec.MaxAddrLen+1)).frame(9),
		"endpoint held as text":   hand().node(9, 0, 1).peer(1, 0, "10.0.0.1:80").frame(9),
		"children short":          short.frame(9),
		"children past the count": over.frame(9),
		"a node past the last":    hand().node(9, 1, 0).node(10, 0, 1).peer(1, 0, "").node(11, 0, 1).peer(2, 0, "").frame(9),
		"item cut by the frame":   [][]byte{cut[:len(cut)-1]},
		"frames other than said":  {cut, hand().node(12, 0, 1).buf},
		"counts over the bytes":   {append(binary.BigEndian.AppendUint32(cut[:12:12], 1<<30), cut[16:]...)},
		"peers short of the head": {append(binary.BigEndian.AppendUint32(cut[:12:12], 4), cut[16:]...)},
	} {
		if c, err := ReadSection(fs, nil); err == nil {
			t.Errorf("%s: read, with invariants %v", name, c.CheckInvariants())
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// FuzzSection feeds arbitrary bytes to the section reader, cut into two
// frames at cut when it falls inside them. Whatever it takes must leave a
// tree whose invariants hold and that writes a section it reads back.
func FuzzSection(f *testing.F) {
	real, _ := sectionTree(300).AppendSection(nil, nil, 1<<20)
	f.Add(real, uint32(0))
	f.Add(real, uint32(len(real)/2))
	empty, _ := NewCore(9).AppendSection(nil, nil, 1<<20)
	f.Add(empty, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
		fs := [][]byte{data}
		if cut > sectionHeaderLen && int(cut) < len(data) {
			fs = [][]byte{data[:cut], data[cut:]}
		}
		c, err := ReadSection(fs, nil)
		if err != nil {
			return
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("a section read into a broken tree: %v", err)
		}
		buf, cuts := c.AppendSection(nil, nil, 1<<20)
		again, err := ReadSection(frames(buf, cuts), nil)
		if err != nil {
			t.Fatalf("the tree's own section is refused: %v", err)
		}
		if fmt.Sprint(peerPaths(c)) != fmt.Sprint(peerPaths(again)) {
			t.Fatal("the tree's own section reads back as another tree")
		}
	})
}
