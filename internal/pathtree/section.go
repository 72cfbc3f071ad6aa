package pathtree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// A section is one tree as a checkpoint holds it: the trie itself, not the
// joins that built it, so loading it descends no path and parses no
// address. Big-endian, in order:
//
//	section = header item...
//	header  = landmark(4) frames(4) nodes(4) peers(4)
//	item    = node | peer
//	node    = router(4) kids(uvarint) peers(uvarint)
//	peer    = id(8) refresh(8) flags(1) address
//	address = ip(4) port(2)              (flags has flagInline)
//	        | length(uvarint) text       (otherwise; at most codec.MaxAddrLen bytes)
//
// The nodes come depth-first from the landmark's, which is the first, each
// node's children in ascending router order, and the peers attached at a
// node follow it in ascending ID order. A node's item says how many
// children and peers it has, so the reader places each node in its parent's
// child run, allocated at its final size when the parent was read, and
// knows where the section ends. An IPv4 endpoint held in its record goes as
// its 6 bytes, any other address as its text. The content is a function of
// the tree alone, so trees holding equal peers on equal paths write equal
// sections. A checkpoint stream cuts a section into frames (package op)
// between two items, never inside one: the header says how many, and the
// reader decodes each frame as it stands.
//
// This file is the only place that knows the layout: AppendSection writes a
// section and ReadSection builds a tree from one.

const (
	sectionHeaderLen = 16
	// maxItem is the longest item: a peer with a text address of the cap.
	maxItem = 8 + 8 + 1 + 2 + codec.MaxAddrLen
	// maxNodeItem is the longest node item and minNodeItem the shortest;
	// MinPeerItem is the shortest peer item.
	maxNodeItem = 4 + 2*binary.MaxVarintLen32
	minNodeItem = 4 + 1 + 1

	flagSuper  = 1 << 0
	flagInline = 1 << 1
)

// MinPeerItem is the fewest bytes a peer takes of a section: what bounds how
// many peers a file of a given size can hold, whatever its totals claim.
const MinPeerItem = 8 + 8 + 1 + 1

// SectionHeader is what opens a section: the tree's landmark, the frames the
// section spans and the nodes (the landmark's included) and peers it holds.
type SectionHeader struct {
	Landmark             topology.NodeID
	Frames, Nodes, Peers int
}

// ParseSectionHeader reads the header at the start of a section's first
// frame.
func ParseSectionHeader(frame []byte) (SectionHeader, error) {
	if len(frame) < sectionHeaderLen {
		return SectionHeader{}, fmt.Errorf("pathtree: section header of %d bytes", len(frame))
	}
	be := binary.BigEndian
	h := SectionHeader{Landmark: topology.NodeID(be.Uint32(frame[0:]))}
	counts := [...]*int{&h.Frames, &h.Nodes, &h.Peers}
	for i, n := range counts {
		v := be.Uint32(frame[4+4*i:])
		if v > 1<<31-1 {
			return SectionHeader{}, fmt.Errorf("pathtree: section count %d out of range", v)
		}
		*n = int(v)
	}
	if h.Frames == 0 || h.Nodes == 0 {
		return SectionHeader{}, fmt.Errorf("pathtree: section of %d frames and %d nodes", h.Frames, h.Nodes)
	}
	return h, nil
}

// SectionBound is at most the bytes of the tree's section, read from the
// pools' counters: what a writer sizes its buffer by.
func (c *Core) SectionBound() int {
	live := int(c.addrs.carved - c.addrs.freeN) // at least the text addresses' bytes
	return sectionHeaderLen + int(c.live+1)*maxNodeItem + c.Len()*(8+8+1+6) + live
}

// NumNodes counts the trie's nodes, the landmark's included.
func (c *Core) NumNodes() int { return int(c.live) + 1 }

// AppendSection appends the tree's section to buf and returns it, with the
// offset in it of every frame of the section after the first appended to
// cuts: no frame is longer than maxFrame bytes, which must exceed maxItem.
// The caller has the tree to itself, as it would to modify it.
func (c *Core) AppendSection(buf []byte, cuts []int, maxFrame int) ([]byte, []int) {
	be := binary.BigEndian
	start, first := len(buf), len(cuts)
	buf = be.AppendUint32(buf, uint32(c.landmark))
	buf = be.AppendUint32(buf, 0) // the frames, once counted
	buf = be.AppendUint32(buf, uint32(c.NumNodes()))
	buf = be.AppendUint32(buf, uint32(c.Len()))
	frame := start
	// item cuts a frame before an item that might not fit in it.
	item := func() {
		if len(buf)-frame > maxFrame-maxItem {
			frame = len(buf)
			cuts = append(cuts, frame)
		}
	}
	// A preorder walk: a node's children are pushed in descending router
	// order, so the smallest is visited next. The stack holds the siblings
	// of every node on the path to the one visited: it outgrows its first
	// array, which costs nothing, only below a router with hundreds of
	// children.
	stack, peers := make([]int32, 0, 512), make([]int32, 0, 16)
	for stack = append(stack, root); len(stack) > 0; {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := c.nodes.at(m)
		peers = peers[:0]
		for s := n.firstPeer; s != none; s = c.recs.at(s).next {
			peers = append(peers, s)
		}
		if len(peers) > 1 {
			slices.SortFunc(peers, func(a, b int32) int { return cmp.Compare(c.recs.at(a).ID, c.recs.at(b).ID) })
		}
		item()
		buf = be.AppendUint32(buf, uint32(n.router))
		buf = binary.AppendUvarint(buf, uint64(n.kidsLen))
		buf = binary.AppendUvarint(buf, uint64(len(peers)))
		for _, s := range peers {
			item()
			buf = c.appendPeer(buf, c.recs.at(s))
		}
		kids := len(stack)
		for j := range n.kidsLen {
			stack = append(stack, n.kidsOff+j)
		}
		if n.kidsLen > 1 {
			slices.SortFunc(stack[kids:], func(a, b int32) int { return cmp.Compare(c.nodes.at(b).router, c.nodes.at(a).router) })
		}
	}
	be.PutUint32(buf[start+4:], uint32(len(cuts)-first+1))
	return buf, cuts
}

// appendPeer appends rec's item.
func (c *Core) appendPeer(buf []byte, rec *Record) []byte {
	be := binary.BigEndian
	buf = be.AppendUint64(buf, uint64(rec.ID))
	buf = be.AppendUint64(buf, uint64(rec.RefreshNanos))
	var flags byte
	if rec.Super {
		flags |= flagSuper
	}
	if rec.inline {
		flags |= flagInline
		buf = append(buf, flags)
		buf = be.AppendUint32(buf, uint32(rec.addr))
		return be.AppendUint16(buf, rec.addrLen)
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(rec.addrLen))
	if rec.addrLen == 0 {
		return buf
	}
	return append(buf, c.addrs.run(rec.addr, int(rec.addrLen))...)
}

// errSectionShort reports an item cut by a frame's end.
var errSectionShort = errors.New("pathtree: section item cut short")

// ReadSection builds a tree from a section's frames, and hands fn each
// peer's slot and record as it is placed; fn's error ends the build. It
// allocates every child run at its final size class, descends no path and
// parses no IPv4 endpoint. What it refuses is what would leave a tree
// whose CheckInvariants fails, or one that a peer's path ValidatePath
// refuses could have built: frames or counts other than the header's, an
// item cut by a frame's end or bytes past the last node; a first node that
// is not the landmark, a node deeper than MaxDepth, an anonymous router or
// one that repeats on its path from the landmark, siblings out of order, a
// node other than the landmark's with neither child nor peer; peers out of
// order at a node, an unknown flag, an address over codec.MaxAddrLen or a
// text one in the form a record holds inline. That no peer repeats across
// the tree is the caller's to check (fn sees each one).
func ReadSection(frames [][]byte, fn func(slot int32, rec *Record) error) (*Core, error) {
	if len(frames) == 0 {
		return nil, errors.New("pathtree: section of no frames")
	}
	h, err := ParseSectionHeader(frames[0])
	if err != nil {
		return nil, err
	}
	size := 0
	for _, f := range frames {
		size += len(f)
	}
	switch {
	case h.Frames != len(frames):
		return nil, fmt.Errorf("pathtree: section of %d frames says %d", len(frames), h.Frames)
	case h.Nodes*minNodeItem+h.Peers*MinPeerItem > size:
		return nil, fmt.Errorf("pathtree: %d bytes cannot hold %d nodes and %d peers", size, h.Nodes, h.Peers)
	case h.Landmark == topology.InvalidNode:
		return nil, errors.New("pathtree: section of the anonymous router")
	}
	d := sectionReader{c: NewCore(h.Landmark), h: h, fn: fn}
	d.c.recs.chunks = make([]*[slabSize]Record, 0, (h.Peers+slabSize-1)/slabSize)
	for i, f := range frames {
		if i == 0 {
			f = f[sectionHeaderLen:]
		}
		for len(f) > 0 {
			if f, err = d.item(f); err != nil {
				return nil, err
			}
		}
	}
	if d.owed > 0 {
		return nil, fmt.Errorf("pathtree: section ends %d children short", d.owed)
	}
	if d.nodes != h.Nodes || d.peers != h.Peers || d.want > 0 {
		return nil, fmt.Errorf("pathtree: section holds %d nodes and %d peers, its header says %d and %d",
			d.nodes, d.peers, h.Nodes, h.Peers)
	}
	return d.c, nil
}

// sectionReader is ReadSection's state between items.
type sectionReader struct {
	c  *Core
	h  SectionHeader
	fn func(int32, *Record) error
	// stack holds the path from the landmark to the last node read, each
	// with the children it still expects.
	stack        []pathEntry
	owed         int   // the children the stack's nodes still expect
	at           int32 // the node the next peers attach at
	want         int   // the peers still to come at it
	last         PeerID
	nodes, peers int
}

type pathEntry struct {
	node int32
	left int32
}

// item reads the next item off f and returns what follows it.
func (d *sectionReader) item(f []byte) ([]byte, error) {
	if d.want > 0 {
		return d.peer(f)
	}
	if len(f) < 4 {
		return nil, errSectionShort
	}
	r := topology.NodeID(binary.BigEndian.Uint32(f))
	kids, n := binary.Uvarint(f[4:])
	if n <= 0 {
		return nil, errSectionShort
	}
	peers, m := binary.Uvarint(f[4+n:])
	if m <= 0 {
		return nil, errSectionShort
	}
	f = f[4+n+m:]
	c := d.c
	at := root
	if d.nodes == 0 {
		if r != c.landmark {
			return nil, fmt.Errorf("pathtree: section of landmark %d opens at router %d", c.landmark, r)
		}
	} else {
		for len(d.stack) > 0 && d.stack[len(d.stack)-1].left == 0 {
			d.stack = d.stack[:len(d.stack)-1]
		}
		if len(d.stack) == 0 {
			return nil, errors.New("pathtree: bytes after the section's last node")
		}
		if r == topology.InvalidNode {
			return nil, errors.New("pathtree: anonymous router in a section")
		}
		for _, e := range d.stack {
			if c.nodes.at(e.node).router == r {
				return nil, fmt.Errorf("pathtree: router %d repeats on its path from landmark %d", r, c.landmark)
			}
		}
		if kids == 0 && peers == 0 {
			return nil, fmt.Errorf("pathtree: router %d has neither child nor peer", r)
		}
		top := &d.stack[len(d.stack)-1]
		pn := c.nodes.at(top.node)
		if pn.depth == MaxDepth {
			return nil, fmt.Errorf("pathtree: router %d lies deeper than %d hops", r, MaxDepth)
		}
		if pn.kidsLen > 0 && c.nodes.at(pn.kidsOff+pn.kidsLen-1).router >= r {
			return nil, fmt.Errorf("pathtree: router %d out of order among router %d's children", r, pn.router)
		}
		at = pn.kidsOff + pn.kidsLen
		if pn.keySlots() > 0 {
			c.keys(pn)[pn.kidsLen] = r
		}
		pn.kidsLen++
		top.left--
		d.owed--
		c.live++
		*c.nodes.at(at) = node{router: r, parent: top.node, depth: pn.depth + 1, firstPeer: none}
	}
	// Every node the header counts is read, owed to a node read, or not yet
	// claimed: a node claims no more children than are left unclaimed, so
	// no child run outgrows the section.
	if kids > uint64(d.h.Nodes-d.nodes-1-d.owed) || peers > uint64(d.h.Peers-d.peers) {
		return nil, fmt.Errorf("pathtree: node %d counts %d children and %d peers past the header's", r, kids, peers)
	}
	d.nodes++
	d.owed += int(kids)
	if kids > 0 {
		class := 0
		for int64(runCap(class)) < int64(kids) {
			class++
		}
		off := c.nodes.alloc(class) + runKeys(class)
		n := c.nodes.at(at)
		n.kidsOff, n.kidsLog = off, uint8(class+1)
	}
	d.stack = append(d.stack, pathEntry{at, int32(kids)})
	d.at, d.want = at, int(peers)
	return f, nil
}

// peer reads a peer's item off f, places its record at d.at, and returns
// what follows it.
func (d *sectionReader) peer(f []byte) ([]byte, error) {
	be := binary.BigEndian
	if len(f) < 8+8+1 {
		return nil, errSectionShort
	}
	c := d.c
	n := c.nodes.at(d.at)
	id, flags := PeerID(be.Uint64(f)), f[16]
	if n.firstPeer != none && id <= d.last {
		return nil, fmt.Errorf("pathtree: peer %d out of order at router %d", id, n.router)
	}
	if flags&^(flagSuper|flagInline) != 0 {
		return nil, fmt.Errorf("pathtree: peer %d has flags %#x", id, flags)
	}
	slot := c.recs.carve()
	rec := c.recs.at(slot)
	*rec = Record{ID: id, RefreshNanos: int64(be.Uint64(f[8:])), Super: flags&flagSuper != 0, node: d.at, next: n.firstPeer}
	f = f[17:]
	if flags&flagInline != 0 {
		if len(f) < 6 {
			return nil, errSectionShort
		}
		rec.addr, rec.addrLen, rec.inline = int32(be.Uint32(f)), be.Uint16(f[4:]), true
		f = f[6:]
	} else {
		l, k := binary.Uvarint(f)
		if k <= 0 || l > uint64(len(f)-k) {
			return nil, errSectionShort
		}
		text := f[k : k+int(l)]
		if l > codec.MaxAddrLen {
			return nil, fmt.Errorf("pathtree: peer %d's address of %d bytes", id, l)
		}
		if _, _, ok := parseEndpoint(string(text)); ok {
			return nil, fmt.Errorf("pathtree: peer %d's address %q held as text", id, text)
		}
		if rec.addrLen = uint16(l); l > 0 {
			rec.addr = c.addrs.alloc(addrClass(int(l)))
			copy(c.addrs.run(rec.addr, int(l)), text)
		}
		f = f[k+int(l):]
	}
	n.peer, n.more, n.firstPeer = id, n.firstPeer != none, slot
	d.last = id
	d.want--
	d.peers++
	if d.fn != nil {
		if err := d.fn(slot, rec); err != nil {
			return nil, err
		}
	}
	return f, nil
}
