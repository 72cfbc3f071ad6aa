package pathtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"unsafe"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// Pool geometry. Records are carved from chunks of slabSize slots, trie
// nodes from chunks of nodeChunk slots, address bytes from chunks of
// addrChunk bytes; a chunk is never reallocated, so growing a tree copies
// nothing and its slack is at most one chunk per pool. Nodes take runs of
// power-of-two sizes (a node's children are one run) and text addresses
// runs in addrStep-byte size classes — the Go allocator's own small-size
// step, so an address costs no more here than as a string of its own — up
// to codec.MaxAddrLen. An IPv4 endpoint takes no run: its record holds it.
const (
	slabShift   = 8
	slabSize    = 1 << slabShift
	nodeShift   = 8
	nodeChunk   = 1 << nodeShift
	addrShift   = 13
	addrChunk   = 1 << addrShift
	addrStep    = 8
	addrClasses = codec.MaxAddrLen / addrStep

	// keyClass is the smallest size class of child run that keeps its
	// children's routers densely at its head: an eighth of the run, ahead
	// of the first child. A descent then scans 4 bytes per child of a
	// router with many children, not the 32 of a node.
	keyClass = 6

	none int32 = -1 // the nil index
	root int32 = 0  // the landmark's node, carved first, in a run of its own
)

// node is one router of the trie: 32 bytes, no pointers, every link an
// index into one of the tree's pools. A node with no peer attached and no
// child is pruned, so every node but the root has a peer in its subtree.
type node struct {
	// peer is the ID of the record firstPeer names, so a query reads no
	// record at a node holding one peer; more says the chain holds others.
	peer PeerID
	// router is the router this node stands for; topology.InvalidNode,
	// which no validated path holds, marks a slot holding no node.
	router topology.NodeID
	// parent is the node one hop closer to the landmark (none at the root);
	// in the first slot of a parked run it is the free list's link.
	parent int32
	// firstPeer heads the chain of records attached exactly here (their
	// path ends at this router), linked through Record.next.
	firstPeer int32
	// kidsOff and kidsLen locate the node's children: the first kidsLen of
	// kidsCap() slots starting at kidsOff, in no order. They are the tail
	// of the node's child run; its first keySlots() slots hold the routers.
	kidsOff, kidsLen int32
	// depth is the distance from the landmark in hops: ValidatePath caps a
	// path at codec.MaxPathLen routers, so it is at most 255.
	depth uint8
	// kidsLog is 0 when the node owns no child run, else 1 + the run's size
	// class: the run is 1<<(kidsLog-1) slots.
	kidsLog uint8
	more    bool
}

// runCap is the number of children a child run of the given size class
// holds: all its slots but those holding router keys.
func runCap(class int) int32 { return 1<<class - runKeys(class) }

// runKeys is the number of slots a child run of the given size class
// spends on its children's routers: an eighth from keyClass on.
func runKeys(class int) int32 {
	if class < keyClass {
		return 0
	}
	return 1 << class >> 3
}

// kidsCap is the number of children n's child run holds.
func (n *node) kidsCap() int32 {
	if n.kidsLog == 0 {
		return 0
	}
	return runCap(int(n.kidsLog) - 1)
}

// keySlots is the number of slots ahead of n's first child that hold its
// children's routers.
func (n *node) keySlots() int32 { return runKeys(int(n.kidsLog) - 1) }

// vacant is what a slot holding no node reads: slack at the end of a child
// run, or part of a parked run.
var vacant = node{router: topology.InvalidNode, parent: none, firstPeer: none}

// Record is the one record a tree holds per resident peer: everything the
// management server keeps about the peer apart from its path, which is the
// parent chain of the node the record hangs off. The trie reads ID and its
// own two links; RefreshNanos, Super and the address are the caller's, zero
// on a fresh record. SetAddr writes the address and AppendAddr reads it: an
// IPv4 endpoint in its canonical form is held in the record itself, any
// other address in the tree's address pool, so a record is 32 bytes and
// holds no pointer.
type Record struct {
	// ID is the peer. Join sets it and the node the record hangs off keeps a
	// copy, so the caller must not change it.
	ID PeerID
	// RefreshNanos is the time of the last join or refresh, in Unix
	// nanoseconds.
	RefreshNanos int64
	// addr and addrLen hold the address in the form inline names. Inline,
	// addr is the IPv4 address's bits and addrLen the port. Otherwise addr
	// is the offset in the address pool of the run holding the text, and
	// addrLen its length; an empty address owns no run.
	addr int32
	// node is the trie node the peer is attached at (none while the record
	// is free); next links the records attached at one node, and the free
	// list.
	node, next int32
	addrLen    uint16
	// Super marks a super-peer.
	Super  bool
	inline bool
}

// slab is a pool of fixed-size slots carved from chunks and addressed by
// index.
type slab[T any] struct {
	chunks []*[slabSize]T
	carved int32 // slots handed out so far, free ones included
	free   int32 // head of the free list (none when empty)
	freeN  int32
}

func (s *slab[T]) at(i int32) *T { return &s.chunks[i>>slabShift][i&(slabSize-1)] }

// carve returns a never-used slot, opening a chunk when the last is full.
func (s *slab[T]) carve() int32 {
	if int(s.carved)>>slabShift == len(s.chunks) {
		s.chunks = append(s.chunks, new([slabSize]T))
	}
	s.carved++
	return s.carved - 1
}

// nodePool hands out runs of node slots in power-of-two sizes, so that a
// node's children sit side by side. Freed runs wait on a free list per size
// and are reused whole; nothing is split or merged, so a run's size class
// never changes. A slot carved holds a node or router keys, or reads vacant.
type nodePool struct {
	// chunks[i] starts at pool offset i<<nodeShift. A run longer than one
	// chunk owns consecutive entries, each a suffix of one allocation, so
	// slicing from its first entry reaches the whole run.
	chunks [][]node
	carved int32     // slots handed out so far, parked ones included
	free   [31]int32 // per size class, linked through the first slot's parent
	freeN  int32     // slots in parked runs
}

func (p *nodePool) at(i int32) *node { return &p.chunks[i>>nodeShift][i&(nodeChunk-1)] }

func (p *nodePool) run(off, n int32) []node {
	return p.chunks[off>>nodeShift][off&(nodeChunk-1):][:n]
}

// alloc returns the offset of a run of 1<<class vacant slots.
func (p *nodePool) alloc(class int) int32 {
	size := int32(1) << class
	if off := p.free[class]; off != none {
		head := p.at(off)
		p.free[class], head.parent = head.parent, none
		p.freeN -= size
		return off
	}
	if end := int32(len(p.chunks)) << nodeShift; end-p.carved < size {
		// Park what is left of the current chunk on the free lists, largest
		// piece first, and open a chunk (or, for a run that outgrows one, a
		// region of whole chunks).
		for left := end - p.carved; left > 0; left = end - p.carved {
			piece := bits.Len32(uint32(left)) - 1
			p.release(p.carved, piece)
			p.carved += 1 << piece
		}
		region := make([]node, max(size, nodeChunk))
		for i := range region {
			region[i] = vacant
		}
		for o := 0; o < len(region); o += nodeChunk {
			p.chunks = append(p.chunks, region[o:])
		}
	}
	p.carved += size
	return p.carved - size
}

// release parks a run of vacant slots on its size class's free list.
func (p *nodePool) release(off int32, class int) {
	p.at(off).parent = p.free[class]
	p.free[class] = off
	p.freeN += 1 << class
}

// addrPool hands out byte runs for addresses, one size class per addrStep
// bytes. As in nodePool, freed runs wait on a free list per class and are
// reused whole; an address run never straddles two chunks.
type addrPool struct {
	chunks []*[addrChunk]byte
	carved int32              // bytes handed out so far, free ones included
	free   [addrClasses]int32 // per size class, linked through a run's first 4 bytes
	freeN  int32              // bytes on the free lists
}

// addrClass is the size class of an n-byte address, 0 < n ≤ codec.MaxAddrLen;
// its runs are (class+1)·addrStep bytes.
func addrClass(n int) int { return (n - 1) / addrStep }

func (p *addrPool) run(off int32, n int) []byte {
	return p.chunks[off>>addrShift][off&(addrChunk-1):][:n]
}

// alloc returns the offset of a run of the given class.
func (p *addrPool) alloc(class int) int32 {
	size := int32(class+1) * addrStep
	if off := p.free[class]; off != none {
		p.free[class] = int32(binary.LittleEndian.Uint32(p.run(off, 4)))
		p.freeN -= size
		return off
	}
	if end := int32(len(p.chunks)) << addrShift; end-p.carved < size {
		// Park the rest of the current chunk as one run and open a chunk.
		if left := end - p.carved; left > 0 {
			p.release(p.carved, int(left/addrStep)-1)
		}
		p.chunks = append(p.chunks, new([addrChunk]byte))
		p.carved = end
	}
	p.carved += size
	return p.carved - size
}

// release parks a run on its class's free list.
func (p *addrPool) release(off int32, class int) {
	binary.LittleEndian.PutUint32(p.run(off, 4), uint32(p.free[class]))
	p.free[class] = off
	p.freeN += int32(class+1) * addrStep
}

// Core is the per-landmark path prefix tree, keyed by slot: Join returns
// the slot of the peer's record, and every later call names the peer by it.
// Core takes no lock and keeps no index from peer IDs to slots — both are
// its caller's: calls that modify the tree need exclusive access, queries
// may run concurrently with each other. Tree is the locked, ID-keyed form.
type Core struct {
	landmark topology.NodeID
	nodes    nodePool
	live     int32 // trie nodes below the root
	recs     slab[Record]
	addrs    addrPool
}

// NewCore returns an empty tree for the given landmark router.
func NewCore(landmark topology.NodeID) *Core {
	c := &Core{landmark: landmark}
	c.recs.free = none
	for i := range c.nodes.free {
		c.nodes.free[i] = none
	}
	for i := range c.addrs.free {
		c.addrs.free[i] = none
	}
	*c.nodes.at(c.nodes.alloc(0)) = node{router: landmark, parent: none, firstPeer: none}
	return c
}

// Landmark returns the landmark router this tree is rooted at.
func (c *Core) Landmark() topology.NodeID { return c.landmark }

// Len reports the number of peers currently in the tree.
func (c *Core) Len() int { return int(c.recs.carved - c.recs.freeN) }

// Record returns the record in slot, for the caller to read or to set the
// fields that are its own. The pointer is good until the slot is removed.
func (c *Core) Record(slot int32) *Record { return c.recs.at(slot) }

// SetAddr sets addr as the address of rec, a live record of this tree, and
// frees the run the old address held (which a new text address of the same
// size class takes straight back). An IPv4 endpoint in the canonical form
// parseEndpoint takes is held in the record; any other address is copied
// into the pool. addr is at most codec.MaxAddrLen bytes: the caller checks
// that where the address enters.
func (c *Core) SetAddr(rec *Record, addr string) {
	if !rec.inline && rec.addrLen > 0 {
		c.addrs.release(rec.addr, addrClass(int(rec.addrLen)))
	}
	if ip, port, ok := parseEndpoint(addr); ok {
		rec.addr, rec.addrLen, rec.inline = int32(ip), port, true
		return
	}
	rec.inline = false
	if rec.addrLen = uint16(len(addr)); len(addr) > 0 {
		rec.addr = c.addrs.alloc(addrClass(len(addr)))
		copy(c.addrs.run(rec.addr, len(addr)), addr)
	}
}

// AppendAddr appends rec's address to dst, byte for byte as SetAddr was
// handed it, and returns the extended slice. It reads the pool only for a
// text address: an inline one is formatted from the record.
func (c *Core) AppendAddr(dst []byte, rec *Record) []byte {
	if rec.inline {
		return appendEndpoint(dst, uint32(rec.addr), rec.addrLen)
	}
	if rec.addrLen == 0 {
		return dst
	}
	return append(dst, c.addrs.run(rec.addr, int(rec.addrLen))...)
}

// MaxEndpointLen is the longest address a record holds inline.
const MaxEndpointLen = len("255.255.255.255:65535")

// parseEndpoint reads s as an IPv4 endpoint in the one form appendEndpoint
// writes back byte for byte: four decimal octets of at most 255, dot
// separated, a colon and a decimal port of at most 65535, no number with a
// leading zero and nothing else. ok is false for anything else, which stays
// text.
func parseEndpoint(s string) (ip uint32, port uint16, ok bool) {
	if len(s) > MaxEndpointLen {
		return 0, 0, false
	}
	i := 0
	for _, sep := range [...]byte{'.', '.', '.', ':'} {
		v, j := decimal(s, i)
		if j == i || v > 255 || j == len(s) || s[j] != sep {
			return 0, 0, false
		}
		ip, i = ip<<8|v, j+1
	}
	v, j := decimal(s, i)
	return ip, uint16(v), j > i && j == len(s) && v <= 0xffff
}

// decimal reads the number of at most five digits, without a leading zero,
// that starts s[i:], and returns it and the index past it: j == i when
// there is none.
func decimal(s string, i int) (v uint32, j int) {
	for j = i; j < len(s) && j-i < 5 && s[j]-'0' <= 9; j++ {
		v = v*10 + uint32(s[j]-'0')
	}
	if j-i > 1 && s[i] == '0' {
		return 0, i
	}
	return v, j
}

// octetText[v] is octet v's decimal digits and a dot, packed little-endian
// in the low four bytes, with their length in the fifth.
var octetText = func() (t [256]uint64) {
	for v := range t {
		text := fmt.Sprintf("%d.", v)
		var b [8]byte
		copy(b[:], text)
		b[4] = byte(len(text))
		t[v] = binary.LittleEndian.Uint64(b[:])
	}
	return t
}()

// digitPairs[v] is v's two decimal digits, 0 ≤ v < 100, packed
// little-endian.
var digitPairs = func() (t [100]uint16) {
	for v := range t {
		t[v] = uint16('0'+v/10) | uint16('0'+v%10)<<8
	}
	return t
}()

// appendEndpoint appends the canonical text of an IPv4 endpoint to dst.
// Each octet is one table load and one 4-byte store, the next store
// overwriting what lies past the dot; the port is one to three stores.
func appendEndpoint(dst []byte, ip uint32, port uint16) []byte {
	n := len(dst)
	dst = slices.Grow(dst, MaxEndpointLen)
	b := dst[n : n+MaxEndpointLen]
	i := 0
	for shift := 24; shift >= 0; shift -= 8 {
		t := octetText[ip>>shift&255]
		binary.LittleEndian.PutUint32(b[i:], uint32(t))
		i += int(t >> 32)
	}
	b[i-1] = ':'
	le := binary.LittleEndian
	switch v := uint(port); {
	case v >= 10_000:
		q := v / 10_000
		b[i] = '0' + byte(q)
		v -= q * 10_000
		le.PutUint16(b[i+1:], digitPairs[v/100])
		le.PutUint16(b[i+3:], digitPairs[v%100])
		i += 5
	case v >= 1_000:
		le.PutUint16(b[i:], digitPairs[v/100])
		le.PutUint16(b[i+2:], digitPairs[v%100])
		i += 4
	case v >= 100:
		b[i] = '0' + byte(v/100)
		le.PutUint16(b[i+1:], digitPairs[v%100])
		i += 3
	case v >= 10:
		le.PutUint16(b[i:], digitPairs[v])
		i += 2
	default:
		b[i] = '0' + byte(v)
		i++
	}
	return dst[:n+i]
}

// Holds reports whether slot is the live record of peer p: the check for a
// caller whose slot number may have outlived the record it named.
func (c *Core) Holds(slot int32, p PeerID) bool {
	if slot < 0 || slot >= c.recs.carved {
		return false
	}
	rec := c.recs.at(slot)
	return rec.node != none && rec.ID == p
}

// Records iterates over every resident peer's slot and record, in slot
// order. The loop body may Remove the slot it was handed.
func (c *Core) Records() iter.Seq2[int32, *Record] {
	return func(yield func(int32, *Record) bool) {
		for slot := int32(0); slot < c.recs.carved; slot++ {
			if rec := c.recs.at(slot); rec.node != none && !yield(slot, rec) {
				return
			}
		}
	}
}

// ValidatePath checks a reported peer→landmark router path: 1 to
// codec.MaxPathLen routers, ending at the landmark, none anonymous or repeated.
// Core trusts its caller to have made this check, once, where a path enters.
func ValidatePath(path []topology.NodeID, landmark topology.NodeID) error {
	if len(path) == 0 || len(path) > codec.MaxPathLen {
		return fmt.Errorf("pathtree: path of %d hops, want 1 to %d", len(path), codec.MaxPathLen)
	}
	if path[len(path)-1] != landmark {
		return fmt.Errorf("pathtree: path ends at router %d, not landmark %d",
			path[len(path)-1], landmark)
	}
	// Paths are short (bounded by the cap above), so a quadratic scan for
	// repeats beats building a set: it allocates nothing on the hot path.
	for i, r := range path {
		if r == topology.InvalidNode {
			return errors.New("pathtree: path contains anonymous router; strip before insert")
		}
		for _, q := range path[:i] {
			if q == r {
				return fmt.Errorf("pathtree: router %d repeats in path", r)
			}
		}
	}
	return nil
}

// kidsOf returns n's children, in no order.
func (c *Core) kidsOf(n *node) []node {
	if n.kidsLen == 0 {
		return nil // a leaf may own no run
	}
	return c.nodes.run(n.kidsOff, n.kidsLen)
}

// keys returns the router keys of n's child run, one per child slot: n
// must have keySlots. The keys are the bytes of the run's first slots.
func (c *Core) keys(n *node) []topology.NodeID {
	head := c.nodes.at(n.kidsOff - n.keySlots())
	return unsafe.Slice((*topology.NodeID)(unsafe.Pointer(head)), n.kidsCap())
}

// releaseKids parks n's child run, once its children are gone or moved.
func (c *Core) releaseKids(n *node) {
	ks := n.keySlots()
	head := c.nodes.run(n.kidsOff-ks, ks)
	for j := range head {
		head[j] = vacant
	}
	c.nodes.release(n.kidsOff-ks, int(n.kidsLog)-1)
}

// descend walks down from the landmark as far as the trie matches the
// reported (peer-side first) path. It returns the node reached and the
// index in path of the first hop the trie lacks (-1 when the whole path
// matched). Each hop scans the reached node's child run: children are
// unsorted, so that an insert appends and a prune fills its hole with the
// run's last node instead of shifting siblings.
func (c *Core) descend(path []topology.NodeID, sc *Scratch) (cur int32, i int) {
	cur = root
hops:
	for i = len(path) - 2; i >= 0; i-- {
		n, r := c.nodes.at(cur), path[i]
		if n.keySlots() > 0 {
			if j := find(c.keys(n)[:n.kidsLen], r); j >= 0 {
				cur = n.kidsOff + int32(j)
				continue
			}
			break
		}
		kids := c.kidsOf(n)
		for j := range kids {
			if kids[j].router == r {
				cur = n.kidsOff + int32(j)
				continue hops
			}
		}
		break
	}
	if sc != nil {
		sc.hops += len(path) - 2 - i
	}
	return cur, i
}

// find returns the index of r in keys, or -1. It tests eight keys a step,
// two to a 64-bit word, with one branch: a word holds r where its xor with
// r has a zero half.
func find(keys []topology.NodeID, r topology.NodeID) int {
	const lo, hi = 0x0000000100000001, 0x8000000080000000
	j, rr := 0, uint64(uint32(r))*lo
	for ; j+8 <= len(keys); j += 8 {
		w := (*[4]uint64)(unsafe.Pointer(&keys[j]))
		a, b, c, d := w[0]^rr, w[1]^rr, w[2]^rr, w[3]^rr
		if ((a-lo)&^a|(b-lo)&^b|(c-lo)&^c|(d-lo)&^d)&hi != 0 {
			break
		}
	}
	for ; j < len(keys); j++ {
		if keys[j] == r {
			return j
		}
	}
	return -1
}

// addChild links a new node for router r at the end of parent's child run,
// moving the run to one of twice the size when it is full.
func (c *Core) addChild(parent int32, r topology.NodeID) int32 {
	pn := c.nodes.at(parent)
	if pn.kidsLen == pn.kidsCap() {
		// The new run's class is one above the old run's: kidsLog itself.
		class := int(pn.kidsLog)
		off := c.nodes.alloc(class) + runKeys(class)
		if pn.kidsLog > 0 {
			old := c.kidsOf(pn)
			copy(c.nodes.run(off, pn.kidsLen), old)
			for j := range old {
				old[j] = vacant
				c.moved(off + int32(j))
			}
			c.releaseKids(pn)
		}
		pn.kidsOff, pn.kidsLog = off, uint8(class+1)
		if pn.keySlots() > 0 {
			keys := c.keys(pn)
			for j, kid := range c.kidsOf(pn) {
				keys[j] = kid.router
			}
		}
	}
	idx := pn.kidsOff + pn.kidsLen
	if pn.keySlots() > 0 {
		c.keys(pn)[pn.kidsLen] = r
	}
	pn.kidsLen++
	c.live++
	*c.nodes.at(idx) = node{router: r, parent: parent, depth: pn.depth + 1, firstPeer: none}
	return idx
}

// moved repoints what links to the node now in slot m — its children's
// parent and its records' node — after the node was copied there.
func (c *Core) moved(m int32) {
	n := c.nodes.at(m)
	for s := n.firstPeer; s != none; {
		rec := c.recs.at(s)
		rec.node = m
		s = rec.next
	}
	kids := c.kidsOf(n)
	for j := range kids {
		kids[j].parent = m
	}
}

// Join attaches peer p at the end of its reported path (peer-side first,
// ending at the landmark) and returns the slot of its record, fresh apart
// from ID. With k > 0 it first answers the newcomer's closest-peers query,
// on the same descent: the walk down the path stops where the trie stops
// matching, the query runs from there, and the walk resumes creating the
// routers that were missing. The hits alias sc and are good until sc is used
// again. The path must have passed ValidatePath, and p must not be resident:
// a peer that re-joins is removed first.
func (c *Core) Join(p PeerID, path []topology.NodeID, k int, sc *Scratch) (slot int32, hits []Hit) {
	cur, i := c.descend(path, sc)
	if k > 0 {
		hits = c.closestFrom(cur, len(path)-1, k, none, sc)
	}
	for ; i >= 0; i-- {
		cur = c.addChild(cur, path[i])
	}
	slot = c.recs.free
	if slot != none {
		c.recs.free = c.recs.at(slot).next
		c.recs.freeN--
	} else {
		slot = c.recs.carve()
	}
	n := c.nodes.at(cur)
	*c.recs.at(slot) = Record{ID: p, node: cur, next: n.firstPeer}
	n.peer, n.more, n.firstPeer = p, n.firstPeer != none, slot
	return slot, hits
}

// Remove detaches the peer in slot, recycles its record and its address's
// run, and prunes the trie branches it leaves empty.
func (c *Core) Remove(slot int32) {
	rec := c.recs.at(slot)
	at := rec.node
	n := c.nodes.at(at)
	link := &n.firstPeer
	for *link != slot {
		link = &c.recs.at(*link).next
	}
	*link = rec.next
	if n.firstPeer != none {
		head := c.recs.at(n.firstPeer)
		n.peer, n.more = head.ID, head.next != none
	} else {
		n.peer, n.more = 0, false
	}
	c.SetAddr(rec, "")
	*rec = Record{node: none, next: c.recs.free}
	c.recs.free = slot
	c.recs.freeN++
	// Prune empty leaves upward, recycling each node's slot and child run:
	// the run's last node moves into the hole. Modifying calls have the tree
	// to themselves, so no query can still hold an index into what moves or
	// is recycled here.
	for m := at; m != root && n.firstPeer == none && n.kidsLen == 0; {
		parent := n.parent
		pn := c.nodes.at(parent)
		if n.kidsLog > 0 {
			c.releaseKids(n)
		}
		pn.kidsLen--
		last := pn.kidsOff + pn.kidsLen
		if m != last {
			*n = *c.nodes.at(last)
			c.moved(m)
			if pn.keySlots() > 0 {
				keys := c.keys(pn)
				keys[m-pn.kidsOff] = keys[pn.kidsLen]
			}
		}
		*c.nodes.at(last) = vacant
		c.live--
		m, n = parent, pn
	}
}

// Depth returns the trie depth of the peer in slot: its path length to the
// landmark.
func (c *Core) Depth(slot int32) int { return int(c.nodes.at(c.recs.at(slot).node).depth) }

// DTree returns the inferred tree distance between the peers in two slots:
// the walk from one up to their deepest common ancestor and down to the
// other.
func (c *Core) DTree(a, b int32) int {
	na, nb := c.nodes.at(c.recs.at(a).node), c.nodes.at(c.recs.at(b).node)
	sum := int(na.depth) + int(nb.depth)
	for na.depth > nb.depth {
		na = c.nodes.at(na.parent)
	}
	for nb.depth > na.depth {
		nb = c.nodes.at(nb.parent)
	}
	for na != nb {
		na, nb = c.nodes.at(na.parent), c.nodes.at(nb.parent)
	}
	return sum - 2*int(na.depth)
}

// AppendPath appends the reported path of the peer in slot to dst, peer-side
// first: the routers of its node's parent chain.
func (c *Core) AppendPath(dst []topology.NodeID, slot int32) []topology.NodeID {
	for m := c.recs.at(slot).node; m != none; {
		n := c.nodes.at(m)
		dst = append(dst, n.router)
		m = n.parent
	}
	return dst
}

// Walk visits every resident peer, depth-first, with its reported path
// (peer-side first). Peers attached at one router are handed the same slice;
// it aliases memory Walk allocates in large blocks and never writes again,
// so fn may keep it but must not modify it.
func (c *Core) Walk(fn func(rec *Record, path []topology.NodeID)) {
	var stack, block []topology.NodeID // routers from the landmark down; unused arena
	var visit func(m int32)
	visit = func(m int32) {
		n := c.nodes.at(m)
		stack = append(stack, n.router)
		if n.firstPeer != none {
			if len(block) < len(stack) {
				block = make([]topology.NodeID, max(len(stack), 1<<14))
			}
			path := block[:len(stack):len(stack)]
			block = block[len(stack):]
			for i, r := range stack {
				path[len(path)-1-i] = r
			}
			for s := n.firstPeer; s != none; {
				rec := c.recs.at(s)
				s = rec.next
				fn(rec, path)
			}
		}
		for j := range n.kidsLen {
			visit(n.kidsOff + j)
		}
		stack = stack[:len(stack)-1]
	}
	visit(root)
}

// span is a run of siblings the breadth-first search holds in its queue.
type span struct{ off, n int32 }

// Hit is one entry of a query's answer as the trie produces it: the
// candidate's slot beside its ID, so the caller reads whatever else the
// answer needs straight from the record.
type Hit struct {
	Peer  PeerID
	DTree int32
	Slot  int32
}

// Scratch is a query's reusable working memory: the breadth-first queue and
// the top-k buffer the returned hits alias. One Scratch serves one query at
// a time; GetScratch hands them out of a pool.
type Scratch struct {
	queue []span
	top   []Hit
	// visits counts the trie nodes queries enqueued and hops the child-run
	// searches descents made; TestClosestVisitsBounded reads both.
	visits, hops int
}

// Closest returns the k peers with the smallest dtree distance to the peer
// in slot, that peer excluded, sorted by (DTree, Peer). The hits alias sc.
func (c *Core) Closest(slot int32, k int, sc *Scratch) []Hit {
	at := c.recs.at(slot).node
	return c.closestFrom(at, int(c.nodes.at(at).depth), k, slot, sc)
}

// ClosestToPath answers the query for a newcomer whose (validated) path is
// given without inserting it, leaving out the peer in slot skip (none for
// nobody).
func (c *Core) ClosestToPath(path []topology.NodeID, k int, skip int32, sc *Scratch) []Hit {
	// The newcomer's would-be depth is len(path)-1, wherever the trie stops
	// matching its path.
	cur, _ := c.descend(path, sc)
	return c.closestFrom(cur, len(path)-1, k, skip, sc)
}

// closestFrom computes the exact k-nearest peers by dtree for a query point
// located at trie node start with the given query depth (which may exceed
// start's depth when the query path diverged below start).
//
// The walk ascends the ancestor chain; at each ancestor a (depth da) it
// searches a's subtree, minus the child subtree already covered, breadth
// first. A peer found there at depth dq has dca depth exactly da, hence
// dtree = (qd − da) + (dq − da), so the search meets peers in non-decreasing
// dtree order. Once k candidates are held with kth-best distance w it
// neither enqueues nor scans a node deeper than w − qd + 2·da — inclusive, so
// an equal-distance peer with a smaller ID still wins its tie — and the
// ascent stops at the first ancestor whose own distance qd − da exceeds w.
// That makes the answer exact, not approximate.
func (c *Core) closestFrom(start int32, queryDepth, k int, skip int32, sc *Scratch) []Hit {
	if k <= 0 {
		return nil
	}
	if cap(sc.top) < k {
		sc.top = make([]Hit, 0, k)
	}
	out := sc.top[:0:k]
	queue := sc.queue
	covered := none
	for a := start; a != none; {
		an := c.nodes.at(a)
		da := int(an.depth)
		if len(out) == k && queryDepth-da > int(out[k-1].DTree) {
			break
		}
		base := queryDepth - 2*da // base + depth = dtree of a peer found under a
		queue = append(queue[:0], span{a, 1})
		visits := 1
		for i := 0; i < len(queue); i++ {
			sp := queue[i]
			run := c.nodes.run(sp.off, sp.n)
			d := base + int(run[0].depth) // siblings share a depth
			if len(out) == k && d > int(out[k-1].DTree) {
				break // BFS order: every later run is at least as deep
			}
			for j := range run {
				n := &run[j]
				if sp.off+int32(j) == covered {
					continue
				}
				if s := n.firstPeer; !n.more {
					// One peer or none: its ID is in the node.
					if s != none && s != skip {
						out = pushHit(out, Hit{Peer: n.peer, DTree: int32(d), Slot: s})
					}
				} else {
					for s != none {
						rec := c.recs.at(s)
						if s != skip {
							out = pushHit(out, Hit{Peer: rec.ID, DTree: int32(d), Slot: s})
						}
						s = rec.next
					}
				}
				if n.kidsLen == 0 || (len(out) == k && d+1 > int(out[k-1].DTree)) {
					continue
				}
				// The children sit side by side: enqueueing them reads nothing.
				queue = append(queue, span{n.kidsOff, n.kidsLen})
				visits += int(n.kidsLen)
			}
		}
		if covered != none && len(queue) > 1 {
			visits-- // a's children were enqueued, the one covered among them
		}
		sc.visits += visits
		covered = a
		a = an.parent
	}
	sc.queue = queue
	return out
}

// pushHit inserts h into out, which is sorted by (DTree, Peer) and never
// grows beyond its capacity: when full, h either displaces the last entry or
// is dropped.
func pushHit(out []Hit, h Hit) []Hit {
	less := func(x, y Hit) bool {
		return x.DTree < y.DTree || (x.DTree == y.DTree && x.Peer < y.Peer)
	}
	if len(out) == cap(out) {
		if !less(h, out[len(out)-1]) {
			return out
		}
		out = out[:len(out)-1]
	}
	i := len(out)
	out = append(out, h)
	for ; i > 0 && less(h, out[i-1]); i-- {
		out[i] = out[i-1]
	}
	out[i] = h
	return out
}

// ArenaStats reports the occupancy of a tree's three pools. In each, what
// is carved stays carved: removed peers and pruned routers leave their
// slots to the next join, so under steady churn the carved figures stop
// moving.
type ArenaStats struct {
	// Allocated is the number of node slots ever carved — the node pool's
	// high-water mark, not counting the root's. Live of them hold a router
	// of the trie; Free = Allocated − Live hold none: slack at the end of a
	// node's child run, or parked in a run on a free list.
	Allocated, Free, Live int
	// Records and FreeRecords are the records carved and those parked on
	// the free list.
	Records, FreeRecords int
	// AddrBytes and FreeAddrBytes are the same for address bytes, which
	// only text addresses take: a record holds an IPv4 endpoint itself.
	AddrBytes, FreeAddrBytes int
}

// NodeBytes and RecordBytes are the slot sizes of the node and record
// pools: what one count of ArenaStats weighs in each.
const (
	NodeBytes   = int(unsafe.Sizeof(node{}))
	RecordBytes = int(unsafe.Sizeof(Record{}))
)

// Plus returns the occupancy of a's pools and b's together.
func (a ArenaStats) Plus(b ArenaStats) ArenaStats {
	return ArenaStats{a.Allocated + b.Allocated, a.Free + b.Free, a.Live + b.Live,
		a.Records + b.Records, a.FreeRecords + b.FreeRecords,
		a.AddrBytes + b.AddrBytes, a.FreeAddrBytes + b.FreeAddrBytes}
}

// ArenaStats returns current pool occupancy.
func (c *Core) ArenaStats() ArenaStats {
	allocated, live := int(c.nodes.carved)-1, int(c.live)
	return ArenaStats{
		Allocated: allocated, Free: allocated - live, Live: live,
		Records: int(c.recs.carved), FreeRecords: int(c.recs.freeN),
		AddrBytes: int(c.addrs.carved), FreeAddrBytes: int(c.addrs.freeN),
	}
}

// CheckInvariants deeply validates the tree's internal consistency: depth
// bookkeeping, parent back-links, distinct routers among siblings, child
// runs within their capacity, the peer chains, each node's copy of its
// first peer's ID, no empty node left unpruned, and, for each of the three
// pools, that everything carved is accounted for. A node slot holds a
// router of the trie, is slack at the end of a live child run, or lies in
// a parked run — each exactly once, and only live slots hold a router; a
// record is chained at its node or parked, and a parked one holds no
// address; the runs of live text addresses and the free runs tile the
// carved address bytes, and an inline address claims none. It is O(size)
// and intended for tests and debugging; it returns the first violation
// found.
func (c *Core) CheckInvariants() error {
	var liveNodes, liveRecs int32
	// claimer returns a claim function over a pool of n units: claim marks
	// the units of a run as used, and reports false for a run that is
	// misplaced or overlaps one claimed before.
	claimer := func(n, chunk int32) (used []bool, claim func(off, size int32) bool) {
		used = make([]bool, n)
		return used, func(off, size int32) bool {
			if off < 0 || off+size > n || off&(chunk-1)+size > max(chunk, size) {
				return false
			}
			for u := off; u < off+size; u++ {
				if used[u] {
					return false
				}
				used[u] = true
			}
			return true
		}
	}
	nodeUsed, claimNodes := claimer(c.nodes.carved, nodeChunk)
	addrUsed, claimUnits := claimer(c.addrs.carved/addrStep, addrChunk/addrStep)
	claimAddr := func(off, size int32) bool {
		return off%addrStep == 0 && claimUnits(off/addrStep, size/addrStep)
	}
	isVacant := func(n *node) bool {
		return n.router == topology.InvalidNode && n.firstPeer == none && n.kidsLog == 0 && n.kidsLen == 0
	}
	claimNodes(root, 1)
	var routers []topology.NodeID
	var walk func(m int32) error
	walk = func(m int32) error {
		n := c.nodes.at(m)
		liveNodes++
		if n.kidsLen > n.kidsCap() {
			return fmt.Errorf("pathtree: node %d holds %d children in a run of %d", n.router, n.kidsLen, n.kidsCap())
		}
		if n.kidsLog > 0 && !claimNodes(n.kidsOff-n.keySlots(), n.kidsCap()+n.keySlots()) {
			return fmt.Errorf("pathtree: node %d's child run at %d is outside the node pool or overlaps another run", n.router, n.kidsOff)
		}
		if m != root && n.firstPeer == none && n.kidsLen == 0 {
			return fmt.Errorf("pathtree: empty node %d not pruned", n.router)
		}
		var count int32
		for s := n.firstPeer; s != none; s = c.recs.at(s).next {
			if count++; count > c.recs.carved {
				return fmt.Errorf("pathtree: peer chain at node %d is cyclic", n.router)
			}
			rec := c.recs.at(s)
			if rec.node != m {
				return fmt.Errorf("pathtree: peer %d chained at node %d but records node index %d", rec.ID, n.router, rec.node)
			}
			if l := int(rec.addrLen); !rec.inline && (l > codec.MaxAddrLen || (l > 0 && !claimAddr(rec.addr, int32(addrClass(l)+1)*addrStep))) {
				return fmt.Errorf("pathtree: peer %d's %d-byte address at %d is outside the pool or overlaps another", rec.ID, l, rec.addr)
			}
		}
		liveRecs += count
		if head := n.firstPeer; (head == none && n.more) || (head != none && (n.peer != c.recs.at(head).ID || n.more != (c.recs.at(head).next != none))) {
			return fmt.Errorf("pathtree: node %d's inline peer %d (more: %v) disagrees with its peer chain", n.router, n.peer, n.more)
		}
		if n.kidsLog > 0 {
			for j, slack := range c.nodes.run(n.kidsOff, n.kidsCap())[n.kidsLen:] {
				if !isVacant(&slack) {
					return fmt.Errorf("pathtree: slot %d of node %d's child run is slack but not vacant", n.kidsLen+int32(j), n.router)
				}
			}
		}
		kids := c.kidsOf(n)
		routers = routers[:0]
		for j, kid := range kids {
			if n.keySlots() > 0 && c.keys(n)[j] != kid.router {
				return fmt.Errorf("pathtree: node %d's router key %d disagrees with its child %d", n.router, j, kid.router)
			}
			routers = append(routers, kid.router)
		}
		slices.Sort(routers)
		for i := 1; i < len(routers); i++ {
			if routers[i] == routers[i-1] {
				return fmt.Errorf("pathtree: router %d repeats among node %d's children", routers[i], n.router)
			}
		}
		for j, kid := range kids {
			if kid.router == topology.InvalidNode {
				return fmt.Errorf("pathtree: child %d of node %d is vacant", j, n.router)
			}
			if kid.parent != m {
				return fmt.Errorf("pathtree: child %d of %d has wrong parent", kid.router, n.router)
			}
			if int(kid.depth) != int(n.depth)+1 {
				return fmt.Errorf("pathtree: child %d depth %d under depth %d", kid.router, kid.depth, n.depth)
			}
			if err := walk(n.kidsOff + int32(j)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return err
	}
	var parked int32
	for class, head := range c.nodes.free {
		size := int32(1) << class
		runs, err := chainLen(head, c.nodes.carved, func(off int32) (int32, bool) {
			if !claimNodes(off, size) || !isVacant(c.nodes.at(off)) {
				return 0, false
			}
			for _, slot := range c.nodes.run(off, size)[1:] {
				if !isVacant(&slot) || slot.parent != none {
					return 0, false
				}
			}
			return c.nodes.at(off).parent, true
		})
		if err != nil {
			return fmt.Errorf("pathtree: node pool, size class %d: %v", class, err)
		}
		parked += runs * size
	}
	if liveNodes != c.live+1 || parked != c.nodes.freeN || slices.Contains(nodeUsed, false) {
		return fmt.Errorf("pathtree: node pool: %d live nodes (%d accounted), %d parked slots (%d accounted), or a carved slot in no run",
			liveNodes-1, c.live, parked, c.nodes.freeN)
	}
	freeRecs, err := chainLen(c.recs.free, c.recs.carved, func(i int32) (int32, bool) {
		r := c.recs.at(i)
		return r.next, r.node == none && r.addrLen == 0 && !r.inline
	})
	if err != nil || freeRecs != c.recs.freeN || liveRecs+freeRecs != c.recs.carved {
		return fmt.Errorf("pathtree: record pool: %d live + %d free (%d accounted, %v) != %d carved",
			liveRecs, freeRecs, c.recs.freeN, err, c.recs.carved)
	}
	var freeAddr int32
	for class, head := range c.addrs.free {
		size := int32(class+1) * addrStep
		runs, err := chainLen(head, c.addrs.carved/addrStep, func(off int32) (int32, bool) {
			if !claimAddr(off, size) {
				return 0, false
			}
			return int32(binary.LittleEndian.Uint32(c.addrs.run(off, 4))), true
		})
		if err != nil {
			return fmt.Errorf("pathtree: address pool, size class %d: %v", class, err)
		}
		freeAddr += runs * size
	}
	if freeAddr != c.addrs.freeN || slices.Contains(addrUsed, false) {
		return fmt.Errorf("pathtree: address pool: %d free bytes (%d accounted) of %d carved, or a byte in no run",
			freeAddr, c.addrs.freeN, c.addrs.carved)
	}
	return nil
}

// chainLen walks a free list from head, checking each entry with next (which
// also says whether the entry looks free) and giving up after limit entries.
func chainLen(head, limit int32, next func(int32) (int32, bool)) (int32, error) {
	var n int32
	for i := head; i != none; n++ {
		if n > limit {
			return 0, errors.New("free list is cyclic")
		}
		var ok bool
		if i, ok = next(i); !ok {
			return 0, errors.New("free list holds a live or stray entry")
		}
	}
	return n, nil
}
