package server

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"unsafe"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// indexStripes is the number of independently locked segments of an Index.
// Joins of different peers then rarely meet on one lock, which keeps the
// index out of the way when several servers that share it ingest in
// parallel.
const indexStripes = 64

// A stripe's table is rebuilt a quarter larger once an insert would push its
// load past maxLoadTenths/10, so between rebuilds its load stays between 0.72
// and 0.9. A table starts at minSlots on its first insert.
const (
	maxLoadTenths = 9
	minSlots      = 8
)

// ref locates a peer's record: the landmark whose tree holds it and the slot
// within that tree. It names no server, so it stays good when the tree is
// handed from one server to another.
type ref struct {
	lm   topology.NodeID
	slot int32
}

// entry is one slot of a stripe's table. An empty slot's lm is noRef's,
// topology.InvalidNode, at which no held tree is rooted.
type entry struct {
	key uint64 // the peer's ID, mixed by Index.key
	ref
}

// IndexSlotBytes is what one slot of an Index's tables weighs: the unit of
// Slots.
const IndexSlotBytes = int(unsafe.Sizeof(entry{}))

// Index maps each registered peer to where its record sits — the one
// per-peer table of a node. A lone server owns a private one; the servers of
// a cluster share one (NewSharing), which is also how the cluster routes a
// request that carries a peer and no path: to the owner of the landmark Place
// names.
//
// Each of its stripes is one open-addressed table of 16-byte {key, landmark,
// slot} slots with no pointer, so the collector never scans it. Probing is
// linear, wrapping past the table's end, and Robin Hood ordered: a run of
// entries is sorted by home slot, and entries of one home by key. So a lookup
// of p stops at the first slot that is empty or holds an entry that sorts
// after p, an insert moves the entries from there on one slot further, a
// delete moves the entries behind it back a slot rather than leave a
// tombstone, and a rebuild places the entries in the order it reads them.
//
// A slot keeps its peer's key, which names the peer as surely as its ID: a
// slot holding only (landmark, slot) would have to be checked against the ID
// in the record it names, and in a cluster that record may sit in a tree
// another server holds, which a prober — Place holds no server lock at all —
// may not read.
//
// Peer IDs come off the wire, so a client picks them. The key that places a
// peer is therefore its ID mixed under a seed drawn at random per index:
// under a fixed mix, IDs chosen to share a home slot would make one run of
// the whole fill, for every probe, insert and rebuild to walk.
//
// A stripe lock is a leaf: it is taken with a server's state lock held, or
// with none, and nothing is taken under it. A table is rebuilt under its
// stripe lock, so a rebuild stalls that stripe's readers, and a join holding
// its server's state lock for the insert, that server's lookups. See the
// package comment for who may write which entry.
type Index struct {
	seed    [2]uint64
	stripes [indexStripes]indexStripe
}

type indexStripe struct {
	mu    sync.RWMutex
	used  int     // occupied slots
	slots []entry // nil until the first insert
}

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{seed: [2]uint64{rand.Uint64(), rand.Uint64()}} }

// key mixes p under the index's seed: SplitMix64's finalizer with a seed word
// folded in before each multiply. Every step can be undone, so no two peers
// share a key. Its top 6 bits pick the stripe, the rest the home slot.
func (x *Index) key(p pathtree.PeerID) uint64 {
	h := uint64(p) ^ x.seed[0]
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27 ^ x.seed[1]) * 0x94d049bb133111eb
	return h ^ h>>31
}

func (x *Index) stripe(k uint64) *indexStripe { return &x.stripes[k>>58] }

// home is key k's home slot: the bits below the stripe's, scaled to the
// table's size by a multiply-high.
func (s *indexStripe) home(k uint64) int {
	h, _ := bits.Mul64(k<<6, uint64(len(s.slots)))
	return int(h)
}

// dist is how far slot i lies past key k's home slot.
func (s *indexStripe) dist(k uint64, i int) int {
	d := i - s.home(k)
	if d < 0 {
		d += len(s.slots)
	}
	return d
}

// probe finds key k's slot.
func (s *indexStripe) probe(k uint64) (i int, found bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	for i, d := s.home(k), 0; ; d++ {
		e := &s.slots[i]
		if e.lm == noRef.lm {
			return i, false
		}
		if e.key == k {
			return i, true
		}
		if rd := s.dist(e.key, i); rd < d || rd == d && e.key > k {
			return i, false // e sorts after k
		}
		if i++; i == len(s.slots) {
			i = 0
		}
	}
}

// insert puts e in slot i, where probe stopped looking for its key, and moves
// the entries from i up to the next empty slot one slot on.
func (s *indexStripe) insert(i int, e entry) {
	n, j := len(s.slots), i
	for s.slots[j].lm != noRef.lm {
		if j++; j == n {
			j = 0
		}
	}
	if j < i { // the run wraps past the table's end
		copy(s.slots[1:j+1], s.slots[:j])
		s.slots[0], j = s.slots[n-1], n-1
	}
	copy(s.slots[i+1:j+1], s.slots[i:j])
	s.slots[i] = e
	s.used++
}

// grow rebuilds the table a quarter larger. Read from just past an empty
// slot, the old table yields its entries in the new table's order too, so
// each goes to its new home or to the slot after the entry placed before it,
// whichever is further on; positions count on past the table's end. As the
// old table held the run from its first entry to its last without reaching
// round to the first again, the larger table does too.
func (s *indexStripe) grow() {
	old, n := s.slots, max(minSlots, len(s.slots)+len(s.slots)/4)
	s.slots = make([]entry, n)
	for i := range s.slots {
		s.slots[i].lm = noRef.lm
	}
	i := slices.IndexFunc(old, func(e entry) bool { return e.lm == noRef.lm })
	last, prev, laps := -1, 0, 0
	for range old {
		if i++; i == len(old) {
			i = 0
		}
		e := old[i]
		if e.lm == noRef.lm {
			continue
		}
		h := s.home(e.key)
		if h < prev { // the homes have passed the table's end
			laps++
		}
		prev, last = h, max(h+laps*n, last+1)
		j := last
		if j >= n {
			j -= n
		}
		s.slots[j] = e
	}
}

// Reserve sizes every empty table of x for its share of n entries, so that
// filling x with n peers rebuilds no table: a checkpoint's load reserves
// what the file holds before it registers the first peer. A stripe's share
// is n/64 plus three standard deviations of the binomial spread, at the
// highest load a table reaches before a rebuild; a stripe that draws more
// than that grows as usual. A table that holds entries keeps its size.
func (x *Index) Reserve(n int) {
	mean := float64(n) / indexStripes
	slots := max(minSlots, int((mean+3*math.Sqrt(mean))*10/maxLoadTenths)+1)
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.Lock()
		if s.used == 0 && len(s.slots) < slots {
			s.slots = make([]entry, slots)
			for j := range s.slots {
				s.slots[j].lm = noRef.lm
			}
		}
		s.mu.Unlock()
	}
}

func (x *Index) get(p pathtree.PeerID) (r ref, ok bool) {
	k := x.key(p)
	s := x.stripe(k)
	s.mu.RLock()
	if i, found := s.probe(k); found {
		r, ok = s.slots[i].ref, true
	}
	s.mu.RUnlock()
	return r, ok
}

// swap points p at r and returns what the entry said before.
func (x *Index) swap(p pathtree.PeerID, r ref) (old ref, had bool) {
	k := x.key(p)
	s := x.stripe(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, found := s.probe(k)
	if found {
		old, s.slots[i].ref = s.slots[i].ref, r
		return old, true
	}
	if (s.used+1)*10 > len(s.slots)*maxLoadTenths {
		s.grow()
		i, _ = s.probe(k)
	}
	s.insert(i, entry{k, r})
	return old, false
}

// deleteIf removes p's entry only if it still says r, and reports whether it
// did: an entry another server's join has since overwritten is not this
// caller's to delete.
func (x *Index) deleteIf(p pathtree.PeerID, r ref) bool {
	k := x.key(p)
	s := x.stripe(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, found := s.probe(k)
	if !found || s.slots[i].ref != r {
		return false
	}
	// Shift back the run behind i, up to an empty slot or an entry at home.
	for {
		j := i + 1
		if j == len(s.slots) {
			j = 0
		}
		if next := s.slots[j]; next.lm == noRef.lm || s.dist(next.key, j) == 0 {
			break
		}
		s.slots[i], i = s.slots[j], j
	}
	s.slots[i] = entry{ref: noRef}
	s.used--
	return true
}

// Place reports where peer p's record sits: the landmark it is registered
// under, which is what routes a request for it, and the slot in that
// landmark's tree.
func (x *Index) Place(p pathtree.PeerID) (lm topology.NodeID, slot int32, ok bool) {
	r, ok := x.get(p)
	return r.lm, r.slot, ok
}

// Len counts the registered peers.
func (x *Index) Len() int {
	used, _ := x.Slots()
	return used
}

// Slots reports the slots of the index's tables in use and in all, each
// IndexSlotBytes. It reads each stripe's count and walks nothing.
func (x *Index) Slots() (used, total int) {
	for i := range x.stripes {
		s := &x.stripes[i]
		s.mu.RLock()
		used += s.used
		total += len(s.slots)
		s.mu.RUnlock()
	}
	return used, total
}
