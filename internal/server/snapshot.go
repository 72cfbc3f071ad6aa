package server

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// A snapshot — a checkpoint file, the catch-up image a primary ships — is
// the state's trees themselves, framed as a checkpoint stream (package op,
// stream.go: every frame length-bounded and CRC-checked, the whole closed
// by an end frame that counts the frames and carries the trees' total nodes
// and peers). In order, a snapshot holds
//
//  1. a header frame: the number of held landmarks and each, ascending, in
//     4 bytes;
//  2. one section per landmark, in the header's order, cut into frames of
//     at most op.MaxEncodedSize bytes between two of its items: the tree's
//     nodes depth-first, each its router and its counts of children and
//     peers, children in router order, and after each node the peers
//     attached there in ID order, each its ID, refresh time, super-peer
//     flag and address (package pathtree, section.go, which alone knows a
//     section's body).
//
// The content is a function of the state alone, never of the op history
// that built it or of map iteration order, so copies holding equal state
// write equal bytes: the contract a converged follower is checked against
// (TestSnapshotBytesUnchanged). A snapshot is written one tree at a time:
// the tree is encoded into a buffer that holds it alone under its server's
// writer mutex, and the buffer is written out with no lock held, so writers
// wait for one tree's walk, never for the disk. A peer re-homed from one
// tree to another between their walks is therefore written under both;
// LoadSnapshot keeps the newer record. Loading builds each tree straight
// from its section (pathtree.ReadSection): it descends no path, parses no
// IPv4 endpoint and reserves the peer index once for the end frame's total.
// The log and the follower stream carry ops; a checkpoint in the op-stream
// form that preceded sections, or in the gob form before that, is refused
// by name (op.ErrOpStreamFormat, op.ErrStreamFormat).

// WriteSnapshot serializes servers holding disjoint landmark sets — the
// shards of one cluster — as a single snapshot, ordered exactly as one
// server holding all of it would write it, so byte-comparable with any copy
// holding the same state. It allocates one buffer, sized for the largest
// tree, and reuses it for every tree; nothing it allocates outlives it.
func WriteSnapshot(w io.Writer, srvs ...*Server) error {
	type held struct {
		lm  topology.NodeID
		srv *Server
	}
	var trees []held
	bound := 0
	for _, s := range srvs {
		s.mu.RLock()
		for lm, tree := range s.st.trees {
			trees = append(trees, held{lm, s})
			bound = max(bound, tree.SectionBound())
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(trees, func(a, b held) int { return cmp.Compare(a.lm, b.lm) })
	buf := make([]byte, 0, max(bound, 4+4*len(trees)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(trees)))
	for _, t := range trees {
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.lm))
	}
	sw := op.NewStreamWriter(w)
	sw.Write(buf)
	var cuts []int
	var nodes, peers uint64
	for _, t := range trees {
		buf, cuts = t.srv.section(t.lm, buf[:0], cuts[:0])
		h, _ := pathtree.ParseSectionHeader(buf) // AppendSection wrote it
		nodes, peers = nodes+uint64(h.Nodes), peers+uint64(h.Peers)
		prev := 0
		for _, cut := range append(cuts, len(buf)) {
			sw.Write(buf[prev:cut])
			prev = cut
		}
	}
	if err := sw.Close(nodes, peers); err != nil { // the first failed Write, or this one
		return fmt.Errorf("server: snapshot write: %w", err)
	}
	return nil
}

// section appends landmark lm's section to buf, walking the tree under the
// writer mutex: mutators wait for the walk, lookups do not notice it.
func (s *Server) section(lm topology.NodeID, buf []byte, cuts []int) ([]byte, []int) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.walking()
	tree := s.st.trees[lm]
	if tree == nil { // a restore replaced the state since its landmarks were read
		tree = pathtree.NewCore(lm)
	}
	return tree.AppendSection(buf, cuts, op.MaxEncodedSize)
}

// errMalformed wraps what a snapshot's frames hold out of place.
var errMalformed = errors.New("server: malformed snapshot")

// LoadSnapshot builds the states of servers holding disjoint landmark sets —
// a cluster's shards, or one server off to the side — from a snapshot. The
// servers share one index, and no state holds a peer yet. place names the
// server (an index into srvs) that takes a landmark the snapshot holds, or
// refuses the landmark; a server that lacks the landmark's tree gets it.
//
// One goroutine per server builds the trees of the sections it takes,
// straight from their frames, and registers each peer in the index,
// reserved once for the end frame's total (or for the peers the file could
// hold, if fewer); onPeer, when not nil, is told every peer, from those
// goroutines. A peer in two sections is settled once the builders are done
// (settle): the record with the later refresh time wins, the later
// section's on a tie, and the other is retired (Retire). LoadSnapshot
// refuses, before the caller publishes anything, a section ReadSection
// refuses, a peer that repeats within one section (TestResetFromSnapshot,
// TestSectionRepeatRefusedOnFourShards), a landmark place refuses, sections
// out of the header's order, and totals other than the sections'.
func LoadSnapshot(r io.ReadSeeker, srvs []*Server, place func(topology.NodeID) (int, error), onPeer func(pathtree.PeerID)) error {
	sr, err := op.NewStreamReader(r)
	if err != nil {
		return err
	}
	head, err := sr.Next(nil)
	if err != nil {
		return noEnd(err)
	}
	l := &loader{srvs: srvs, idx: srvs[0].st.idx, owner: make(map[topology.NodeID]int), onPeer: onPeer}
	lms, err := readHeader(head)
	if err != nil {
		return err
	}
	for _, lm := range lms {
		if l.owner[lm], err = place(lm); err != nil {
			return err
		}
	}
	// A total the file cannot hold reserves no more than the peers it
	// could: no peer takes fewer than MinPeerItem bytes of it.
	l.idx.Reserve(int(min(sr.Peers, uint64(sr.Size())/pathtree.MinPeerItem)))
	l.start()
	defer l.stop()
	var nodes, peers uint64
	for _, lm := range lms {
		first, err := sr.Next(nil)
		if err != nil {
			return noEnd(err)
		}
		h, err := pathtree.ParseSectionHeader(first)
		if err != nil {
			return err
		}
		if h.Landmark != lm {
			return fmt.Errorf("%w: a section of landmark %d where the header lists %d", errMalformed, h.Landmark, lm)
		}
		frames := [][]byte{first}
		for len(frames) < h.Frames {
			f, err := sr.Next(nil)
			if err != nil {
				return noEnd(err)
			}
			frames = append(frames, f)
		}
		nodes, peers = nodes+uint64(h.Nodes), peers+uint64(h.Peers)
		l.queues[l.owner[lm]] <- section{lm, frames}
	}
	if _, err := sr.Next(nil); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("%w: a frame after the last section", errMalformed)
		}
		return err
	}
	if nodes != sr.Nodes || peers != sr.Peers {
		return fmt.Errorf("%w: sections of %d nodes and %d peers, the end frame says %d and %d",
			errMalformed, nodes, peers, sr.Nodes, sr.Peers)
	}
	if err := l.stop(); err != nil {
		return err
	}
	return l.settle()
}

// noEnd names an end frame met where a frame was due.
func noEnd(err error) error {
	if err == io.EOF {
		return fmt.Errorf("%w: the end frame comes before the last section", errMalformed)
	}
	return err
}

// readHeader reads the header frame: the held landmarks, ascending.
func readHeader(b []byte) ([]topology.NodeID, error) {
	if len(b) < 4 || uint64(len(b)) != 4+4*uint64(binary.BigEndian.Uint32(b)) {
		return nil, fmt.Errorf("%w: a header of %d bytes", errMalformed, len(b))
	}
	lms := make([]topology.NodeID, 0, len(b)/4-1)
	for b = b[4:]; len(b) > 0; b = b[4:] {
		lm := topology.NodeID(binary.BigEndian.Uint32(b))
		if len(lms) > 0 && lm <= lms[len(lms)-1] {
			return nil, fmt.Errorf("%w: header landmarks out of order", errMalformed)
		}
		lms = append(lms, lm)
	}
	return lms, nil
}

// section is one landmark's section as read: its frames, each a body of
// its own.
type section struct {
	lm     topology.NodeID
	frames [][]byte
}

// loader is LoadSnapshot's state: the servers, their builders, and the
// records each builder found its peer's entry naming.
type loader struct {
	srvs      []*Server
	idx       *Index
	owner     map[topology.NodeID]int // the server each held landmark goes to
	onPeer    func(pathtree.PeerID)
	queues    []chan section
	errs      []error
	displaced [][]Orphan
	wg        sync.WaitGroup
}

// start runs one builder per server, fed by its queue.
func (l *loader) start() {
	n := len(l.srvs)
	l.queues, l.errs, l.displaced = make([]chan section, n), make([]error, n), make([][]Orphan, n)
	for i := range l.srvs {
		q := make(chan section, 1)
		l.queues[i] = q
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for sec := range q {
				if l.errs[i] == nil {
					l.errs[i] = l.build(sec, &l.displaced[i])
				}
			}
		}()
	}
}

// stop closes the queues, waits for the builders and returns the first
// server's error; it may be called twice.
func (l *loader) stop() error {
	for i, q := range l.queues {
		if q != nil {
			close(q)
			l.queues[i] = nil
		}
	}
	l.wg.Wait()
	for _, err := range l.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// build builds a section's tree, registers its peers and gives the tree to
// its server. Each peer's entry is pointed at its record as it is read; a
// record the entry named before — of this section or of another, loaded in
// whatever order the builders ran — goes to displaced, for settle.
func (l *loader) build(sec section, displaced *[]Orphan) error {
	s := l.srvs[l.owner[sec.lm]]
	tree, err := pathtree.ReadSection(sec.frames, func(slot int32, rec *pathtree.Record) {
		if old, had := l.idx.swap(rec.ID, ref{sec.lm, slot}); had {
			*displaced = append(*displaced, Orphan{rec.ID, old.lm, old.slot})
		}
		if l.onPeer != nil {
			l.onPeer(rec.ID)
		}
	})
	if err != nil {
		return err
	}
	s.wmu.Lock()
	s.mu.Lock()
	s.st.trees[sec.lm] = tree
	s.mu.Unlock()
	s.wmu.Unlock()
	s.joins.Add(int64(tree.Len()))
	return nil
}

// settle decides, once the builders are done, each peer whose entry named
// a record before: a checkpoint walked beside re-homing writers names such
// a peer in two sections. Of the peer's records — those displaced and the
// one its entry names — two in one landmark's section are refused;
// otherwise the one with the later refresh time wins, the later section's
// on a tie, the entry is pointed at it, and the others are retired. It sees
// every record of the peer however the builders ran, so what it decides
// does not depend on their timing.
func (l *loader) settle() error {
	var recs []Orphan
	for _, o := range slices.Concat(l.displaced...) {
		lm, slot, _ := l.idx.Place(o.Peer)
		recs = append(recs, o, Orphan{o.Peer, lm, slot})
	}
	slices.SortFunc(recs, func(a, b Orphan) int {
		return cmp.Or(cmp.Compare(a.Peer, b.Peer), cmp.Compare(a.Landmark, b.Landmark), cmp.Compare(a.slot, b.slot))
	})
	recs = slices.Compact(recs) // a peer displaced twice had its entry's record added twice
	refresh := func(o Orphan) int64 {
		return l.srvs[l.owner[o.Landmark]].st.trees[o.Landmark].Record(o.slot).RefreshNanos
	}
	for len(recs) > 0 {
		win, n := recs[0], 1
		for ; n < len(recs) && recs[n].Peer == win.Peer; n++ {
			if recs[n].Landmark == recs[n-1].Landmark {
				return fmt.Errorf("%w: peer %d repeats in landmark %d's section", errMalformed, win.Peer, recs[n].Landmark)
			}
			if refresh(recs[n]) >= refresh(win) {
				win = recs[n]
			}
		}
		l.idx.swap(win.Peer, ref{win.Landmark, win.slot})
		for _, o := range recs[:n] {
			_, _ = l.srvs[l.owner[o.Landmark]].Retire(o) // the winner, which the entry names, stays
		}
		recs = recs[n:]
	}
	return nil
}

// ResetFromSnapshot replaces the server's entire peer state with the
// snapshot's, keeping the configured landmark set (union the snapshot's). It
// is the follower's catch-up restore. The snapshot is loaded into a server
// built off to the side by the loader a cluster's open takes
// (LoadSnapshot, with the one builder of the one server), whose checks are
// the checkpoint road's door (FuzzResetFromSnapshot). Adopt publishes the
// side server's state only once the whole snapshot, end frame included, was
// good; otherwise the previous state stays.
func (s *Server) ResetFromSnapshot(r io.ReadSeeker) error {
	side, _ := newServer(s.cfg, NewIndex()) // the configuration was checked at construction
	if err := LoadSnapshot(r, []*Server{side}, func(topology.NodeID) (int, error) { return 0, nil }, nil); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	Adopt([]*Server{s}, []*Server{side})
	return nil
}

// Adopt gives each server of dst the state of the server at the same
// position in src, all of them in one step: every server of dst has its
// writer mutex and then its state lock taken, in order, before the first
// state changes hands, so a reader or writer of any of them sees the old
// states or the new ones, never a mix. The servers of src share one index,
// which dst's states then share; src must not be used afterwards. It is how
// a restore publishes a state it loaded off to the side, and the one place a
// constructed server's state is replaced.
func Adopt(dst, src []*Server) {
	for _, s := range dst {
		s.wmu.Lock()
		defer s.wmu.Unlock()
	}
	for _, s := range dst {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	for i, s := range dst {
		s.st = src[i].st
	}
}
