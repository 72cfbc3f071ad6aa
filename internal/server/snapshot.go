package server

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// A snapshot is a compacted op log: the shortest run of canonical ops that
// rebuilds the state, framed as an op stream (package op, stream.go: every
// record length-bounded and CRC-checked, the whole closed by a counted end
// frame). What the wire carries, the write-ahead log persists and the
// follower stream ships is also what a snapshot, a checkpoint file and a
// shipped catch-up image are made of. In order, a snapshot holds
//
//  1. one KindMoveLandmark per held landmark, ascending, with Src, Dst and
//     Epoch zero (files from builds that moved landmarks between shards
//     name owners and epochs there, which every reader ignores);
//  2. every peer as one entry of a KindBatchJoin whose Time is the peer's
//     LastRefresh: peers in (LastRefresh, ID) order, each run of equal
//     LastRefresh cut into records of at most op.MaxBatch entries;
//  3. one KindSetSuperPeer per flagged peer, ascending.
//
// The content is a function of the state alone, never of the op history
// that built it or of map iteration order, so copies holding equal state
// write equal bytes: the contract a converged follower is checked against.
// Trees are not serialized; the joins rebuild them.

// snapPeer is one peer record lifted out of the state. entry.Path is the
// path as the trie walk rebuilt it, in memory the walk allocated, and
// entry.Addr the address as the record or the tree's pool gave it back,
// written into a block collect allocated: the state refers to neither, so
// both are safe past the walk.
type snapPeer struct {
	at    int64 // LastRefresh in Unix nanoseconds
	entry op.JoinEntry
	super bool
}

// image is the content of a snapshot before ordering and framing.
type image struct {
	moves []op.MoveEntry
	peers []snapPeer
}

// collect copies the held landmarks and the peers under them out of the
// state. It is a walk: the writer mutex keeps mutators out while it copies,
// and the state lock is never taken, so a snapshot costs lookups nothing. A
// peer's path is not stored, so each tree is walked once, depth-first, and
// hands every peer the path the walk stands on; its addresses are written
// into one block per tree, each read out of its record or its pool run
// through one scratch buffer.
func (s *Server) collect(img *image) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.walking()
	var scratch [op.MaxAddrLen]byte
	for lm, tree := range s.st.trees {
		img.moves = append(img.moves, op.MoveEntry{Landmark: lm})
		img.peers = slices.Grow(img.peers, tree.Len())
		var addrs strings.Builder
		// The live text runs hold at least the text addresses, and no inline
		// one is longer than pathtree.MaxEndpointLen.
		as := tree.ArenaStats()
		addrs.Grow(as.AddrBytes - as.FreeAddrBytes + tree.Len()*pathtree.MaxEndpointLen)
		tree.Walk(func(rec *pathtree.Record, path []topology.NodeID) {
			img.peers = append(img.peers, snapPeer{rec.RefreshNanos,
				op.JoinEntry{Peer: rec.ID, Addr: appendAddr(&addrs, tree.AppendAddr(scratch[:0], rec)), Path: path}, rec.Super})
		})
	}
}

// appendAddr writes addr to b and returns it as a substring of what b holds.
// A Builder never rewrites bytes it has handed out, so the substring stays
// good as b grows; grown to size first, b makes one allocation for all.
func appendAddr(b *strings.Builder, addr []byte) string {
	start := b.Len()
	b.Write(addr)
	return b.String()[start:]
}

// write orders the image and frames it as an op stream.
func (img *image) write(w io.Writer) error {
	slices.SortFunc(img.moves, func(a, b op.MoveEntry) int { return cmp.Compare(a.Landmark, b.Landmark) })
	slices.SortFunc(img.peers, func(a, b snapPeer) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.entry.Peer, b.entry.Peer))
	})
	sw := op.NewStreamWriter(w)
	for _, m := range img.moves {
		sw.Write(op.Op{Kind: op.KindMoveLandmark, Move: m})
	}
	var supers []pathtree.PeerID
	batch := make([]op.JoinEntry, 0, op.MaxBatch)
	for i := 0; i < len(img.peers); {
		at := img.peers[i].at
		batch = batch[:0]
		for ; i < len(img.peers) && img.peers[i].at == at && len(batch) < op.MaxBatch; i++ {
			batch = append(batch, img.peers[i].entry)
			if img.peers[i].super {
				supers = append(supers, img.peers[i].entry.Peer)
			}
		}
		sw.Write(op.BatchJoin(batch, at))
	}
	slices.Sort(supers)
	for _, p := range supers {
		sw.Write(op.SetSuperPeer(p, true))
	}
	if err := sw.Close(); err != nil { // the first failed Write, or the flush
		return fmt.Errorf("server: snapshot write: %w", err)
	}
	return nil
}

// WriteSnapshot serializes servers holding disjoint landmark sets — the
// shards of one cluster — as a single snapshot, ordered exactly as one
// server holding all of it would write it, so byte-comparable with any copy
// holding the same state.
func WriteSnapshot(w io.Writer, srvs ...*Server) error {
	var img image
	for _, s := range srvs {
		s.collect(&img)
	}
	return img.write(w)
}

// ResetFromSnapshot replaces the server's entire peer state with the
// snapshot's, keeping the configured landmark set (union the snapshot's). It
// is the follower's catch-up restore. The snapshot is read once, and its
// records go through Apply into a server built off to the side: Move and
// flag records as they are, each batch entry as one join. The bytes come
// from outside the program and no cluster routed them, so this is one of
// ValidateJoin's two doors: an entry it or Apply refuses refuses the whole
// snapshot (FuzzResetFromSnapshot). A flag naming a peer the snapshot does
// not hold is ignored, as recovery ignores one (cluster.applyRecovered).
// Adopt publishes the side server's state only once the whole snapshot, end
// frame included, was good and every record applied; otherwise the previous
// state stays. The reader is seekable because a cluster's restore, the other
// follower backend, may read its snapshot twice.
func (s *Server) ResetFromSnapshot(r io.ReadSeeker) error {
	side, _ := newServer(s.cfg, NewIndex()) // the configuration was checked at construction
	err := op.ReadStream(r, func(o *op.Op) error {
		switch o.Kind {
		case op.KindMoveLandmark, op.KindSetSuperPeer:
			if err := side.Apply(*o); !errors.Is(err, ErrUnknownPeer) {
				return err
			}
			return nil
		case op.KindBatchJoin:
			for _, e := range o.Batch {
				err := ValidateJoin(&e)
				if err == nil {
					err = side.Apply(op.Op{Kind: op.KindJoin, Time: o.Time, Join: e})
				}
				if err != nil {
					return fmt.Errorf("peer %d: %w", e.Peer, err)
				}
			}
			return nil
		}
		return fmt.Errorf("op kind %d has no place in a snapshot", o.Kind)
	})
	if err != nil {
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
