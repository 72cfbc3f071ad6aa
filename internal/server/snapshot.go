package server

import (
	"cmp"
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
// path as the trie walk rebuilt it, in memory the walk allocated: the state
// does not refer to it, so it is safe past the walk.
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
// hands every peer the path the walk stands on; its addresses are copied
// into one block per tree.
func (s *Server) collect(img *image) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.walking()
	for lm, tree := range s.st.trees {
		img.moves = append(img.moves, op.MoveEntry{Landmark: lm})
		img.peers = slices.Grow(img.peers, tree.Len())
		var addrs strings.Builder
		as := tree.ArenaStats()
		addrs.Grow(as.AddrBytes - as.FreeAddrBytes) // the live runs: at least the live addresses
		tree.Walk(func(rec *pathtree.Record, path []topology.NodeID) {
			img.peers = append(img.peers, snapPeer{rec.RefreshNanos,
				op.JoinEntry{Peer: rec.ID, Addr: appendAddr(&addrs, tree.Addr(rec)), Path: path}, rec.Super})
		})
	}
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

// Snapshot serializes the server's durable state (landmarks, and every
// peer's path, address, flag and refresh time) so a restarted
// management server can resume serving without waiting for the whole
// population to rejoin — the management server is a single point of
// failure in the paper's architecture, and this is the standard mitigation.
func (s *Server) Snapshot(w io.Writer) error { return WriteSnapshot(w, s) }

// snapshotOps is a decoded snapshot: its landmark and join ops in stream
// order, and the set of peers it flags as super-peers.
type snapshotOps struct {
	ops    []op.Op
	supers map[pathtree.PeerID]bool
}

// readSnapshot decodes a whole snapshot. Nothing is returned unless the
// stream was good to its end frame, held only the three kinds above and
// every path in it passed validateJoin, so no caller ever acts on a prefix
// and the state never sees an unchecked path.
func readSnapshot(r io.Reader) (snapshotOps, error) {
	snap := snapshotOps{supers: make(map[pathtree.PeerID]bool)}
	err := op.ReadStream(r, func(o *op.Op) error {
		switch o.Kind {
		case op.KindSetSuperPeer:
			snap.supers[o.Peer] = o.Super
		case op.KindBatchJoin:
			for i := range o.Batch {
				if err := validateJoin(&o.Batch[i]); err != nil {
					return fmt.Errorf("peer %d: %w", o.Batch[i].Peer, err)
				}
			}
			fallthrough
		case op.KindMoveLandmark:
			snap.ops = append(snap.ops, *o)
			*o = op.Op{} // the slices now belong to snap
		default:
			return fmt.Errorf("op kind %d has no place in a snapshot", o.Kind)
		}
		return nil
	})
	if err != nil {
		return snapshotOps{}, fmt.Errorf("server: snapshot: %w", err)
	}
	return snap, nil
}

// load applies a snapshot to st, a state no one else can reach yet, through
// the singular join road, stopping at the first failure.
func (st *state) load(snap snapshotOps) error {
	for i := range snap.ops {
		o := &snap.ops[i]
		if o.Kind == op.KindMoveLandmark {
			st.apply(*o) // creates the tree if absent; cannot fail
			continue
		}
		for j := range o.Batch {
			e := &o.Batch[j]
			tree, slot, _, _, err := st.join(e, o.Time, 0, nil)
			if err != nil {
				return fmt.Errorf("server: snapshot peer %d: %w", e.Peer, err)
			}
			tree.Record(slot).Super = snap.supers[e.Peer]
		}
	}
	return nil
}

// ResetFromSnapshot replaces the server's entire peer state with the
// snapshot's, keeping only the configured landmark set (union the
// snapshot's). It is the follower's catch-up restore. The new state, index
// included, is built outside both locks and swapped in only if the whole
// snapshot, end frame included, was good and every op applied; otherwise the
// previous state stays.
func (s *Server) ResetFromSnapshot(r io.Reader) error {
	snap, err := readSnapshot(r)
	if err != nil {
		return err
	}
	fresh, _ := newState(&s.cfg, NewIndex()) // the landmark set was checked at construction
	if err := fresh.load(snap); err != nil {
		return err
	}
	s.wmu.Lock()
	s.mu.Lock()
	s.st = fresh
	s.mu.Unlock()
	s.wmu.Unlock()
	return nil
}

// Adopt gives each server of dst the state of the server at the same
// position in src, all of them in one step: every server of dst has its
// writer mutex and then its state lock taken, in order, before the first
// state changes hands, so a reader or writer of any of them sees the old
// states or the new ones, never a mix. The servers of src share one index,
// which dst's states then share; src must not be used afterwards. It is how
// a cluster publishes a state it loaded off to the side.
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
