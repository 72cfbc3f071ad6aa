// Package server implements the paper's management server: the component
// that stores every peer's router path to its landmark and answers a
// newcomer's closest-peers query (the "second round" of the protocol).
//
// The server maintains one path tree per landmark. A peer joins by reporting
// the router path from itself to its closest landmark (which the peer
// discovered in the "first round" with the traceroute-like tool); the server
// answers with the k peers whose paths indicate they are nearest, then
// inserts the newcomer so later arrivals can discover it. Joins are answered
// on one road, JoinBatchInto: a single join is a batch of one (JoinOp).
//
// The server also implements the paper's future-work items: peer departure
// and expiry (faulty peers / handover), and super-peer delegation.
//
// # What is resident
//
// Per landmark, one pathtree.Core: the trie of routers and, chained to the
// router each peer's path ends at, one fixed-size pathtree.Record per peer —
// ID, refresh time in nanoseconds, super-peer flag, and the address: an IPv4
// endpoint in its canonical form in the record itself, any other address as
// text in the tree's address pool. The record and the address are all that
// is stored of a peer. Its path is not: it is the chain of routers from the
// record's node up to the landmark, and PeerInfo and snapshots rebuild it
// from there. Beside the trees there is one table, the Index, from peer ID to
// (landmark, slot), which is how every peer-keyed request finds the record.
// A lone server owns its index; the servers of a cluster share one, so a
// node holds one entry per peer however many shards it runs — the entry
// names a landmark, not a server, and the cluster routes by it too.
// Measured with 50 000 loadgen.TreePath peers carrying 13- to 17-byte IPv4
// endpoints over four landmarks (TestResidentBytesPerPeer here,
// TestNodeResidentBytesPerPeer for a 4-shard cluster: within a byte), a
// peer costs
//
//	peer records      32 B/peer   one 32-byte slot each, the address in it
//	addresses          0 B/peer   (a text address: runs in 8-byte size classes)
//	trie nodes        44 B/peer   32-byte slots in sibling runs, 1.38 per peer:
//	                              1.37 routers and the runs' slack
//	peer index        20 B/peer   16-byte {peer key, landmark, slot} slots, 64 tables
//	chunk slack        1 B/peer   at most one chunk per pool per tree
//	                  97 B/peer
//
// There is one copy of all of it, and no pool holds a pointer, so no peer is
// a heap object of its own: a collection marks one chunk per few hundred
// peers and scans none. Pointer-free also saves bytes: an address held as a
// string of its own would add a 16-byte header to the record, and a chunk
// holding pointers pays the allocator an 8-byte header, which would push a
// 12 KiB chunk of 48-byte records into the next size class (53 B a record,
// not 32). The index's tables are rebuilt a quarter larger at a load of 0.9,
// so where a fill stops decides what a slot costs: 19.5–20.1 B per entry at
// 50 000 peers, 20.7 at 178 000, 21.1 on average over fills up to a million
// (TestIndexBytesPerEntry).
//
// # Concurrency: two locks and a leaf
//
// The writer mutex (wmu) serialises mutators: every op is applied once, by
// one goroutine at a time, in the order they won the mutex. Every whole-state
// walk holds it too — collect (Snapshot, WriteSnapshot), Peers, and
// the scan by which an expiry sweep finds its peers. A walk is a writer that
// does not write: holding wmu it reads the state with no other lock, writers
// queue behind it, and lookups do not notice it: a lookup, and a metrics
// scrape, return while a walk holds wmu
// (TestLookupProceedsWhileWriterMutexHeld), and a lookup beside churning
// writers never sees a torn or recycled record (TestReadersDuringChurn, and
// package pathtree's TestConcurrentChurnQueryNeverSeesRecycled).
//
// The state lock (mu, an RWMutex) is what lookups take. Lookup, PeerInfo,
// NumPeers, Stats, ArenaStats and Landmarks read-hold it. A writer, wmu
// already held, takes it exclusively around one single mutation and nothing
// else: one state.join per entry of a batch (the answer is written into the
// caller's answer block after the release), one Remove per expired peer
// or retired orphan.
// So the order is wmu → mu, a reader waits for at most the one mutation in
// progress, and a writer for the lookups in flight when it asks. Adopt, the
// one assignment of a whole state, takes every one's wmu, then every one's
// mu, in the order given, for servers whose new states were built off to the
// side before either lock was taken (ResetFromSnapshot, a cluster's restore);
// callers run one at a time.
//
// An index stripe's lock is a leaf: wmu → mu → stripe, nothing taken under
// it. The rules that make one index safe for several servers:
//
//   - An entry that names a tree is written, and deleted, only by the server
//     that holds the tree, under its exclusive mu hold — so under any hold of
//     mu, an entry naming a tree held here names a live record of that peer.
//   - The exception is a join on another server, which overwrites the entry
//     to name its own tree, any time. The record the old entry named is now
//     an orphan. The joining server reports it (TakeOrphans); whoever routes
//     between the servers has its tree's holder retire it (Retire), by
//     (landmark, slot), under the rule: remove iff the slot is live, its ID
//     is the peer, and the index no longer says this place. Until then the
//     orphan still shows in its old neighbours' answers, as a peer that left
//     without saying so would.
//   - A reader that finds an entry naming a tree it does not hold answers
//     ErrUnknownPeer, and the router, which reads the same entry, asks the
//     landmark's owner instead.
//
// The hold is per entry, not per batch, because that — not a second copy of
// the state — is what keeps lookups off the writers' path. This package
// once kept two copies (left-right: writers mutate the copy no reader is
// sent to, publish it, then repeat the mutation on the other), which cost
// 133 B/peer and a second application of every op, live and replayed.
// BenchmarkLookupBesideBatchWriter — 100 000 peers, one reader timing each
// lookup, beside one writer running JoinBatchOp of 32 flat out, 2 CPUs —
// measured, lookup p50 / p99 and both sides' throughput:
//
//	                          p50       p99    lookups/s   joins/s
//	no writer                1.3 µs    5.3 µs    634k        —
//	left-right, two copies   1.6 µs   12.3 µs    459k       249k
//	one copy, mu per batch  35.9 µs   76.5 µs     26k       817k
//	one copy, mu per entry   3.0 µs   19.2 µs    230k       236k
//	  the same, map index    2.9 µs    7.7 µs    312k       281k
//	  the same, flat index   3.0 µs    8.3 µs    285k       271k   (this package)
//
// (medians of three alternated runs each, and of ten for the last two rows,
// run against each other on a later day). Held across a batch, the lock
// makes every lookup wait out up to 32 joins and starves the reader 17-fold;
// held per entry a lookup's median stays within a join's length of the
// uncontended one. What is left of the gap to left-right is the price of
// parking: a reader that meets a writer sleeps and is woken, where under
// left-right it never met one.
//
// Some joins are longer: those whose insert rebuilds an index table, under
// the stripe lock, with mu held, and that server's lookups wait them out. A
// table is rebuilt each time its entries grow by a quarter, so with n peers
// resident about one new peer in n/256 does it. TestIndexBytesPerEntry logs
// each stripe's latest rebuild, on 2 CPUs: a median of 35–50 µs and a
// longest of 50–80 µs at 178 000 peers, 0.2–0.3 ms and 0.25–0.4 ms at a
// million. A re-join, every write of the benchmark above, rebuilds nothing.
// BenchmarkLookupBesideFill has the writer add peers instead, from 100 000 to
// 400 000, so every table is rebuilt six or seven times under the reader;
// medians of ten runs alternated with the map index:
//
//	                          p50       p99    lookups/s   joins/s
//	fill, map index          2.8 µs   16.8 µs    290k       237k
//	fill, flat index         2.9 µs   18.0 µs    271k       223k   (this package)
//
// The two sides' runs overlap: the flat index's p99 is higher in 8 of those
// 10 pairs and lower in 5 of 8 later ones. 256 stripes, whose rebuilds stall
// a sixth as long, measured the same as 64.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// DefaultNeighborCount is the size of the neighbour list returned to
// newcomers when Config.NeighborCount is zero.
const DefaultNeighborCount = 5

// ErrUnknownLandmark is returned when a reported path does not terminate at
// a registered landmark.
var ErrUnknownLandmark = errors.New("server: path does not end at a registered landmark")

// ErrBadJoin is returned for a join ValidateJoin refuses, whatever the state
// holds: its path is empty, repeats a router, holds an anonymous one or runs
// past the path cap, or its address runs past the address cap. The fault is
// the caller's. A server, which trusts its entries, returns it for an empty
// path alone.
var ErrBadJoin = errors.New("server: malformed join")

// ErrUnknownPeer is returned by lookups for absent peers.
var ErrUnknownPeer = errors.New("server: unknown peer")

// noRef is the ref of no record: no path holds an anonymous router, so no
// tree is rooted at one.
var noRef = ref{lm: topology.InvalidNode}

// Config parameterizes the management server.
type Config struct {
	// Landmarks lists the landmark routers. At least one is required.
	Landmarks []topology.NodeID
	// NeighborCount is the number of closest peers returned to a newcomer
	// (the paper's "short list"). Defaults to DefaultNeighborCount.
	NeighborCount int
	// Clock supplies the current time; defaults to time.Now. Simulations
	// inject a virtual clock here.
	Clock func() time.Time
}

// PeerInfo is what the server knows of one peer, as PeerInfo() reports it.
// It is assembled per call from the peer's record and the trie, not stored.
type PeerInfo struct {
	// Landmark is the landmark whose tree holds the peer.
	Landmark topology.NodeID
	// Path is the reported router path, peer-side first: the routers from
	// the peer's trie node up to the landmark.
	Path []topology.NodeID
	// Addr is the peer's advertised overlay address, when the join came in
	// over the wire ("" for in-process joins). It is durable state: it
	// rides in join ops, snapshots, and the WAL, so a restarted node's
	// answers carry dialable endpoints.
	Addr string
	// SuperPeer marks peers that volunteered to answer locality queries
	// for their vicinity.
	SuperPeer bool
	// LastRefresh is the time of the last join/refresh.
	LastRefresh time.Time
}

// Stats counts server activity and state.
type Stats struct {
	// Peers is the current number of registered peers.
	Peers int
	// Joins, Leaves, Expiries, and Queries count operations since start.
	Joins, Leaves, Expiries, Queries int
	// SuperPeerDelegations counts queries answered by delegating to a
	// nearby super-peer rather than by a full tree walk.
	SuperPeerDelegations int
}

// state is the server's mutable state: the trees and the peer index. A
// server holds one, and only Adopt replaces it whole.
type state struct {
	trees map[topology.NodeID]*pathtree.Core
	// idx says where each registered peer's record lives: the server's own,
	// or the one it shares with the other servers of its node, in which case
	// it also holds entries that name trees held by them.
	idx *Index
}

// Server is the management server. It is safe for concurrent use.
type Server struct {
	cfg Config

	// wmu is the writer mutex. It serialises mutators, and every whole-state
	// walk holds it too: a walk is a writer that does not write. Nothing
	// changes st without it, so its holder reads st with no other lock.
	wmu sync.Mutex
	// mu is the state lock. Readers of one peer or one number read-hold it;
	// a writer, wmu already held, takes it exclusively around one single
	// mutation and nothing else. See the package comment.
	mu sync.RWMutex
	st state

	// wsc is the writers' query scratch: answering joins run one at a time,
	// under wmu.
	wsc pathtree.Scratch

	// walkHook, when set, runs at the start of every whole-state walk, with
	// wmu held and mu not. Tests park a walk in it; nothing else sets it.
	walkHook func()

	// orphans holds what joins here have orphaned and TakeOrphans has not yet
	// handed out; orphaned says there are some, so that asking costs the
	// usual join, which orphans nothing, one atomic load.
	orphanMu sync.Mutex
	orphans  []Orphan
	orphaned atomic.Bool

	joins, leaves, expiries, queries, delegations atomic.Int64
}

// Orphan names a record that a join on this server left without an index
// entry, in a tree this server does not hold: the peer was registered under a
// landmark held by another server that shares the index, and the join
// re-pointed its entry here. Whoever routes between the servers retires the
// record on the holder of Landmark (Retire).
type Orphan struct {
	Peer     pathtree.PeerID
	Landmark topology.NodeID
	slot     int32
}

// New builds a server for the given landmark set.
func New(cfg Config) (*Server, error) {
	if len(cfg.Landmarks) == 0 {
		return nil, errors.New("server: at least one landmark required")
	}
	return newServer(cfg, NewIndex())
}

// NewSharing builds a server that reads and writes idx instead of an index
// of its own: one shard of a cluster, over its share of the node's
// landmarks, which hands the same index to all of them. Such a server is
// reset from a snapshot only together with the others sharing its index, by
// Adopt, never by ResetFromSnapshot, which would leave it with a private
// index again.
func NewSharing(cfg Config, idx *Index) (*Server, error) {
	return newServer(cfg, idx)
}

func newServer(cfg Config, idx *Index) (*Server, error) {
	if cfg.NeighborCount == 0 {
		cfg.NeighborCount = DefaultNeighborCount
	}
	if cfg.NeighborCount < 0 {
		return nil, fmt.Errorf("server: negative NeighborCount %d", cfg.NeighborCount)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Server{cfg: cfg}
	s.st = state{trees: make(map[topology.NodeID]*pathtree.Core, len(cfg.Landmarks)), idx: idx}
	for _, lm := range cfg.Landmarks {
		if _, dup := s.st.trees[lm]; dup {
			return nil, fmt.Errorf("server: duplicate landmark %d", lm)
		}
		s.st.trees[lm] = pathtree.NewCore(lm)
	}
	return s, nil
}

// walking marks the start of a whole-state walk. The caller holds wmu, which
// keeps every mutator out for as long as the walk lasts, and does not hold
// mu, so lookups run beside the walk.
func (s *Server) walking() {
	if s.walkHook != nil {
		s.walkHook()
	}
}

// Landmarks returns the registered landmark routers in ascending order.
// A restore or a Move record can change the tree set, so the read needs the
// state lock.
func (s *Server) Landmarks() []topology.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]topology.NodeID, 0, len(s.st.trees))
	for lm := range s.st.trees {
		out = append(out, lm)
	}
	slices.Sort(out)
	return out
}

// NeighborCount reports the configured answer size.
func (s *Server) NeighborCount() int { return s.cfg.NeighborCount }

// stamp fills a zero op timestamp from the server clock, so every copy
// that later applies or replays the op sees the same instant.
func (s *Server) stamp(o op.Op) op.Op {
	if o.Time == 0 {
		o.Time = s.cfg.Clock().UnixNano()
	}
	return o
}

// Apply is the server's single mutation entry point: it applies one typed
// operation without computing any answer. Every path that moves writes
// around — follower replication, WAL recovery — calls Apply, so a
// replayed stream reaches exactly the state the original stream built.
// The answering road, JoinBatchInto, which answers a single join as a
// batch of one, registers through the same core. A zero o.Time is stamped
// from the server clock; stamped ops apply at their recorded instant
// regardless of the local clock. A join entry is trusted: it passed
// ValidateJoin at one of the two doors (see ValidateJoin), and Apply
// checks only that its path ends at a landmark held here.
func (s *Server) Apply(o op.Op) error {
	o = s.stamp(o)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	switch o.Kind {
	case op.KindJoin:
		_, err := s.register(&o.Join, o.Time, nil)
		if err == nil {
			s.joins.Add(1)
		}
		return err
	case op.KindBatchJoin:
		// An entry whose landmark is not held here is skipped, matching the
		// answering path's per-entry isolation.
		n := 0
		for i := range o.Batch {
			if _, err := s.register(&o.Batch[i], o.Time, nil); err == nil {
				n++
			}
		}
		s.joins.Add(int64(n))
		return nil
	case op.KindExpire:
		s.expire(o.Time)
		return nil
	}
	s.mu.Lock()
	err := s.st.apply(o)
	s.mu.Unlock()
	if err == nil && o.Kind == op.KindLeave {
		s.leaves.Add(1)
	}
	return err
}

// ValidateJoin is the check a join entry passes where it enters from outside
// the program, before any state sees it: past it, server, state and trie
// trust the entry, as pathtree.Core trusts its caller. There are two doors.
// A cluster's route asks it of every entry on every road of a join —
// answered, applied, followed, replayed, loaded — before any lock
// (TestOversizeJoinRefusedAtTheDoor, TestApplyRefusesBatchWithABadEntry,
// TestRefusedLoadLeavesNoApplier); ResetFromSnapshot asks it of every entry
// of the bytes it reads into a bare server (FuzzResetFromSnapshot). That the
// path ends at a landmark held here is the one check left to the state,
// which alone knows its trees. The op format's caps are checked here too,
// not when the op is encoded for the log after it has applied: the trees'
// address pools rely on the address cap, and their one-byte depths on the
// path cap, which ValidatePath checks. Every refusal wraps ErrBadJoin.
func ValidateJoin(e *op.JoinEntry) error {
	var err error
	switch {
	case len(e.Path) == 0:
		err = errors.New("empty path")
	case len(e.Addr) > op.MaxAddrLen:
		err = fmt.Errorf("address of %d bytes exceeds %d", len(e.Addr), op.MaxAddrLen)
	default:
		err = pathtree.ValidatePath(e.Path, e.Path[len(e.Path)-1])
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadJoin, err)
	}
	return nil
}

// apply dispatches an op that is one single mutation of a registered peer or
// of a landmark (joins go through register; a sweep is one mutation per
// expired peer, and Server.expire takes it apart). The caller holds the
// state lock exclusively, or owns st outright.
func (st *state) apply(o op.Op) error {
	switch o.Kind {
	case op.KindLeave:
		tree, r, err := st.find(o.Peer)
		if err != nil {
			return err
		}
		tree.Remove(r.slot)
		// The entry stays if another server's join has just re-pointed it:
		// what was removed is then the record that join orphaned.
		st.idx.deleteIf(o.Peer, r)
		return nil
	case op.KindRefresh:
		rec, err := st.record(o.Peer)
		if err != nil {
			return err
		}
		rec.RefreshNanos = o.Time
		return nil
	case op.KindSetSuperPeer:
		rec, err := st.record(o.Peer)
		if err != nil {
			return err
		}
		rec.Super = o.Super
		return nil
	case op.KindMoveLandmark:
		// A snapshot's Move records bring their landmarks into a state being
		// loaded: the tree is created if absent. The shards and epoch a
		// record names, which builds that moved landmarks between shards
		// wrote, mean nothing to a server.
		lm := o.Move.Landmark
		if _, ok := st.trees[lm]; !ok {
			st.trees[lm] = pathtree.NewCore(lm)
		}
		return nil
	default:
		return fmt.Errorf("server: cannot apply op kind %d", o.Kind)
	}
}

// JoinOp answers and applies a KindJoin op as a batch of one
// (JoinBatchInto), its answer copied out of a pooled block.
func (s *Server) JoinOp(o op.Op) ([]pathtree.Candidate, error) {
	return pathtree.Answered(func(ans *pathtree.Answers) (pathtree.Answer, error) {
		ans.Reset(1)
		s.JoinBatchInto(op.BatchJoin([]op.JoinEntry{o.Join}, o.Time), nil, ans)
		return ans.Entries[0], ans.Entries[0].Err
	})
}

// register is one join's visit to the state, for a caller holding wmu. The
// state lock is held exclusively for st.join alone — the descent, the
// newcomer's query on the way down, the attach — and released before the
// answer is written from the scratch into ans: reading the hits' records
// and addresses needs only wmu. Lookups therefore wait for at most one
// join, however long the batch the join came in. A nil ans registers the
// peer without answering.
func (s *Server) register(e *op.JoinEntry, timeNanos int64, ans *pathtree.Answers) (pathtree.Answer, error) {
	k := 0
	if ans != nil {
		k = s.cfg.NeighborCount
	}
	s.mu.Lock()
	tree, _, hits, orphan, err := s.st.join(e, timeNanos, k, &s.wsc)
	s.mu.Unlock()
	if orphan != noRef {
		s.orphanMu.Lock()
		s.orphans = append(s.orphans, Orphan{e.Peer, orphan.lm, orphan.slot})
		s.orphaned.Store(true)
		s.orphanMu.Unlock()
	}
	if err != nil || ans == nil {
		return pathtree.Answer{}, err
	}
	run, _ := answer(tree, hits, ans)
	return run, nil
}

// find returns the tree and place of peer p's record. A peer whose entry
// names a tree not held here is unknown to this server: the record is on
// another server that shares the index, and whoever routes between them
// reads the entry's landmark and asks that one.
func (st *state) find(p pathtree.PeerID) (*pathtree.Core, ref, error) {
	if r, ok := st.idx.get(p); ok {
		if tree := st.trees[r.lm]; tree != nil {
			return tree, r, nil
		}
	}
	return nil, noRef, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
}

// record returns peer p's record.
func (st *state) record(p pathtree.PeerID) (*pathtree.Record, error) {
	tree, r, err := st.find(p)
	if err != nil {
		return nil, err
	}
	return tree.Record(r.slot), nil
}

// answer appends a query's hits to ans as one run of candidates, each
// address written into the block from its record, and reports whether a
// super-peer sits within delegation range (dtree ≤ 2).
func answer(tree *pathtree.Core, hits []pathtree.Hit, ans *pathtree.Answers) (run pathtree.Answer, superNear bool) {
	run.Lo = int32(len(ans.Cands))
	for _, h := range hits {
		rec := ans.Add(tree, h)
		superNear = superNear || (rec.Super && h.DTree <= 2)
	}
	run.Hi = int32(len(ans.Cands))
	return run, superNear
}

// join is the one registration road, shared by the answering and the silent
// paths so their semantics can never drift apart: it resolves the entry's
// landmark tree, retires the record of a peer that re-joins (under whichever
// landmark held here it was), and attaches the peer at the end of its path
// with a fresh record stamped at the op's time, which it returns as (tree,
// slot). With k > 0 the newcomer's k closest peers are found on the way down
// the path, before it is attached, so a peer never appears in its own answer;
// the hits alias sc, that query's scratch. The entry has passed ValidateJoin
// at a door; what join checks is the lookup only the state can make, that
// the path's last router names a tree held here, which an empty path does
// not.
//
// orphan is noRef unless the entry the join replaced names a tree not held
// here. Only the holder of a tree writes entries that name it, and the caller
// holds this server's state lock, so an entry read before the descent and
// naming a tree held here is still the entry replaced after it.
func (st *state) join(e *op.JoinEntry, timeNanos int64, k int, sc *pathtree.Scratch) (tree *pathtree.Core, slot int32, hits []pathtree.Hit, orphan ref, err error) {
	if len(e.Path) == 0 {
		return nil, 0, nil, noRef, fmt.Errorf("%w: empty path", ErrBadJoin)
	}
	lm := e.Path[len(e.Path)-1]
	tree, ok := st.trees[lm]
	if !ok {
		return nil, 0, nil, noRef, fmt.Errorf("%w (router %d)", ErrUnknownLandmark, lm)
	}
	if old, had := st.idx.get(e.Peer); had {
		if held := st.trees[old.lm]; held != nil {
			held.Remove(old.slot)
		}
	}
	slot, hits = tree.Join(e.Peer, e.Path, k, sc)
	orphan = noRef
	if old, had := st.idx.swap(e.Peer, ref{lm, slot}); had && st.trees[old.lm] == nil {
		orphan = old
	}
	rec := tree.Record(slot)
	rec.RefreshNanos = timeNanos
	tree.SetAddr(rec, e.Addr)
	return tree, slot, hits, orphan, nil
}

// TakeOrphans returns the records joins here have orphaned since the last
// call. With a private index there never are any.
func (s *Server) TakeOrphans() []Orphan {
	if !s.orphaned.Load() {
		return nil
	}
	s.orphanMu.Lock()
	defer s.orphanMu.Unlock()
	s.orphaned.Store(false)
	out := s.orphans
	s.orphans = nil
	return out
}

// Retire removes an orphan from the tree it was left in and reports whether
// there was anything to remove. The record goes iff the slot is live, its ID
// is the peer, and the index no longer says this place: a slot since
// recycled — even for the same peer, re-registered where it was — is
// someone's live record and stays. A server that does not hold the orphan's
// landmark answers ErrUnknownLandmark: whoever routes between the servers
// asks its holder.
func (s *Server) Retire(o Orphan) (bool, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	tree := s.st.trees[o.Landmark]
	if tree == nil {
		return false, fmt.Errorf("%w (router %d)", ErrUnknownLandmark, o.Landmark)
	}
	if !tree.Holds(o.slot, o.Peer) {
		return false, nil
	}
	if cur, ok := s.st.idx.get(o.Peer); ok && cur == (ref{o.Landmark, o.slot}) {
		return false, nil
	}
	tree.Remove(o.slot)
	return true, nil
}

// BatchResult is the per-entry outcome of JoinBatchOp: nil, or the error
// that refused the entry. The entries' answers are what JoinBatchInto
// writes into its block.
type BatchResult struct {
	Err error
}

// JoinBatchInto answers and applies a KindBatchJoin op under a single
// writer round — the flash-crowd fast path: one acquisition of the writer
// mutex for the whole batch, the state lock taken entry by entry so lookups
// slip in between. Entries are applied in order (so a duplicate peer within
// the batch behaves exactly like sequential joins), and one entry's failure
// does not affect the others. Entry k's answer, or its refusal, goes to
// ans.Entries[at[k]] (ans.Entries[k] when at is nil), its candidates
// appended to the block. The entries are trusted, as Apply trusts them: a
// cluster's route checked each before the batch got here, and the only
// refusal left is a path that names no tree held here. Callers that record
// or propagate the op must first trim it to the entries that succeeded, so
// followers and logs never see a rejected entry.
func (s *Server) JoinBatchInto(o op.Op, at []int32, ans *pathtree.Answers) {
	o = s.stamp(o)
	entry := func(k int) *pathtree.Answer {
		if at == nil {
			return &ans.Entries[k]
		}
		return &ans.Entries[at[k]]
	}
	n := 0
	s.wmu.Lock()
	for k := range o.Batch {
		e := entry(k)
		if *e, e.Err = s.register(&o.Batch[k], o.Time, ans); e.Err == nil {
			n++
		}
	}
	s.wmu.Unlock()
	s.joins.Add(int64(n))
	s.queries.Add(int64(n))
}

// JoinBatchOp is JoinBatchInto into a pooled block, of which it keeps each
// entry's outcome.
func (s *Server) JoinBatchOp(o op.Op) []BatchResult {
	ans := pathtree.GetAnswers()
	defer ans.Release()
	ans.Reset(len(o.Batch))
	s.JoinBatchInto(o, nil, ans)
	return Results(ans)
}

// Results reads each entry's outcome out of a batch's answer block.
func Results(ans *pathtree.Answers) []BatchResult {
	out := make([]BatchResult, len(ans.Entries))
	for i, e := range ans.Entries {
		out[i].Err = e.Err
	}
	return out
}

// LookupInto re-answers the closest-peers query for an already registered
// peer, appending the answer to ans and returning its run. When a
// super-peer exists at dtree 0..2 from the peer, the server delegates
// (counts the delegation and still answers, modelling the super-peer
// answering from its local cache). LookupInto read-holds the state lock: it
// waits for at most the one mutation a writer is in the middle of, never
// for a batch, a snapshot or any other walk.
func (s *Server) LookupInto(p pathtree.PeerID, ans *pathtree.Answers) (pathtree.Answer, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tree, r, err := s.st.find(p)
	if err != nil {
		return pathtree.Answer{}, err
	}
	sc := pathtree.GetScratch()
	run, superNear := answer(tree, tree.Closest(r.slot, s.cfg.NeighborCount, sc), ans)
	sc.Release()
	s.queries.Add(1)
	if superNear {
		s.delegations.Add(1)
	}
	return run, nil
}

// Lookup is LookupInto with its answer copied out of a pooled block.
func (s *Server) Lookup(p pathtree.PeerID) ([]pathtree.Candidate, error) {
	return pathtree.Answered(func(ans *pathtree.Answers) (pathtree.Answer, error) { return s.LookupInto(p, ans) })
}

// Refresh updates a peer's liveness timestamp (heartbeat).
func (s *Server) Refresh(p pathtree.PeerID) error {
	return s.Apply(op.Refresh(p, 0))
}

// Leave removes peer p; it reports whether the peer was registered.
func (s *Server) Leave(p pathtree.PeerID) bool {
	return s.Apply(op.Leave(p)) == nil
}

// expire sweeps out peers whose last refresh is strictly before the cutoff
// (Unix nanoseconds), counts them and returns their IDs in ascending order.
// The caller holds wmu. Finding the expired is a walk, made tree by tree
// under wmu alone; each removal is a mutation with a state-lock hold of its
// own.
func (s *Server) expire(cutoff int64) []pathtree.PeerID {
	s.walking()
	var out []pathtree.PeerID
	var slots []int32
	for lm, tree := range s.st.trees {
		slots = slots[:0]
		for slot, rec := range tree.Records() {
			if rec.RefreshNanos < cutoff {
				slots = append(slots, slot)
			}
		}
		for _, slot := range slots {
			s.mu.Lock()
			// An orphan past the deadline goes too, unreported: its peer is
			// registered elsewhere.
			if p := tree.Record(slot).ID; s.st.idx.deleteIf(p, ref{lm, slot}) {
				out = append(out, p)
			}
			tree.Remove(slot)
			s.mu.Unlock()
		}
	}
	s.expiries.Add(int64(len(out)))
	slices.Sort(out)
	return out
}

// ExpireOp applies a KindExpire op and returns the expired IDs — the
// answering form of the sweep; Apply runs the identical sweep silently.
// Because the op carries its deadline and every peer's refresh time comes
// from op timestamps, every copy that applies the same ExpireOp expires
// exactly the same peers.
func (s *Server) ExpireOp(o op.Op) []pathtree.PeerID {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.expire(o.Time)
}

// PeerInfo returns the record for peer p. Its Path is rebuilt from the trie
// (the routers from the peer's node up to the landmark) into a slice the
// caller owns.
func (s *Server) PeerInfo(p pathtree.PeerID) (PeerInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tree, r, err := s.st.find(p)
	if err != nil {
		return PeerInfo{}, err
	}
	rec := tree.Record(r.slot)
	var addr [op.MaxAddrLen]byte
	return PeerInfo{
		Landmark:    r.lm,
		Path:        tree.AppendPath(make([]topology.NodeID, 0, tree.Depth(r.slot)+1), r.slot),
		Addr:        string(tree.AppendAddr(addr[:0], rec)),
		SuperPeer:   rec.Super,
		LastRefresh: time.Unix(0, rec.RefreshNanos),
	}, nil
}

// resident counts the records in the trees held here. The caller holds wmu
// or mu.
func (st *state) resident() int {
	n := 0
	for _, tree := range st.trees {
		n += tree.Len()
	}
	return n
}

// NumPeers reports the number of peers registered here: the records in the
// trees this server holds, not the entries of an index it may share.
func (s *Server) NumPeers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.resident()
}

// ArenaStats sums the pool occupancy of the trees held here. It reads each
// tree's counters and walks nothing.
func (s *Server) ArenaStats() pathtree.ArenaStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum pathtree.ArenaStats
	for _, tree := range s.st.trees {
		sum = sum.Plus(tree.ArenaStats())
	}
	return sum
}

// Peers returns all registered peer IDs in ascending order.
func (s *Server) Peers() []pathtree.PeerID {
	s.wmu.Lock()
	s.walking()
	out := make([]pathtree.PeerID, 0, s.st.resident())
	for _, tree := range s.st.trees {
		for _, rec := range tree.Records() {
			out = append(out, rec.ID)
		}
	}
	s.wmu.Unlock()
	slices.Sort(out)
	return out
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Peers:                s.st.resident(),
		Joins:                int(s.joins.Load()),
		Leaves:               int(s.leaves.Load()),
		Expiries:             int(s.expiries.Load()),
		Queries:              int(s.queries.Load()),
		SuperPeerDelegations: int(s.delegations.Load()),
	}
}
