// Package server implements the paper's management server: the component
// that stores every peer's router path to its landmark and answers a
// newcomer's closest-peers query (the "second round" of the protocol).
//
// The server maintains one path tree per landmark. A peer joins by reporting
// the router path from itself to its closest landmark (which the peer
// discovered in the "first round" with the traceroute-like tool); the server
// answers with the k peers whose paths indicate they are nearest, then
// inserts the newcomer so later arrivals can discover it.
//
// The server also implements the paper's future-work items: peer departure
// and expiry (faulty peers / handover), and super-peer delegation.
//
// # What is resident
//
// Per landmark, one pathtree.Core: the trie of routers and, chained to the
// router each peer's path ends at, one fixed-size pathtree.Record per peer —
// ID, refresh time in nanoseconds, address, super-peer flag. The record is
// all that is stored of a peer. Its path is not: it is the chain of routers
// from the record's node up to the landmark, and PeerInfo and snapshots
// rebuild it from there. Beside the trees a state copy holds one map, from
// peer ID to (landmark, slot), which is how every peer-keyed request finds
// the record. Measured with 50 000 loadgen.TreePath peers carrying addresses
// over four landmarks (TestResidentBytesPerPeer), one state copy costs
//
//	peer records      48 B/peer   one 48-byte slot each
//	trie nodes        44 B/peer   32-byte slots, 1.37 routers per peer
//	child runs        11 B/peer   8-byte {router, node} pairs
//	peers map         29 B/peer   int64 → {int32, int32}, no pointers
//	chunk slack        1 B/peer   at most one chunk per pool per tree
//	                 133 B/peer
//
// and the server keeps two copies (below), 266 B/peer in all, plus the
// address string's bytes, which the copies share. Of those pools only the
// records hold a pointer (the address), so a collection marks one object per
// 256 peers instead of several per peer.
//
// # Concurrency: left-right read views
//
// The server keeps two complete copies of its state (trees, peer records,
// epochs). Readers load the currently published copy through an atomic
// pointer and read it under that copy's RLock; writers serialize on a
// writer mutex, mutate the unpublished copy, atomically publish it, and
// then replay the same mutation on the retired copy. The per-copy RWMutex
// is a grace-period fence, not a contention point: a writer's Lock only
// waits for stale readers that loaded the copy before it was retired —
// steady-state readers always hold the published copy and never wait on a
// writer, and a whole Apply batch costs readers at most one pointer load.
// Contending writers flat-combine: mutations queue, and the writer that
// wins the mutex runs the whole queue under a single publication, so k
// concurrent writers pay one grace-period wait instead of k (see mutate).
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

// ErrUnknownPeer is returned by lookups for absent peers.
var ErrUnknownPeer = errors.New("server: unknown peer")

// ErrStaleEpoch rejects a write fenced at an out-of-date landmark epoch:
// the landmark moved between shards after the writer resolved its owner,
// and the deposed owner must not silently accept mutations for a tree it
// no longer serves. Writers recover by re-resolving the owner and
// retrying at the current epoch.
var ErrStaleEpoch = errors.New("server: stale landmark epoch")

// Config parameterizes the management server.
type Config struct {
	// Landmarks lists the landmark routers. At least one is required.
	Landmarks []topology.NodeID
	// NeighborCount is the number of closest peers returned to a newcomer
	// (the paper's "short list"). Defaults to DefaultNeighborCount.
	NeighborCount int
	// PeerTTL, when positive, is the duration after which a peer that has
	// not refreshed is eligible for expiry sweeps (faulty-peer handling).
	PeerTTL time.Duration
	// Clock supplies the current time; defaults to time.Now. Simulations
	// inject a virtual clock here.
	Clock func() time.Time
}

// PeerInfo is what the server knows of one peer, as PeerInfo() reports it.
// It is assembled per call from the peer's record and the trie, not stored.
type PeerInfo struct {
	// ID is the peer's identifier.
	ID pathtree.PeerID
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
	// Publications counts left-right publications: one per combined batch
	// of writes, so writes applied over publications is the flat-combining
	// batch size (see mutate).
	Publications int
	// TreeStats maps each landmark to its path-tree statistics.
	TreeStats map[topology.NodeID]pathtree.Stats
}

// state is one complete copy of the server's mutable state. The server
// keeps two (left-right): the published copy serves readers, the other
// absorbs writes, and they trade places on every write batch. The copies
// share nothing mutable: of a peer, only the bytes of its address string.
type state struct {
	trees map[topology.NodeID]*pathtree.Core
	// peers says where each registered peer's record lives. It is the one
	// per-peer map a copy holds, and it holds no pointers, so the collector
	// never scans it.
	peers map[pathtree.PeerID]ref
	// epochs holds each landmark's fencing epoch. Only landmarks that have
	// moved at least once have an entry; absence means epoch zero. The
	// epoch is durable state: it rides in KindMoveLandmark ops, in the log
	// and in snapshots alike, so every copy agrees on who owns a landmark.
	epochs map[topology.NodeID]uint64
}

// ref locates a peer's record: the landmark whose tree holds it and the slot
// within that tree.
type ref struct {
	lm   topology.NodeID
	slot int32
}

// side pairs one state copy with its grace-period fence.
type side struct {
	mu sync.RWMutex
	st state
}

// counters is the activity attributable to one applied op; the Server
// folds it into its atomic totals exactly once per op (on the first of
// the two state applications).
type counters struct {
	joins, leaves, expiries int
}

// writeReq is one queued mutation awaiting a combiner. done is buffered:
// a token arriving means a combiner holding wmu already ran (and
// published) this request on the caller's behalf.
type writeReq struct {
	apply func(st *state, first bool)
	done  chan struct{}
}

var writeReqPool = sync.Pool{
	New: func() any { return &writeReq{done: make(chan struct{}, 1)} },
}

// Server is the management server. It is safe for concurrent use.
type Server struct {
	cfg Config

	// wmu serializes writers and guards write; read always points at the
	// published side. See the package comment for the left-right protocol.
	wmu   sync.Mutex
	write *side
	read  atomic.Pointer[side]

	// pendMu guards the flat-combining queue: mutators enqueue here, and
	// whichever of them wins wmu drains the queue and runs the whole batch
	// under a single publication. pendSpare is the drained slice, recycled
	// by the combiner (which owns it, under wmu) to keep enqueueing
	// allocation-free.
	pendMu    sync.Mutex
	pending   []*writeReq
	pendSpare []*writeReq

	// wsc is the writers' query scratch: answering joins run one at a time,
	// under wmu.
	wsc pathtree.Scratch

	joins, leaves, expiries, queries, delegations, publications atomic.Int64
}

// New builds a server for the given landmark set.
func New(cfg Config) (*Server, error) {
	if len(cfg.Landmarks) == 0 {
		return nil, errors.New("server: at least one landmark required")
	}
	return newServer(cfg)
}

// NewEmpty builds a server with no landmark trees: the seed state of a
// freshly added cluster shard, which acquires landmarks through handoff
// (Absorb + KindMoveLandmark) rather than configuration.
func NewEmpty(cfg Config) (*Server, error) {
	cfg.Landmarks = nil
	return newServer(cfg)
}

func newState(cfg *Config) (state, error) {
	st := state{
		trees:  make(map[topology.NodeID]*pathtree.Core, len(cfg.Landmarks)),
		peers:  make(map[pathtree.PeerID]ref),
		epochs: make(map[topology.NodeID]uint64),
	}
	for _, lm := range cfg.Landmarks {
		if _, dup := st.trees[lm]; dup {
			return state{}, fmt.Errorf("server: duplicate landmark %d", lm)
		}
		st.trees[lm] = pathtree.NewCore(lm)
	}
	return st, nil
}

func newServer(cfg Config) (*Server, error) {
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
	a, err := newState(&s.cfg)
	if err != nil {
		return nil, err
	}
	b, _ := newState(&s.cfg)
	s.write = &side{st: a}
	s.read.Store(&side{st: b})
	return s, nil
}

// mutate runs apply against both state copies under the left-right
// protocol. apply is invoked exactly twice: first on the unpublished
// write copy with first=true (answers are computed there), then — after
// that copy has been atomically published to readers — on the retired
// copy with first=false to bring it up to date. apply must effect the
// identical state change on both copies; outside mutate the two copies
// are always equal.
//
// Writers flat-combine: each mutation enqueues, and whichever writer wins
// wmu drains the queue and runs every queued mutation — in enqueue order —
// under ONE publication and ONE pair of grace-period fences. Under
// multi-core contention this turns k writers queued on the old per-write
// protocol (k publications, each waiting out a reader grace period) into
// one combined batch, while an uncontended write costs only an extra
// queue push. Mutations still execute strictly serialized, so apply
// closures need no locking of their own.
func (s *Server) mutate(apply func(st *state, first bool)) {
	req := writeReqPool.Get().(*writeReq)
	req.apply = apply
	s.pendMu.Lock()
	s.pending = append(s.pending, req)
	s.pendMu.Unlock()

	s.wmu.Lock()
	select {
	case <-req.done:
		// A combiner that held wmu before us already ran and published
		// this request; the token receive orders its writes (including
		// our answer closure's results) before our return.
		s.wmu.Unlock()
		req.apply = nil
		writeReqPool.Put(req)
		return
	default:
	}
	// We are the combiner. Drain the queue — it contains our own request
	// and any others that enqueued before we won wmu.
	s.pendMu.Lock()
	batch := s.pending
	s.pending = s.pendSpare[:0]
	s.pendMu.Unlock()

	w := s.write
	// The fence: stale readers that loaded this copy before it was
	// retired (at least one whole batch ago) may still hold RLocks; wait
	// them out and hold the write lock across the mutation so late
	// stragglers block rather than observe a half-applied batch.
	w.mu.Lock()
	for _, r := range batch {
		r.apply(&w.st, true)
	}
	w.mu.Unlock()
	old := s.read.Swap(w)
	s.publications.Add(1)
	s.write = old
	old.mu.Lock()
	for _, r := range batch {
		r.apply(&old.st, false)
	}
	old.mu.Unlock()
	// Hand tokens to the coalesced waiters BEFORE releasing wmu: the next
	// wmu holder must observe its token, or it would combine a batch its
	// own request is no longer part of and return with apply never run.
	for i, r := range batch {
		if r != req {
			r.done <- struct{}{}
		}
		batch[i] = nil
	}
	s.pendSpare = batch[:0]
	s.wmu.Unlock()
	req.apply = nil
	writeReqPool.Put(req)
}

// acquireRead returns the published side with its fence read-held.
// Callers must rs.mu.RUnlock() when done with rs.st.
func (s *Server) acquireRead() *side {
	rs := s.read.Load()
	rs.mu.RLock()
	return rs
}

// addCounters folds one op's activity into the atomic totals.
func (s *Server) addCounters(c counters) {
	if c.joins != 0 {
		s.joins.Add(int64(c.joins))
	}
	if c.leaves != 0 {
		s.leaves.Add(int64(c.leaves))
	}
	if c.expiries != 0 {
		s.expiries.Add(int64(c.expiries))
	}
}

// Landmarks returns the registered landmark routers in ascending order.
// The tree set is mutable at runtime (Absorb, DropLandmark), so the read
// needs the side held.
func (s *Server) Landmarks() []topology.NodeID {
	rs := s.acquireRead()
	defer rs.mu.RUnlock()
	out := make([]topology.NodeID, 0, len(rs.st.trees))
	for lm := range rs.st.trees {
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
// The answering front doors (Join, JoinOp, JoinBatch, Lookup-free writes)
// are thin wrappers over the same core. A zero o.Time is stamped from the
// server clock; stamped ops apply at their recorded instant regardless of
// the local clock.
func (s *Server) Apply(o op.Op) error {
	o = s.stamp(o)
	switch o.Kind {
	case op.KindJoin:
		if err := validateJoin(&o.Join); err != nil {
			return err
		}
	case op.KindBatchJoin:
		o.Batch = validEntries(o.Batch)
	}
	var err error
	s.mutate(func(st *state, first bool) {
		c, e := st.apply(o)
		if first {
			err = e
			s.addCounters(c)
		}
	})
	return err
}

// validateJoin is the check every reported path passes exactly once, at the
// door it enters by (Apply, JoinOp, JoinBatchOp, a snapshot being read),
// before the op reaches either state copy: past it, state and trie trust
// their input. That the path ends at a landmark held here is the one check
// left to the state, which alone knows its trees.
func validateJoin(e *op.JoinEntry) error {
	if len(e.Path) == 0 {
		return errors.New("server: empty path")
	}
	return pathtree.ValidatePath(e.Path, e.Path[len(e.Path)-1])
}

// validEntries drops the entries of a replayed batch that fail validateJoin.
// A recorded batch carries only entries the primary accepted, so none
// should — the copy is made only when one does — but a tolerant replay skips
// a bad entry rather than abort the batch.
func validEntries(batch []op.JoinEntry) []op.JoinEntry {
	invalid := func(e op.JoinEntry) bool { return validateJoin(&e) != nil }
	if !slices.ContainsFunc(batch, invalid) {
		return batch
	}
	return slices.DeleteFunc(slices.Clone(batch), invalid)
}

// apply dispatches one op against a state copy. It must be deterministic:
// the same op against equal copies effects the equal change (mutate runs
// it on both). Join paths have passed validateJoin.
func (st *state) apply(o op.Op) (counters, error) {
	var c counters
	switch o.Kind {
	case op.KindJoin:
		if _, _, err := st.join(&o.Join, o.Time, 0, nil); err != nil {
			return c, err
		}
		c.joins++
		return c, nil
	case op.KindBatchJoin:
		// An entry whose landmark is not held here is skipped, matching the
		// answering path's per-entry isolation.
		for i := range o.Batch {
			if _, _, err := st.join(&o.Batch[i], o.Time, 0, nil); err == nil {
				c.joins++
			}
		}
		return c, nil
	case op.KindLeave:
		if err := st.leave(o.Peer); err != nil {
			return c, err
		}
		c.leaves++
		return c, nil
	case op.KindRefresh:
		rec, err := st.record(o.Peer)
		if err != nil {
			return c, err
		}
		rec.RefreshNanos = o.Time
		return c, nil
	case op.KindSetSuperPeer:
		rec, err := st.record(o.Peer)
		if err != nil {
			return c, err
		}
		rec.Super = o.Super
		return c, nil
	case op.KindExpire:
		c.expiries = len(st.expireBefore(o.Time))
		return c, nil
	case op.KindMoveLandmark:
		// A server applies the epoch half of a handoff: the peer transfer
		// itself travels as a snapshot (Absorb on the destination,
		// DropLandmark on the source). A follower's flat copy holds every
		// landmark, so for it the move IS just the epoch bump; the
		// destination shard sees the op after absorbing the tree. The tree
		// is created if absent so a copy that never held the landmark still
		// records its fence.
		lm := o.Move.Landmark
		if _, ok := st.trees[lm]; !ok {
			st.trees[lm] = pathtree.NewCore(lm)
		}
		if o.Move.Epoch > st.epochs[lm] {
			st.epochs[lm] = o.Move.Epoch
		}
		return c, nil
	default:
		return c, fmt.Errorf("server: cannot apply op kind %d", o.Kind)
	}
}

// Join registers peer p with its reported path and returns its closest
// peers. The answer is computed before insertion, so a peer never appears in
// its own neighbour list. The path must terminate at a registered landmark.
func (s *Server) Join(p pathtree.PeerID, path []topology.NodeID) ([]pathtree.Candidate, error) {
	return s.JoinOp(op.Join(p, path, "", 0))
}

// JoinOp answers and applies a KindJoin op: the op-native form of Join,
// used by front ends that carry overlay addresses and by the cluster's
// primary apply path.
func (s *Server) JoinOp(o op.Op) ([]pathtree.Candidate, error) {
	o = s.stamp(o)
	if err := validateJoin(&o.Join); err != nil {
		return nil, err
	}
	var cands []pathtree.Candidate
	var err error
	s.mutate(func(st *state, first bool) {
		if first {
			_, cands, err = st.join(&o.Join, o.Time, s.cfg.NeighborCount, &s.wsc)
			if err == nil {
				s.joins.Add(1)
				s.queries.Add(1)
			}
			return
		}
		if err == nil {
			// Replay the registration silently on the retired copy; the
			// answer was already computed on the published one.
			_, _, _ = st.join(&o.Join, o.Time, 0, nil)
		}
	})
	return cands, err
}

// record returns peer p's record on this copy.
func (st *state) record(p pathtree.PeerID) (*pathtree.Record, error) {
	r, ok := st.peers[p]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	return st.trees[r.lm].Record(r.slot), nil
}

// answer copies a query's hits out of the scratch into the neighbour list —
// the address read from each candidate's record — and reports whether a
// super-peer sits within delegation range (dtree ≤ 2).
func answer(tree *pathtree.Core, hits []pathtree.Hit) (cands []pathtree.Candidate, superNear bool) {
	cands = make([]pathtree.Candidate, len(hits))
	for i, h := range hits {
		rec := tree.Record(h.Slot)
		cands[i] = pathtree.Candidate{Peer: h.Peer, DTree: int(h.DTree), Addr: rec.Addr}
		superNear = superNear || (rec.Super && h.DTree <= 2)
	}
	return cands, superNear
}

// join is the one registration road, shared by the answering and the silent
// paths so their semantics can never drift apart: it resolves the entry's
// landmark tree, retires the record of a peer that re-joins (under whichever
// landmark it was), and attaches the peer at the end of its path with a
// fresh record stamped at the op's time. With k > 0 the newcomer's k closest
// peers are computed on the way down the path, before it is attached, so a
// peer never appears in its own answer; sc is that query's scratch. The
// entry's path has passed validateJoin.
func (st *state) join(e *op.JoinEntry, timeNanos int64, k int, sc *pathtree.Scratch) (*pathtree.Record, []pathtree.Candidate, error) {
	lm := e.Path[len(e.Path)-1]
	tree, ok := st.trees[lm]
	if !ok {
		return nil, nil, fmt.Errorf("%w (router %d)", ErrUnknownLandmark, lm)
	}
	if old, exists := st.peers[e.Peer]; exists {
		st.trees[old.lm].Remove(old.slot)
	}
	slot, hits := tree.Join(e.Peer, e.Path, k, sc)
	st.peers[e.Peer] = ref{lm, slot}
	rec := tree.Record(slot)
	rec.RefreshNanos, rec.Addr = timeNanos, e.Addr
	var cands []pathtree.Candidate
	if k > 0 {
		cands, _ = answer(tree, hits)
	}
	return rec, cands, nil
}

// BatchJoin is one entry of a batched join.
type BatchJoin struct {
	// Peer is the joining peer.
	Peer pathtree.PeerID
	// Addr is the peer's advertised overlay address ("" for in-process
	// callers).
	Addr string
	// Path is its reported router path, peer-side first.
	Path []topology.NodeID
}

// BatchResult is the per-entry answer of JoinBatch: a neighbour list or an
// error, never both.
type BatchResult struct {
	Neighbors []pathtree.Candidate
	Err       error
}

// JoinBatch registers a batch of peers under a single writer round —
// the flash-crowd fast path: one left-right publication amortized over
// the whole batch instead of per join. Entries are applied in order
// (so a duplicate peer within the batch behaves exactly like sequential
// joins), and one entry's failure does not affect the others.
func (s *Server) JoinBatch(items []BatchJoin) []BatchResult {
	entries := make([]op.JoinEntry, len(items))
	for i, it := range items {
		entries[i] = op.JoinEntry{Peer: it.Peer, Addr: it.Addr, Path: it.Path}
	}
	return s.JoinBatchOp(op.BatchJoin(entries, 0))
}

// JoinBatchOp answers and applies a KindBatchJoin op, entry by entry in
// order under one writer round. Callers that record or propagate the op
// must first trim it to the entries that succeeded, so followers and logs
// never see a rejected entry.
func (s *Server) JoinBatchOp(o op.Op) []BatchResult {
	o = s.stamp(o)
	out := make([]BatchResult, len(o.Batch))
	if len(o.Batch) == 0 {
		return out
	}
	for i := range o.Batch {
		out[i].Err = validateJoin(&o.Batch[i])
	}
	s.mutate(func(st *state, first bool) {
		n := 0
		for i := range o.Batch {
			switch e := &o.Batch[i]; {
			case out[i].Err != nil:
				// Rejected at the door or by the first application.
			case first:
				if _, out[i].Neighbors, out[i].Err = st.join(e, o.Time, s.cfg.NeighborCount, &s.wsc); out[i].Err == nil {
					n++
				}
			default:
				_, _, _ = st.join(e, o.Time, 0, nil)
			}
		}
		if first {
			s.joins.Add(int64(n))
			s.queries.Add(int64(n))
		}
	})
	return out
}

// Lookup re-answers the closest-peers query for an already registered peer.
// When a super-peer exists at dtree 0..2 from the peer, the server delegates
// (counts the delegation and still returns the list, modelling the
// super-peer answering from its local cache). Lookup runs entirely on the
// published read copy: it never waits on writers.
func (s *Server) Lookup(p pathtree.PeerID) ([]pathtree.Candidate, error) {
	rs := s.acquireRead()
	defer rs.mu.RUnlock()
	r, ok := rs.st.peers[p]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	tree := rs.st.trees[r.lm]
	sc := pathtree.GetScratch()
	cands, superNear := answer(tree, tree.Closest(r.slot, s.cfg.NeighborCount, sc))
	sc.Release()
	s.queries.Add(1)
	if superNear {
		s.delegations.Add(1)
	}
	return cands, nil
}

// Refresh updates a peer's liveness timestamp (heartbeat).
func (s *Server) Refresh(p pathtree.PeerID) error {
	return s.Apply(op.Refresh(p, 0))
}

// leave removes a registered peer from one state copy.
func (st *state) leave(p pathtree.PeerID) error {
	r, ok := st.peers[p]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	st.trees[r.lm].Remove(r.slot)
	delete(st.peers, p)
	return nil
}

// Leave removes peer p; it reports whether the peer was registered.
func (s *Server) Leave(p pathtree.PeerID) bool {
	return s.Apply(op.Leave(p)) == nil
}

// expireBefore sweeps out peers whose last refresh is strictly before the
// cutoff (Unix nanoseconds), returning the expired IDs in ascending order.
func (st *state) expireBefore(cutoff int64) []pathtree.PeerID {
	var out []pathtree.PeerID
	for _, tree := range st.trees {
		for slot, rec := range tree.Records() {
			if rec.RefreshNanos < cutoff {
				out = append(out, rec.ID)
				delete(st.peers, rec.ID)
				tree.Remove(slot)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Expire sweeps out peers whose last refresh is older than the configured
// PeerTTL, returning the expired IDs. A zero PeerTTL disables expiry.
func (s *Server) Expire() []pathtree.PeerID {
	if s.cfg.PeerTTL <= 0 {
		return nil
	}
	return s.ExpireOp(op.Expire(s.cfg.Clock().Add(-s.cfg.PeerTTL).UnixNano()))
}

// ExpireOp applies a KindExpire op and returns the expired IDs — the
// answering form of the sweep; Apply runs the identical sweep silently.
// Because the op carries its deadline and every peer's refresh time comes
// from op timestamps, every copy that applies the same ExpireOp expires
// exactly the same peers.
func (s *Server) ExpireOp(o op.Op) []pathtree.PeerID {
	var out []pathtree.PeerID
	s.mutate(func(st *state, first bool) {
		expired := st.expireBefore(o.Time)
		if first {
			out = expired
			s.expiries.Add(int64(len(expired)))
		}
	})
	return out
}

// SetSuperPeer marks or unmarks peer p as a super-peer.
func (s *Server) SetSuperPeer(p pathtree.PeerID, super bool) error {
	return s.Apply(op.SetSuperPeer(p, super))
}

// PeerInfo returns the record for peer p. Its Path is rebuilt from the trie
// (the routers from the peer's node up to the landmark) into a slice the
// caller owns.
func (s *Server) PeerInfo(p pathtree.PeerID) (PeerInfo, error) {
	rs := s.acquireRead()
	defer rs.mu.RUnlock()
	r, ok := rs.st.peers[p]
	if !ok {
		return PeerInfo{}, fmt.Errorf("%w: %d", ErrUnknownPeer, p)
	}
	tree := rs.st.trees[r.lm]
	rec := tree.Record(r.slot)
	return PeerInfo{
		ID:          p,
		Landmark:    r.lm,
		Path:        tree.AppendPath(make([]topology.NodeID, 0, tree.Depth(r.slot)+1), r.slot),
		Addr:        rec.Addr,
		SuperPeer:   rec.Super,
		LastRefresh: time.Unix(0, rec.RefreshNanos),
	}, nil
}

// NumPeers reports the number of registered peers.
func (s *Server) NumPeers() int {
	rs := s.acquireRead()
	defer rs.mu.RUnlock()
	return len(rs.st.peers)
}

// Peers returns all registered peer IDs in ascending order.
func (s *Server) Peers() []pathtree.PeerID {
	rs := s.acquireRead()
	defer rs.mu.RUnlock()
	out := make([]pathtree.PeerID, 0, len(rs.st.peers))
	for p := range rs.st.peers {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Epoch reports a landmark's current fencing epoch (zero for a landmark
// that never moved or is not held here).
func (s *Server) Epoch(lm topology.NodeID) uint64 {
	rs := s.acquireRead()
	defer rs.mu.RUnlock()
	return rs.st.epochs[lm]
}

// Publications reports Stats.Publications without walking any tree.
func (s *Server) Publications() int { return int(s.publications.Load()) }

// Stats snapshots server counters and tree shapes.
func (s *Server) Stats() Stats {
	rs := s.acquireRead()
	defer rs.mu.RUnlock()
	st := Stats{
		Peers:                len(rs.st.peers),
		Joins:                int(s.joins.Load()),
		Leaves:               int(s.leaves.Load()),
		Expiries:             int(s.expiries.Load()),
		Queries:              int(s.queries.Load()),
		SuperPeerDelegations: int(s.delegations.Load()),
		Publications:         int(s.publications.Load()),
		TreeStats:            make(map[topology.NodeID]pathtree.Stats, len(rs.st.trees)),
	}
	for lm, tree := range rs.st.trees {
		st.TreeStats[lm] = tree.Stats()
	}
	return st
}
