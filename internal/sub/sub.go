// Package sub is the server-side subscription plane: it turns the
// committed op stream (the commit tap on a primary, the applied stream on
// a follower) into filtered push events for live queries. Follower nodes
// serve subscriptions too, so the push read plane scales out with the
// replication tree.
//
// A Plane owns one dispatcher goroutine. Ops are fed in commit order
// through a bounded channel (Feed* never block the commit path); the
// dispatcher evaluates each op against every registered subscriber and
// queues resulting events on the subscriber's fixed-size ring. Slow
// consumers are handled per the coalesce-then-drop policy: a full ring
// first coalesces same-peer events, then drops its whole backlog and
// queues a single resync event carrying the query's full refreshed
// answer, so a subscriber that falls arbitrarily far behind recovers with
// one message and the commit path never waits.
//
// k-closest filters are re-evaluated incrementally: a committed join only
// triggers a backend lookup when it names the subject, touches a peer
// already in the answer set, or lands in the subject's landmark tree at a
// path-tree distance that could displace the current worst answer
// (computed from the two stored paths' common suffix, the same distance
// the path trie infers). Expire ops carry only a deadline, so they
// conservatively re-evaluate every k-closest filter.
package sub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
)

// Backend answers the queries the plane evaluates filters against. Both
// *server.Server and *cluster.Cluster satisfy it.
type Backend interface {
	Landmarks() []topology.NodeID
	NeighborCount() int
	Lookup(p pathtree.PeerID) ([]pathtree.Candidate, error)
	PeerInfo(p pathtree.PeerID) (server.PeerInfo, error)
}

// Query is a subscription filter: exactly one of the three kinds.
type Query struct {
	// Kind is proto.QueryLandmark, proto.QueryPeer, or proto.QueryKClosest.
	Kind uint8
	// Peer is the subject of peer and k-closest queries.
	Peer pathtree.PeerID
	// Landmark is the subject of landmark queries.
	Landmark topology.NodeID
	// K is the k-closest answer size; 0 means the backend's neighbor count.
	K int
}

// Event is one subscription delta. Kind is a proto.Event* constant; a
// resync carries the full refreshed answer in Neighbors and the other
// kinds name the affected peer.
type Event struct {
	Seq       uint64
	Kind      uint8
	Peer      pathtree.PeerID
	DTree     int
	Neighbors []pathtree.Candidate
}

// ErrUnknownLandmark rejects a landmark query naming a landmark the
// backend does not measure from.
var ErrUnknownLandmark = errors.New("sub: unknown landmark")

// ringCap bounds each subscriber's event backlog. Past it the backlog
// collapses into one resync.
const ringCap = 256

// feedCap bounds the op feed between the commit path and the dispatcher.
// Overflow resyncs every subscriber rather than ever blocking a commit.
const feedCap = 1024

// maxLandmarkMembers caps the membership a landmark filter tracks; past
// it the filter turns lossy (enters still push, some leaves may be
// missed) rather than growing without bound.
const maxLandmarkMembers = 4096

type feedItem struct {
	seq     uint64
	data    []byte
	o       op.Op
	decoded bool
}

// Subscriber is one registered filter plus its bounded event queue. The
// plane's dispatcher produces into the queue; exactly one consumer (the
// connection's sender goroutine) drains it via Ready/Take.
type Subscriber struct {
	plane *Plane
	query Query

	// Queue state, under qmu: a fixed ring so the steady-state event path
	// allocates nothing.
	qmu    sync.Mutex
	ring   [ringCap]Event
	head   int // next slot to take
	count  int
	notify chan struct{}
	done   chan struct{}

	// Filter state, owned by the dispatcher under plane.mu.
	k        int
	subjPath []topology.NodeID // k-closest subject's current path; nil = orphaned
	last     []pathtree.Candidate
	inLast   map[pathtree.PeerID]int // peer -> DTree of the current answer
	known    bool                    // peer query: subject currently registered
	members  map[pathtree.PeerID]struct{}
}

// Ready is signalled (capacity-1, coalesced) whenever events are queued.
func (s *Subscriber) Ready() <-chan struct{} { return s.notify }

// Done is closed when the subscriber is removed or the plane shuts down.
func (s *Subscriber) Done() <-chan struct{} { return s.done }

// Take pops the oldest queued event; ok is false when the queue is empty.
func (s *Subscriber) Take() (ev Event, ok bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.count == 0 {
		return Event{}, false
	}
	ev = s.ring[s.head]
	s.ring[s.head] = Event{}
	s.head = (s.head + 1) % ringCap
	s.count--
	return ev, true
}

// push queues one delta, applying the slow-consumer policy on a full ring:
// first coalesce onto an older queued delta for the same peer, else drop the
// backlog and leave a want-resync marker for the dispatcher. Returns true
// when the caller must synthesize a resync.
func (s *Subscriber) push(ev Event) (needResync bool) {
	s.qmu.Lock()
	if s.count == ringCap {
		for i := 0; i < s.count; i++ {
			slot := (s.head + i) % ringCap
			if s.ring[slot].Kind != proto.EventResync && s.ring[slot].Peer == ev.Peer {
				s.ring[slot] = ev
				s.qmu.Unlock()
				s.signal()
				s.plane.coalesced.Inc()
				return false
			}
		}
		// No same-peer slot to coalesce onto: the consumer is hopelessly
		// behind. Drop everything; one resync replaces the backlog.
		s.dropBacklog()
		s.qmu.Unlock()
		return true
	}
	s.enqueue(ev)
	return false
}

// supersede queues an event that states the whole answer — a resync, or the
// leave of a k-closest subject that is gone — so on a full ring it replaces
// the backlog rather than asking for a resync.
func (s *Subscriber) supersede(ev Event) {
	s.qmu.Lock()
	if s.count == ringCap {
		s.dropBacklog()
	}
	s.enqueue(ev)
}

// dropBacklog empties the ring. Caller holds qmu.
func (s *Subscriber) dropBacklog() {
	s.head, s.count = 0, 0
	for i := range s.ring {
		s.ring[i] = Event{}
	}
	s.plane.dropped.Inc()
}

// enqueue appends ev to a ring with room, releases qmu and signals the
// sender.
func (s *Subscriber) enqueue(ev Event) {
	s.ring[(s.head+s.count)%ringCap] = ev
	s.count++
	s.qmu.Unlock()
	s.signal()
	s.plane.pushed.Inc()
}

func (s *Subscriber) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Plane evaluates committed ops against the registered filters.
type Plane struct {
	be Backend

	mu   sync.Mutex
	subs map[*Subscriber]struct{}

	nsubs    atomic.Int64
	feed     chan feedItem
	kick     chan struct{}
	stop     chan struct{}
	stopped  chan struct{}
	closing  sync.Once
	overflow atomic.Bool
	lastSeq  atomic.Uint64

	tel       *telemetry.Registry
	pushed    *telemetry.Counter
	coalesced *telemetry.Counter
	dropped   *telemetry.Counter
	resyncs   *telemetry.Counter
}

// New starts a plane over the backend. tel may be nil.
func New(be Backend, tel *telemetry.Registry) *Plane {
	p := &Plane{
		be:      be,
		subs:    make(map[*Subscriber]struct{}),
		feed:    make(chan feedItem, feedCap),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		tel:     tel,
	}
	p.pushed = tel.Counter("proxdisc_sub_events_total")
	p.coalesced = tel.Counter("proxdisc_sub_coalesced_total")
	p.dropped = tel.Counter("proxdisc_sub_dropped_total")
	p.resyncs = tel.Counter("proxdisc_sub_resyncs_total")
	tel.GaugeFunc("proxdisc_sub_active", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.subs))
	})
	go p.run()
	return p
}

// Close stops the dispatcher and terminates every subscriber.
func (p *Plane) Close() {
	p.closing.Do(func() {
		close(p.stop)
		<-p.stopped
		p.mu.Lock()
		for s := range p.subs {
			close(s.done)
			delete(p.subs, s)
		}
		p.nsubs.Store(0)
		p.mu.Unlock()
		p.tel.Unregister("proxdisc_sub_active")
	})
}

// Active reports whether any subscriber is registered — the commit tap's
// cheap gate around copying records for the plane.
func (p *Plane) Active() bool { return p.nsubs.Load() > 0 }

// FeedRecord hands the dispatcher one committed op in encoded form. The
// plane keeps data (it decodes off the commit path), so the caller must
// pass a copy it will not reuse — the same copy offered to the follow hub
// is fine, both sides only read. Never blocks: a full feed marks every
// subscriber for resync instead.
func (p *Plane) FeedRecord(seq uint64, data []byte) {
	select {
	case p.feed <- feedItem{seq: seq, data: data}:
	default:
		p.noteOverflow()
	}
}

// FeedOp is FeedRecord for callers that already hold the decoded op (a
// follower applying its stream).
func (p *Plane) FeedOp(seq uint64, o op.Op) {
	select {
	case p.feed <- feedItem{seq: seq, o: o, decoded: true}:
	default:
		p.noteOverflow()
	}
}

func (p *Plane) noteOverflow() {
	p.overflow.Store(true)
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// ResyncAll marks every subscriber stale — the backend's state jumped
// under the plane (a follower restored a snapshot) and incremental deltas
// no longer describe it.
func (p *Plane) ResyncAll() {
	p.noteOverflow()
}

// Add registers a filter. For k-closest queries it returns the initial
// answer snapshot and the covering sequence; events the dispatcher
// subsequently emits diff against that snapshot.
func (p *Plane) Add(q Query) (*Subscriber, []pathtree.Candidate, uint64, error) {
	s := &Subscriber{
		plane:  p,
		query:  q,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.stop:
		return nil, nil, 0, errors.New("sub: plane closed")
	default:
	}
	var snapshot []pathtree.Candidate
	switch q.Kind {
	case proto.QueryKClosest:
		s.k = q.K
		if s.k <= 0 {
			s.k = p.be.NeighborCount()
		}
		info, err := p.be.PeerInfo(q.Peer)
		if err != nil {
			return nil, nil, 0, err
		}
		s.subjPath = append([]topology.NodeID(nil), info.Path...)
		cands, err := p.lookupK(q.Peer, s.k)
		if err != nil {
			return nil, nil, 0, err
		}
		s.setLast(cands)
		snapshot = cands
	case proto.QueryPeer:
		_, err := p.be.PeerInfo(q.Peer)
		s.known = err == nil
		if err != nil && !isUnknownPeer(err) {
			return nil, nil, 0, err
		}
	case proto.QueryLandmark:
		found := false
		for _, lm := range p.be.Landmarks() {
			if lm == q.Landmark {
				found = true
				break
			}
		}
		if !found {
			return nil, nil, 0, fmt.Errorf("%w: %d", ErrUnknownLandmark, q.Landmark)
		}
		s.members = make(map[pathtree.PeerID]struct{})
	default:
		return nil, nil, 0, fmt.Errorf("sub: bad query kind %d", q.Kind)
	}
	p.subs[s] = struct{}{}
	p.nsubs.Store(int64(len(p.subs)))
	return s, snapshot, p.lastSeq.Load(), nil
}

// Remove deregisters a subscriber and closes its Done channel.
func (p *Plane) Remove(s *Subscriber) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.subs[s]; !ok {
		return
	}
	delete(p.subs, s)
	p.nsubs.Store(int64(len(p.subs)))
	close(s.done)
}

// lookupK is the backend lookup a subscription's answers derive from.
// The backend trims to its own neighbor count; a smaller k trims here.
func (p *Plane) lookupK(peer pathtree.PeerID, k int) ([]pathtree.Candidate, error) {
	cands, err := p.be.Lookup(peer)
	if err != nil {
		return nil, err
	}
	if k < len(cands) {
		cands = cands[:k]
	}
	return cands, nil
}

func (p *Plane) run() {
	defer close(p.stopped)
	for {
		select {
		case <-p.stop:
			return
		case it := <-p.feed:
			p.handle(it)
		case <-p.kick:
		}
		if p.overflow.Swap(false) {
			p.resyncAll()
		}
	}
}

func (p *Plane) handle(it feedItem) {
	if it.seq > 0 {
		p.lastSeq.Store(it.seq)
	}
	if p.nsubs.Load() == 0 {
		return
	}
	if !it.decoded {
		o, err := op.Decode(it.data)
		if err != nil {
			// A committed record the op codec rejects means the feed and the
			// log disagree about the encoding; deltas can no longer be
			// trusted.
			p.overflow.Store(true)
			return
		}
		it.o = o
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := range p.subs {
		p.eval(s, it.seq, &it.o)
	}
}

func (p *Plane) eval(s *Subscriber, seq uint64, o *op.Op) {
	switch s.query.Kind {
	case proto.QueryKClosest:
		p.evalKClosest(s, seq, o)
	case proto.QueryPeer:
		p.evalPeer(s, seq, o)
	case proto.QueryLandmark:
		p.evalLandmark(s, seq, o)
	}
}

func (p *Plane) evalKClosest(s *Subscriber, seq uint64, o *op.Op) {
	subject := s.query.Peer
	switch o.Kind {
	case op.KindJoin, op.KindBatchJoin:
		reval := false
		var changed pathtree.PeerID
		haveChanged := false
		forEachJoin(o, func(e *op.JoinEntry) {
			if e.Peer == subject {
				s.subjPath = append(s.subjPath[:0], e.Path...)
				reval = true
				return
			}
			if _, in := s.inLast[e.Peer]; in {
				// A peer already in the answer rejoined: its path or address
				// changed even if its distance did not.
				changed, haveChanged = e.Peer, true
				reval = true
				return
			}
			if s.subjPath == nil {
				return // orphaned: nothing to measure from until the subject rejoins
			}
			if landmarkOf(e.Path) != landmarkOf(s.subjPath) {
				return // answers only ever come from the subject's landmark tree
			}
			if len(s.last) < s.k || pathDTree(s.subjPath, e.Path) <= s.worst() {
				reval = true
			}
		})
		if reval {
			p.revalKClosest(s, seq, changed, haveChanged)
		}
	case op.KindLeave:
		if o.Peer == subject {
			p.orphan(s, seq)
			return
		}
		if _, in := s.inLast[o.Peer]; in {
			p.revalKClosest(s, seq, 0, false)
		}
	case op.KindExpire:
		// Expire ops carry only the deadline, not the reaped peers:
		// conservatively re-evaluate.
		if s.subjPath != nil {
			p.revalKClosest(s, seq, 0, false)
		}
	case op.KindRefresh, op.KindSetSuperPeer, op.KindMoveLandmark:
		// None of these changes a k-closest answer: refresh only bumps
		// liveness, super-peer delegation never alters the candidate set,
		// and a move record, which an older build's stream may carry,
		// touches no peer's registration (the same holds in evalPeer and
		// evalLandmark, where move records fall through their switches).
	}
}

// revalKClosest recomputes the answer and emits the diff against the
// subscriber's previous one. changed (when haveChanged) names a peer whose
// record was rewritten by the triggering op, forcing an update event even
// at an unchanged distance.
func (p *Plane) revalKClosest(s *Subscriber, seq uint64, changed pathtree.PeerID, haveChanged bool) {
	fresh, err := p.lookupK(s.query.Peer, s.k)
	if err != nil {
		if isUnknownPeer(err) {
			p.orphan(s, seq)
		}
		return
	}
	needResync := false
	for _, c := range fresh {
		old, in := s.inLast[c.Peer]
		switch {
		case !in:
			needResync = s.push(Event{Seq: seq, Kind: proto.EventEnter, Peer: c.Peer, DTree: c.DTree}) || needResync
		case old != c.DTree || (haveChanged && c.Peer == changed):
			needResync = s.push(Event{Seq: seq, Kind: proto.EventUpdate, Peer: c.Peer, DTree: c.DTree}) || needResync
		}
	}
	for _, c := range s.last {
		stillIn := false
		for _, f := range fresh {
			if f.Peer == c.Peer {
				stillIn = true
				break
			}
		}
		if !stillIn {
			needResync = s.push(Event{Seq: seq, Kind: proto.EventLeave, Peer: c.Peer}) || needResync
		}
	}
	s.setLast(fresh)
	if needResync {
		p.resyncOne(s, seq)
	}
}

// orphan handles the subject itself deregistering: the answer set empties
// and the subscriber is told via a leave event naming the subject.
func (p *Plane) orphan(s *Subscriber, seq uint64) {
	if s.subjPath == nil && len(s.last) == 0 {
		return
	}
	s.subjPath = nil
	s.setLast(nil)
	if s.push(Event{Seq: seq, Kind: proto.EventLeave, Peer: s.query.Peer}) {
		p.resyncOne(s, seq)
	}
}

func (p *Plane) evalPeer(s *Subscriber, seq uint64, o *op.Op) {
	subject := s.query.Peer
	switch o.Kind {
	case op.KindJoin, op.KindBatchJoin:
		forEachJoin(o, func(e *op.JoinEntry) {
			if e.Peer != subject {
				return
			}
			kind := proto.EventUpdate
			if !s.known {
				kind = proto.EventEnter
				s.known = true
			}
			if s.push(Event{Seq: seq, Kind: kind, Peer: subject}) {
				p.resyncOne(s, seq)
			}
		})
	case op.KindLeave:
		if o.Peer == subject && s.known {
			s.known = false
			if s.push(Event{Seq: seq, Kind: proto.EventLeave, Peer: subject}) {
				p.resyncOne(s, seq)
			}
		}
	case op.KindRefresh, op.KindSetSuperPeer:
		if o.Peer == subject && s.known {
			if s.push(Event{Seq: seq, Kind: proto.EventUpdate, Peer: subject}) {
				p.resyncOne(s, seq)
			}
		}
	case op.KindExpire:
		if !s.known {
			return
		}
		if _, err := p.be.PeerInfo(subject); isUnknownPeer(err) {
			s.known = false
			if s.push(Event{Seq: seq, Kind: proto.EventLeave, Peer: subject}) {
				p.resyncOne(s, seq)
			}
		}
	}
}

func (p *Plane) evalLandmark(s *Subscriber, seq uint64, o *op.Op) {
	switch o.Kind {
	case op.KindJoin, op.KindBatchJoin:
		forEachJoin(o, func(e *op.JoinEntry) {
			if landmarkOf(e.Path) != s.query.Landmark {
				return
			}
			kind := proto.EventUpdate
			if _, in := s.members[e.Peer]; !in {
				kind = proto.EventEnter
				if len(s.members) < maxLandmarkMembers {
					s.members[e.Peer] = struct{}{}
				}
			}
			if s.push(Event{Seq: seq, Kind: kind, Peer: e.Peer}) {
				p.resyncOne(s, seq)
			}
		})
	case op.KindLeave:
		if _, in := s.members[o.Peer]; in {
			delete(s.members, o.Peer)
			if s.push(Event{Seq: seq, Kind: proto.EventLeave, Peer: o.Peer}) {
				p.resyncOne(s, seq)
			}
		}
	case op.KindRefresh, op.KindSetSuperPeer:
		if _, in := s.members[o.Peer]; in {
			if s.push(Event{Seq: seq, Kind: proto.EventUpdate, Peer: o.Peer}) {
				p.resyncOne(s, seq)
			}
		}
	case op.KindExpire:
		for peer := range s.members {
			if _, err := p.be.PeerInfo(peer); isUnknownPeer(err) {
				delete(s.members, peer)
				if s.push(Event{Seq: seq, Kind: proto.EventLeave, Peer: peer}) {
					p.resyncOne(s, seq)
				}
			}
		}
	}
}

// resyncOne rebuilds a subscriber whose queue collapsed: refresh the
// filter state from the backend and queue the one event the dropped backlog
// collapsed into. That is a resync, except for a k-closest query whose
// subject is gone: its answer is the subject's leave, which a client folds
// into an empty cache it knows not to serve, where an empty resync would
// read as a registered subject with no neighbours. Caller holds p.mu.
func (p *Plane) resyncOne(s *Subscriber, seq uint64) {
	p.resyncs.Inc()
	ev := Event{Seq: seq, Kind: proto.EventResync}
	switch s.query.Kind {
	case proto.QueryKClosest:
		fresh, err := p.lookupK(s.query.Peer, s.k)
		if err != nil {
			if !isUnknownPeer(err) {
				return
			}
			s.subjPath = nil
			s.setLast(nil)
			s.supersede(Event{Seq: seq, Kind: proto.EventLeave, Peer: s.query.Peer})
			return
		}
		if s.subjPath == nil {
			// The subject came back while we were behind; re-seed its path so
			// incremental triggers work again.
			if info, ierr := p.be.PeerInfo(s.query.Peer); ierr == nil {
				s.subjPath = append([]topology.NodeID(nil), info.Path...)
			}
		}
		s.setLast(fresh)
		ev.Neighbors = fresh
	case proto.QueryPeer:
		_, err := p.be.PeerInfo(s.query.Peer)
		s.known = err == nil
		if s.known {
			ev.Neighbors = []pathtree.Candidate{{Peer: s.query.Peer}}
		}
	case proto.QueryLandmark:
		// Landmark membership cannot be rebuilt from the backend (it is
		// observation-since-subscribe); an empty resync tells the client its
		// view is no longer complete.
		s.members = make(map[pathtree.PeerID]struct{})
	}
	s.supersede(ev)
}

// resyncAll handles feed overflow and snapshot restores: every filter's
// incremental state is suspect, so rebuild each and push resyncs.
func (p *Plane) resyncAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	seq := p.lastSeq.Load()
	for s := range p.subs {
		p.resyncOne(s, seq)
	}
}

func (s *Subscriber) setLast(cands []pathtree.Candidate) {
	s.last = cands
	if s.inLast == nil {
		s.inLast = make(map[pathtree.PeerID]int, len(cands))
	} else {
		for k := range s.inLast {
			delete(s.inLast, k)
		}
	}
	for _, c := range cands {
		s.inLast[c.Peer] = c.DTree
	}
}

// worst is the answer's current largest distance (the displacement bar
// for new joins). Lookup answers are sorted ascending.
func (s *Subscriber) worst() int {
	if len(s.last) == 0 {
		return 0
	}
	return s.last[len(s.last)-1].DTree
}

func forEachJoin(o *op.Op, fn func(e *op.JoinEntry)) {
	if o.Kind == op.KindJoin {
		fn(&o.Join)
		return
	}
	for i := range o.Batch {
		fn(&o.Batch[i])
	}
}

func landmarkOf(path []topology.NodeID) topology.NodeID {
	if len(path) == 0 {
		return -1
	}
	return path[len(path)-1]
}

// pathDTree is the path-tree distance between two peers computed from
// their stored paths alone: both paths end at the same landmark, the trie
// merges them along their common suffix, and the distance is the two
// depths beyond the deepest shared node. Exact for valid (repeat-free)
// paths, which is what committed joins carry.
func pathDTree(a, b []topology.NodeID) int {
	c := 0
	for c < len(a) && c < len(b) && a[len(a)-1-c] == b[len(b)-1-c] {
		c++
	}
	return (len(a) - c) + (len(b) - c)
}

func isUnknownPeer(err error) bool {
	return errors.Is(err, server.ErrUnknownPeer)
}
