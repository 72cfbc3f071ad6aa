package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/proto"
)

// This file is the client half of the push-based read plane: Subscribe
// registers a live query on the session of the client's primary road, and
// the subscription folds the deltas the server pushes on that session into
// a local cache, so CachedLookup answers k-closest queries without a round
// trip. The session's demux hands the subscription its frames and never
// waits on it. When the session dies, or the subscription falls so far
// behind that the demux drops a frame, it re-subscribes with bounded
// backoff and the fresh ack replaces the cache — the same resync contract
// a server-side slow-consumer drop uses, so consumers handle exactly one
// degraded mode.

// QueryKind selects what a Query watches.
type QueryKind uint8

// Query kinds, shared by the pull (LookupContext) and push (Subscribe)
// read paths.
const (
	// QueryLandmark watches every peer registered under one landmark tree.
	QueryLandmark QueryKind = QueryKind(proto.QueryLandmark)
	// QueryPeer watches one peer's registration.
	QueryPeer QueryKind = QueryKind(proto.QueryPeer)
	// QueryKClosest watches a registered peer's k-closest answer set.
	QueryKClosest QueryKind = QueryKind(proto.QueryKClosest)
)

// Subscription event kinds, re-exported from the wire protocol.
const (
	EventEnter  = proto.EventEnter
	EventLeave  = proto.EventLeave
	EventUpdate = proto.EventUpdate
	EventResync = proto.EventResync
)

// Query describes a read: which peers the caller cares about. The same
// value drives a one-shot LookupContext or a live Subscribe.
type Query struct {
	// Kind selects the filter.
	Kind QueryKind
	// Peer is the subject of QueryPeer and QueryKClosest.
	Peer int64
	// Landmark is the subject of QueryLandmark.
	Landmark int32
	// K caps the QueryKClosest answer size; 0 means the server's
	// configured neighbor count — the only size a cached lookup can cover.
	K int
}

// KClosest is the query LookupContext and Subscribe share: the k-closest
// answer set of a registered peer, at the server's configured size.
func KClosest(peer int64) Query { return Query{Kind: QueryKClosest, Peer: peer} }

// PeerQuery watches one peer's registration (Subscribe only).
func PeerQuery(peer int64) Query { return Query{Kind: QueryPeer, Peer: peer} }

// LandmarkQuery watches every peer under one landmark tree (Subscribe
// only).
func LandmarkQuery(landmark int32) Query { return Query{Kind: QueryLandmark, Landmark: landmark} }

// Event is one pushed subscription delta, delivered on
// Subscription.Events. The cache behind Cache/CachedLookup has already
// absorbed it.
type Event struct {
	// Seq is the committed sequence of the op the event derives from.
	Seq uint64
	// Kind is EventEnter, EventLeave, EventUpdate, or EventResync.
	Kind uint8
	// Cand is the affected peer for enter/leave/update events.
	Cand proto.Candidate
	// Neighbors is the full refreshed answer set of an EventResync.
	Neighbors []proto.Candidate
}

// subHeartbeat is how often a subscription pings the server on its
// session, so the server's idle deadline (ReadTimeout) stays fed while
// nothing else travels client→server.
const subHeartbeat = 2 * time.Second

// Subscription is one live query against the server, holding a coherent
// local cache of the query's current answer.
//
// Events delivers every delta to consumers that want them, but it is
// lossy under sustained backpressure (a slow consumer drops events, never
// blocks the fold). The cache is the coherent surface: Cache and
// CachedLookup always reflect everything received.
type Subscription struct {
	c      *Client
	q      Query
	req    []byte // the encoded subscribe request, sent again on a resubscribe
	ctx    context.Context
	cancel context.CancelFunc

	events  chan Event
	dropped atomic.Uint64

	mu       sync.Mutex
	cache    []proto.Candidate
	seq      uint64
	coherent bool // cache mirrors the server's answer (subscribed and acked)
	orphaned bool // the k-closest subject deregistered; cache intentionally empty
	err      error

	done chan struct{}
}

// Subscribe registers a live query and returns once the server accepted
// it, with the initial answer already cached. The subscription runs until
// ctx ends or Close is called.
//
// A subscription is a request on the client's primary road, so it takes
// the session every other request takes, and the same redirect and
// redial rule. The ID of its subscribe request
// names the events the server pushes on that session. When the session
// dies, or the subscription falls too far behind its events, it
// resubscribes with bounded backoff, and the fresh snapshot replaces the
// cache.
func (c *Client) Subscribe(ctx context.Context, q Query) (*Subscription, error) {
	if q.Kind < QueryLandmark || q.Kind > QueryKClosest {
		return nil, fmt.Errorf("client: bad query kind %d", q.Kind)
	}
	if q.K < 0 || q.K > proto.MaxNeighbors {
		return nil, fmt.Errorf("client: query k %d out of range", q.K)
	}
	req, err := proto.EncodeSubscribeRequest(&proto.SubscribeRequest{
		Kind:     uint8(q.Kind),
		Peer:     q.Peer,
		Landmark: q.Landmark,
		K:        uint16(q.K),
	})
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Subscription{
		c:      c,
		q:      q,
		req:    req,
		ctx:    sctx,
		cancel: cancel,
		events: make(chan Event, 64),
		done:   make(chan struct{}),
	}
	st, _, err := s.subscribe()
	if err != nil {
		cancel()
		return nil, err
	}
	c.registerSub(s)
	go s.run(st)
	return s, nil
}

// subscribe sends the subscribe request on the primary road and installs
// the ack's answer as the cache. A refused subscription fails here, not
// mid-stream.
func (s *Subscription) subscribe() (*stream, *proto.SubscribeAck, error) {
	st := &stream{frames: make(chan frameResp, streamFrames)}
	resp, err := s.c.roundTrip(s.ctx, proto.MsgSubscribeRequest, s.req, proto.MsgSubscribeAck, st)
	if err != nil {
		if st.sess != nil {
			st.sess.forget(st.id) // an answer of another type left it registered
		}
		return nil, nil, err
	}
	ack, err := proto.DecodeSubscribeAck(resp)
	proto.PutBuf(resp)
	if err != nil {
		st.unsubscribe()
		return nil, nil, err
	}
	s.applySnapshot(ack)
	return st, ack, nil
}

// run is the subscription's one goroutine. It folds the stream's frames
// into the cache and heartbeats on the stream's session. The stream ends
// when its session dies, when the demux found it full, or on a frame that
// makes no sense; run then resubscribes. When ctx ends it unsubscribes.
func (s *Subscription) run(st *stream) {
	defer close(s.done)
	defer close(s.events)
	defer s.c.unregisterSub(s)
	hb := time.NewTicker(subHeartbeat)
	defer hb.Stop()
	for {
		select {
		case f, ok := <-st.frames:
			if ok && s.fold(f) == nil {
				continue
			}
		case <-hb.C:
			if st.sess.post(proto.MsgOpAck, st.id, proto.EncodeOpAck(&proto.OpAck{Seq: s.Seq()})) == nil {
				continue
			}
		case <-st.sess.readDone:
		case <-s.ctx.Done():
			st.unsubscribe()
			s.fail(net.ErrClosed)
			return
		}
		if st = s.resubscribe(st); st == nil {
			return
		}
	}
}

// resubscribe replaces a stream that ended with a fresh one, retrying
// with the client's backoff, and delivers its ack as the resync it is. It
// returns nil once the subscription is over: ended, or refused by the
// server.
func (s *Subscription) resubscribe(old *stream) *stream {
	s.mu.Lock()
	s.coherent = false
	s.mu.Unlock()
	// Unless the session died, the server still pushes under the old ID.
	old.unsubscribe()
	s.c.met.retries.Inc()
	for attempt := 1; ; attempt++ {
		if s.ctx.Err() != nil || s.c.isClosed() {
			s.fail(net.ErrClosed)
			return nil
		}
		st, ack, err := s.subscribe()
		if err == nil {
			s.deliver(Event{Seq: ack.Seq, Kind: proto.EventResync, Neighbors: ack.Neighbors})
			return st
		}
		var werr *proto.Error
		if errors.As(err, &werr) {
			// The server understood us and said no (the subject expired,
			// the landmark moved): asking again cannot change the answer.
			s.fail(err)
			return nil
		}
		t := time.NewTimer(backoffDelay(attempt))
		select {
		case <-t.C:
		case <-s.ctx.Done():
			t.Stop()
		}
	}
}

// fold applies one frame of the stream to the cache.
func (s *Subscription) fold(f frameResp) error {
	typ, payload, err := decodeResp(f.typ, f.payload)
	if err != nil {
		return err
	}
	var ev *proto.SubEvent
	if typ == proto.MsgSubEvent {
		ev, err = proto.DecodeSubEvent(payload)
	} else {
		err = fmt.Errorf("client: unexpected subscription frame type %d", typ)
	}
	proto.PutBuf(payload)
	if err == nil {
		s.apply(ev)
	}
	return err
}

// apply folds one pushed event into the cache, then offers it to the
// Events channel.
func (s *Subscription) apply(ev *proto.SubEvent) {
	s.mu.Lock()
	s.seq = ev.Seq
	switch ev.Kind {
	case proto.EventEnter, proto.EventUpdate:
		s.upsert(ev.Cand)
		// A delta arrived, so the server's diff base is live again: if the
		// subject had deregistered, this is the rebuilt answer arriving.
		s.orphaned = false
	case proto.EventLeave:
		if s.q.Kind == QueryKClosest && ev.Cand.Peer == s.q.Peer {
			// The subject itself deregistered: the whole answer is void,
			// and a fresh lookup would answer unknown-peer — remember that
			// rather than serving the stale set.
			s.cache = s.cache[:0]
			s.orphaned = true
		} else {
			s.remove(ev.Cand.Peer)
		}
	case proto.EventResync:
		s.cache = append(s.cache[:0], ev.Neighbors...)
		s.sortCache()
		s.orphaned = false
	}
	s.mu.Unlock()
	s.deliver(Event{Seq: ev.Seq, Kind: ev.Kind, Cand: ev.Cand, Neighbors: ev.Neighbors})
}

// applySnapshot installs a subscribe ack's answer as the whole cache.
func (s *Subscription) applySnapshot(ack *proto.SubscribeAck) {
	s.mu.Lock()
	s.cache = append(s.cache[:0], ack.Neighbors...)
	s.sortCache()
	s.seq = ack.Seq
	s.coherent = true
	s.orphaned = false
	s.mu.Unlock()
}

// upsert inserts or replaces a candidate, keeping the cache in the
// server's answer order.
func (s *Subscription) upsert(c proto.Candidate) {
	for i := range s.cache {
		if s.cache[i].Peer == c.Peer {
			s.cache[i] = c
			s.sortCache()
			return
		}
	}
	s.cache = append(s.cache, c)
	s.sortCache()
}

// remove deletes a candidate by peer ID.
func (s *Subscription) remove(peer int64) {
	for i := range s.cache {
		if s.cache[i].Peer == peer {
			s.cache = append(s.cache[:i], s.cache[i+1:]...)
			return
		}
	}
}

// sortCache keeps the cache in the order a fresh lookup would answer:
// distance, then peer ID.
func (s *Subscription) sortCache() {
	sort.Slice(s.cache, func(i, j int) bool {
		if s.cache[i].DTree != s.cache[j].DTree {
			return s.cache[i].DTree < s.cache[j].DTree
		}
		return s.cache[i].Peer < s.cache[j].Peer
	})
}

// deliver offers an event to the consumer channel without ever blocking
// the fold: a full channel drops the event (counted), the cache stays
// right.
func (s *Subscription) deliver(ev Event) {
	select {
	case s.events <- ev:
	default:
		s.dropped.Add(1)
	}
}

// fail records the terminal error.
func (s *Subscription) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Events delivers pushed deltas. The channel is lossy under sustained
// backpressure (see Dropped); it closes when the subscription ends. The
// cache has always already absorbed a delivered event.
func (s *Subscription) Events() <-chan Event { return s.events }

// Query reports what this subscription watches.
func (s *Subscription) Query() Query { return s.q }

// Seq reports the committed sequence the cache covers.
func (s *Subscription) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Dropped reports how many events the Events channel shed; the cache
// absorbed them all regardless.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cache returns a copy of the current answer and whether it is coherent —
// subscribed and covering everything the server pushed. While the
// subscription resubscribes it reports false.
func (s *Subscription) Cache() ([]proto.Candidate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]proto.Candidate(nil), s.cache...), s.coherent && !s.orphaned
}

// covering reports the cache when it can stand in for a fresh lookup.
func (s *Subscription) covering() ([]proto.Candidate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.coherent || s.orphaned {
		return nil, false
	}
	return append([]proto.Candidate(nil), s.cache...), true
}

// Done closes when the subscription has fully stopped.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Err reports why the subscription ended: net.ErrClosed once Close was
// called or its context ended, the server's error when it refused a
// resubscribe; nil while it runs.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the subscription: it unsubscribes on the session, which
// stays up for the client's other requests, and returns once the Events
// channel is closed.
func (s *Subscription) Close() error {
	s.cancel()
	<-s.done
	return nil
}

// registerSub adds a live subscription to the cached-lookup registry.
func (c *Client) registerSub(s *Subscription) {
	c.mu.Lock()
	if c.subs == nil {
		c.subs = make(map[*Subscription]struct{})
	}
	c.subs[s] = struct{}{}
	c.mu.Unlock()
}

// unregisterSub removes a finished subscription.
func (c *Client) unregisterSub(s *Subscription) {
	c.mu.Lock()
	delete(c.subs, s)
	c.mu.Unlock()
}

// CachedLookup answers a k-closest lookup from a live subscription's
// cache when a covering one exists — zero round trips, zero server work —
// and falls back to a wire LookupContext otherwise. A subscription covers
// a lookup when it watches the same peer's k-closest set at the server's
// answer size (KClosest(peer), K zero) and its cache is coherent: mid-
// resubscribe, or after the subject deregistered, the wire path answers
// instead so the caller never reads stale data.
func (c *Client) CachedLookup(ctx context.Context, peer int64) ([]proto.Candidate, error) {
	c.mu.Lock()
	var match *Subscription
	for s := range c.subs {
		if s.q.Kind == QueryKClosest && s.q.Peer == peer && s.q.K == 0 {
			match = s
			break
		}
	}
	c.mu.Unlock()
	if match != nil {
		if cands, ok := match.covering(); ok {
			return cands, nil
		}
	}
	return c.LookupContext(ctx, KClosest(peer))
}
