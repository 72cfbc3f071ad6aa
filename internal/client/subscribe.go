package client

import (
	"bufio"
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
// registers a live query over a dedicated connection and folds
// the server's pushed deltas into a local cache, so CachedLookup answers
// k-closest queries without a round trip. The subscription owns its
// reconnect policy: when the connection dies (or a replica answers
// CodeNotPrimary after a failover) it re-subscribes with bounded backoff
// and the fresh ack replaces the cache — the same resync contract a
// slow-consumer drop uses, so consumers handle exactly one degraded mode.

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

// subReqID is the request ID a subscription registers under on its
// dedicated connection; every event frame carries it.
const subReqID = 1

// subHeartbeat is how often an idle subscription pings the server so the
// server's per-connection read deadline stays fed (the server only
// writes; nothing else travels client→server after the subscribe).
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
	ctx    context.Context
	cancel context.CancelFunc

	events  chan Event
	dropped atomic.Uint64

	mu       sync.Mutex
	conn     net.Conn // live connection, for Close to unblock the reader
	cache    []proto.Candidate
	seq      uint64
	coherent bool // cache mirrors the server's answer (connected and acked)
	orphaned bool // the k-closest subject deregistered; cache intentionally empty
	err      error

	wmu       sync.Mutex // serializes heartbeat and unsubscribe writes
	closed    chan struct{}
	closeOnce sync.Once
	done      chan struct{}
}

// Subscribe registers a live query and returns once the server accepted
// it, with the initial answer already cached. The subscription runs until
// ctx ends or Close is called; a dead connection (or a failover pointing
// at a new primary via CodeNotPrimary) is re-subscribed transparently
// with bounded backoff, the fresh snapshot replacing the cache.
//
// The subscription uses a dedicated connection: events arrive unsolicited,
// which the request/response demux cannot carry.
func (c *Client) Subscribe(ctx context.Context, q Query) (*Subscription, error) {
	if q.Kind < QueryLandmark || q.Kind > QueryKClosest {
		return nil, fmt.Errorf("client: bad query kind %d", q.Kind)
	}
	if q.K < 0 || q.K > proto.MaxNeighbors {
		return nil, fmt.Errorf("client: query k %d out of range", q.K)
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Subscription{
		c:      c,
		q:      q,
		ctx:    sctx,
		cancel: cancel,
		events: make(chan Event, 64),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	conn, br, ack, err := s.connect(ctx)
	if err != nil {
		cancel()
		return nil, err
	}
	s.applySnapshot(ack)
	c.registerSub(s)
	go s.run(conn, br)
	go func() {
		select {
		case <-sctx.Done():
			s.Close()
		case <-s.done:
		}
	}()
	return s, nil
}

// connect dials the current primary, opens the session, sends the
// subscribe request, and reads its answer synchronously — a refused
// subscription fails here, not mid-stream. A CodeNotPrimary answer is
// followed (up to MaxRedirects), sharing the learned primary with the
// owning client's routing.
func (s *Subscription) connect(ctx context.Context) (net.Conn, *bufio.Reader, *proto.SubscribeAck, error) {
	req, err := proto.EncodeSubscribeRequest(&proto.SubscribeRequest{
		Kind:     uint8(s.q.Kind),
		Peer:     s.q.Peer,
		Landmark: s.q.Landmark,
		K:        uint16(s.q.K),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for redirects := 0; ; {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		s.c.mu.Lock()
		addr := s.c.nodeAddr("")
		s.c.mu.Unlock()
		conn, br, ack, err := s.subscribeAt(ctx, addr, req)
		if err == nil {
			return conn, br, ack, nil
		}
		var werr *proto.Error
		if errors.As(err, &werr) && werr.Code == proto.CodeNotPrimary && werr.Message != "" &&
			redirects < MaxRedirects {
			redirects++
			s.c.met.redirects.Inc()
			s.c.setPrimary(werr.Message)
			continue
		}
		return nil, nil, nil, err
	}
}

// subscribeAt performs one dial-and-subscribe against addr.
func (s *Subscription) subscribeAt(ctx context.Context, addr string, req []byte) (net.Conn, *bufio.Reader, *proto.SubscribeAck, error) {
	timeout := callTimeout(ctx, s.c.cfg.Timeout)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("client: subscribe dial %s: %w", addr, err)
	}
	br := bufio.NewReaderSize(conn, 16<<10)
	ack, err := subscribeHandshake(conn, br, req, timeout)
	if err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	return conn, br, ack, nil
}

// subscribeHandshake opens the session (see hello) and registers the
// query, returning the server's initial answer.
func subscribeHandshake(conn net.Conn, br *bufio.Reader, req []byte, timeout time.Duration) (*proto.SubscribeAck, error) {
	if _, err := hello(conn, br, timeout); err != nil {
		return nil, fmt.Errorf("client: subscribe: %w", err)
	}
	if err := proto.WriteFrameID(conn, proto.MsgSubscribeRequest, subReqID, req); err != nil {
		return nil, fmt.Errorf("client: subscribe send: %w", err)
	}
	rtyp, _, rpayload, err := proto.ReadFrameID(br)
	if err != nil {
		return nil, fmt.Errorf("client: subscribe response: %w", err)
	}
	defer proto.PutBuf(rpayload)
	switch rtyp {
	case proto.MsgSubscribeAck:
		ack, err := proto.DecodeSubscribeAck(rpayload)
		if err != nil {
			return nil, err
		}
		return ack, conn.SetDeadline(time.Time{})
	case proto.MsgError:
		werr, derr := proto.DecodeError(rpayload)
		if derr != nil {
			return nil, fmt.Errorf("client: undecodable error response: %w", derr)
		}
		return nil, werr
	default:
		return nil, fmt.Errorf("client: unexpected subscribe response type %d", rtyp)
	}
}

// run owns the subscription's lifetime: consume the stream, and when it
// dies re-subscribe with bounded backoff until ctx ends or Close.
func (s *Subscription) run(conn net.Conn, br *bufio.Reader) {
	defer close(s.done)
	defer s.c.unregisterSub(s)
	s.setConn(conn)
	for {
		err := s.consume(conn, br)
		conn.Close()
		s.setConn(nil)
		s.mu.Lock()
		s.coherent = false
		s.mu.Unlock()
		if s.finished() {
			s.fail(net.ErrClosed)
			close(s.events)
			return
		}
		s.c.met.retries.Inc()
		for attempt := 1; ; attempt++ {
			var ack *proto.SubscribeAck
			conn, br, ack, err = s.connect(s.ctx)
			if err == nil {
				s.applySnapshot(ack)
				s.setConn(conn)
				// The fresh snapshot reaches consumers as the resync it is.
				s.deliver(Event{Seq: ack.Seq, Kind: proto.EventResync, Neighbors: ack.Neighbors})
				break
			}
			var werr *proto.Error
			if errors.As(err, &werr) || s.finished() {
				// The server understood us and said no (the subject expired,
				// the landmark moved): re-dialling cannot change the answer.
				s.fail(err)
				close(s.events)
				return
			}
			t := time.NewTimer(s.c.backoffDelay(attempt))
			select {
			case <-t.C:
			case <-s.ctx.Done():
				t.Stop()
				s.fail(s.ctx.Err())
				close(s.events)
				return
			}
		}
	}
}

// finished reports whether the subscription should stop reconnecting.
func (s *Subscription) finished() bool {
	select {
	case <-s.closed:
		return true
	default:
	}
	return s.ctx.Err() != nil || s.c.isClosed()
}

// consume reads one connection's event stream until it dies, folding
// every event into the cache. A heartbeat goroutine keeps the server's
// read deadline fed — after the subscribe the client has nothing else to
// say.
func (s *Subscription) consume(conn net.Conn, br *bufio.Reader) error {
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(subHeartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.sendHeartbeat(conn); err != nil {
					return
				}
			case <-hbStop:
				return
			case <-s.closed:
				return
			}
		}
	}()
	defer func() {
		close(hbStop)
		hbWG.Wait()
	}()
	for {
		typ, _, payload, err := proto.ReadFrameID(br)
		if err != nil {
			return fmt.Errorf("client: subscription receive: %w", err)
		}
		switch typ {
		case proto.MsgSubEvent:
			ev, derr := proto.DecodeSubEvent(payload)
			proto.PutBuf(payload)
			if derr != nil {
				return derr
			}
			s.apply(ev)
		case proto.MsgError:
			werr, derr := proto.DecodeError(payload)
			proto.PutBuf(payload)
			if derr != nil {
				return fmt.Errorf("client: undecodable error response: %w", derr)
			}
			return werr
		default:
			proto.PutBuf(payload)
			return fmt.Errorf("client: unexpected subscription frame type %d", typ)
		}
	}
}

// sendHeartbeat acks the last folded sequence — cheap, ignored by the
// server beyond resetting its idle-connection deadline.
func (s *Subscription) sendHeartbeat(conn net.Conn) error {
	payload := proto.EncodeOpAck(&proto.OpAck{Seq: s.Seq()})
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := conn.SetWriteDeadline(time.Now().Add(s.c.cfg.Timeout)); err != nil {
		return err
	}
	return proto.WriteFrameID(conn, proto.MsgOpAck, subReqID, payload)
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

// setConn publishes the live connection so Close can unblock the reader.
func (s *Subscription) setConn(conn net.Conn) {
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
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
// connected and covering everything the server pushed. During a reconnect
// window it reports false.
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

// Err reports why the subscription ended (net.ErrClosed after a plain
// Close); nil while it runs.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the subscription: a best-effort unsubscribe, then the
// connection comes down and the Events channel closes.
func (s *Subscription) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.cancel()
		s.mu.Lock()
		conn := s.conn
		s.mu.Unlock()
		if conn != nil {
			payload := proto.EncodeUnsubscribe(&proto.Unsubscribe{SubID: subReqID})
			s.wmu.Lock()
			if err := conn.SetWriteDeadline(time.Now().Add(time.Second)); err == nil {
				proto.WriteFrameID(conn, proto.MsgUnsubscribe, subReqID+1, payload)
			}
			s.wmu.Unlock()
			conn.Close()
		}
	})
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
// reconnect, or after the subject deregistered, the wire path answers
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
