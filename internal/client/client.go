// Package client implements the proxdisc peer side: the TCP client for the
// management server, the UDP landmark prober, and the two-round join agent.
//
// Every connection opens with the protocol's hello (see package proto); a
// server that does not ack it at version 2 fails the dial
// (TestDialersRefuseNonV2Server). From then on every request is pipelined:
// frames carry request IDs, a demux goroutine matches responses to waiting
// calls, and up to MaxInFlight requests share one connection concurrently —
// callers never serialize behind each other's round trips, and callers that
// become runnable together share one write. A waiting call holds a pooled
// slot, its response channel and timer, so a round trip allocates nothing
// but the answer it decodes. Every method is safe for concurrent use.
//
// Joins can be batched: JoinBatch packs up to the batch size the receiving
// node advertised (at most proto.MaxBatch, 32, the wire cap) into one
// frame — the fast path for a flash crowd of newcomers arriving behind one
// NAT or agent.
//
// A Client routes requests over sessions, one hello'd connection per node
// address. Every request goes on the primary road: the primary a replica
// named, else the dialled address. A replica names its primary when it
// refuses a write, by a MsgRedirect for a join and a CodeNotPrimary error
// for any other. The client learns that primary and sends the request
// again there, at most MaxRedirects times, and every later request goes
// there too; a client that only reads is never told of a primary and stays
// on the replica. One redial rule holds on the road. A transport failure
// drops that address's session, and a node that failed is forgotten as the
// learned primary; the request is then sent once more on a fresh dial. So
// a client of a restarted primary (same address, same data directory), or
// of a server that dropped an idle connection, resumes without caller
// involvement. A re-sent request is at-least-once: a write whose
// connection died after the send may be applied twice. Every request is
// idempotent at the server (re-joins replace, leaves of absent peers ack),
// so the retry changes no state. A request that timed out is never re-sent,
// since the original may still be in flight, and neither is one the server
// answered with any other wire error.
//
// A session carries calls and subscriptions alike. A subscription is a
// subscribe request on the primary road whose ID goes on naming the events
// the server pushes, so a client that talks to one node holds one
// connection however many subscriptions it runs.
//
// # Context-first API
//
// Every request method has a context-first form — JoinContext,
// LookupContext, StatusContext, LandmarksContext, LeaveContext,
// RefreshContext, JoinBatchContext, Subscribe — that accepts a
// context.Context as the cancellation and deadline primitive: the
// effective bound of each exchange is the tighter of Config.Timeout and the
// context's deadline, a request whose context ended is not sent again, and
// a subscription's context scopes its whole lifetime, its resubscribe
// backoff included. The original methods (Join, Lookup, Status, ...) remain
// as thin compatibility wrappers over context.Background().
//
// A real deployment would obtain the router path with the system traceroute
// tool; the PathProvider interface abstracts that, so tests and offline
// deployments plug in a simulated tracer while production plugs in the real
// tool.
package client

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"proxdisc/internal/proto"
	"proxdisc/internal/telemetry"
)

// PathProvider supplies the router path from this host to a landmark router
// (peer-side first, ending at the landmark) — the traceroute-like tool of
// the paper's first round.
type PathProvider interface {
	PathTo(landmark int32) ([]int32, error)
}

// PathProviderFunc adapts a function to PathProvider.
type PathProviderFunc func(landmark int32) ([]int32, error)

// PathTo implements PathProvider.
func (f PathProviderFunc) PathTo(landmark int32) ([]int32, error) { return f(landmark) }

// MaxRedirects bounds how many times one request follows a node naming
// another as the primary (a MsgRedirect or a CodeNotPrimary answer) before
// giving up, catching replicas that name each other.
const MaxRedirects = 3

// DefaultMaxInFlight caps concurrently outstanding pipelined requests per
// connection when Config.MaxInFlight is zero.
const DefaultMaxInFlight = 64

// Config tunes a Client.
type Config struct {
	// Telemetry, when set, receives the client's operational metrics,
	// summed over its sessions: proxdisc_client_inflight (pipelined
	// requests currently outstanding), proxdisc_client_retries_total
	// (requests sent again on a fresh dial, and subscriptions opened again
	// after their stream ended), proxdisc_client_redirects_total, and
	// proxdisc_client_failovers_total (sessions written off after a
	// transport failure).
	Telemetry *telemetry.Registry
	// Timeout bounds each request/response exchange and each dial
	// (default 10s). The context-first methods bound each call by
	// min(Timeout, the context's deadline).
	Timeout time.Duration
	// MaxInFlight caps how many requests may be outstanding on a
	// session at once (default DefaultMaxInFlight, ceiling proto.MaxPipelineDepth — servers size
	// their per-connection response queues to that protocol constant and
	// drop connections that exceed it). Callers beyond the cap block
	// until a slot frees, bounding client-side memory and server-side
	// queueing.
	MaxInFlight int
}

// Client talks to the management server over one session per node it has
// reached (see the package doc). It is safe for concurrent use: requests
// from any number of goroutines are pipelined and demultiplexed by request
// ID. Pipelined requests are unordered with
// respect to each other: the server may answer — and
// apply — them in any order, so a caller that needs one request to see
// another's effect waits for the first response before sending the second.
//
// When the dialled node is a replica, the client follows its answers to
// the primary transparently and sends every later request there.
type Client struct {
	cfg  Config
	addr string // the dialled server address
	met  clientMetrics

	mu       sync.Mutex
	sessions map[string]*session        // one live session per node address
	primary  string                     // primary address a replica named ("" = the dialled one)
	subs     map[*Subscription]struct{} // live subscriptions feeding CachedLookup
	closed   bool                       // no session is dialled after Close
}

// clientMetrics holds the client's pre-resolved metric handles. With no
// Config.Telemetry every field stays nil and the nil-safe metric methods
// make each update a no-op.
type clientMetrics struct {
	inflight  *telemetry.Gauge   // pipelined requests currently outstanding
	retries   *telemetry.Counter // requests sent again on a fresh dial, and resubscribes
	redirects *telemetry.Counter // MsgRedirect / CodeNotPrimary answers followed
	failovers *telemetry.Counter // sessions written off after a transport failure
}

// errRequestTimeout marks a per-request timeout on a healthy connection.
var errRequestTimeout = errors.New("client: request timed out")

// isTimeout reports whether err is a per-request timeout rather than a
// dead connection. The path may be healthy — the response is merely late —
// so the redial rule must neither write the session off nor re-send the
// request: a retried write that in fact applied would double-apply (e.g. a
// Leave whose ack was slow would re-run and report CodeUnknownPeer for a
// departure that succeeded).
func isTimeout(err error) bool {
	if errors.Is(err, errRequestTimeout) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Dial connects to the management server with default configuration.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialConfig(addr, Config{Timeout: timeout})
}

// DialConfig connects to the management server: it opens the session to
// addr, the first of the client's sessions.
func DialConfig(addr string, cfg Config) (*Client, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxInFlight > proto.MaxPipelineDepth {
		cfg.MaxInFlight = proto.MaxPipelineDepth
	}
	c := &Client{cfg: cfg, addr: addr, sessions: make(map[string]*session)}
	if r := cfg.Telemetry; r != nil {
		c.met = clientMetrics{
			inflight:  r.Gauge("proxdisc_client_inflight"),
			retries:   r.Counter("proxdisc_client_retries_total"),
			redirects: r.Counter("proxdisc_client_redirects_total"),
			failovers: r.Counter("proxdisc_client_failovers_total"),
		}
	}
	if _, _, err := c.resolve(); err != nil {
		return nil, err
	}
	return c, nil
}

// ServerMaxBatch reports the batch-join size accepted by the node the next
// batch goes to: the learned primary, else the dialled server. It dials
// that node when no session to it is live, and reports 0 when it cannot.
func (c *Client) ServerMaxBatch() int {
	if _, s, err := c.resolve(); err == nil {
		return s.maxBatch
	}
	return 0
}

// Close ends any live subscriptions, then releases every session.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	sessions := c.sessions
	c.sessions = nil
	subs := make([]*Subscription, 0, len(c.subs))
	for s := range c.subs {
		subs = append(subs, s)
	}
	c.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
	for _, s := range sessions {
		s.conn.Close()
	}
	return nil
}

// resolve returns the address the primary road reaches (the learned
// primary, else the dialled address) and its live session, which it dials
// when there is none. A live session costs one hold of c.mu.
func (c *Client) resolve() (string, *session, error) {
	c.mu.Lock()
	addr := c.addr
	if c.primary != "" {
		addr = c.primary
	}
	s, closed := c.sessions[addr], c.closed
	c.mu.Unlock()
	if s != nil {
		return addr, s, nil
	}
	if closed {
		return addr, nil, net.ErrClosed
	}
	// Dial outside the lock: a slow or unreachable node must not block
	// requests to other nodes (or Close) for the dial timeout.
	s, err := dialSession(addr, c.cfg, c.met.inflight)
	if err != nil {
		return addr, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if live := c.sessions[addr]; c.closed || live != nil {
		s.conn.Close() // closed meanwhile, or lost a concurrent dial race
		if live == nil {
			return addr, nil, net.ErrClosed
		}
		return addr, live, nil
	}
	c.sessions[addr] = s
	return addr, s, nil
}

// drop writes off addr's session after a transport failure (dead is nil
// when the dial failed): it leaves the map, unless a sibling request has
// already replaced it, and its closed connection retires its demux
// goroutine. A node that failed is no longer the learned primary, so the
// primary road falls back to the dialled address, whose node may well have
// been promoted; a stale primary can never wedge the client.
func (c *Client) drop(addr string, dead *session) {
	c.met.failovers.Inc()
	c.mu.Lock()
	if dead != nil && c.sessions[addr] == dead {
		delete(c.sessions, addr)
	}
	if addr == c.primary {
		c.primary = ""
	}
	c.mu.Unlock()
	if dead != nil {
		dead.conn.Close()
	}
}

// send runs one request on the primary road under the redial rule (see the
// package doc): a transport failure drops the session, and the request goes
// once more on a fresh dial. A wire error, a per-request timeout (see
// isTimeout) and the end of ctx return at once. The response payload is
// the caller's, to recycle with proto.PutBuf; payload stays the caller's
// too. A subscribe passes its stream, which each attempt registers on the
// session it reaches (see exchange); any other request passes nil.
func (c *Client) send(ctx context.Context, reqType proto.MsgType, payload []byte, st *stream) (proto.MsgType, []byte, error) {
	for retried := false; ; retried = true {
		addr, s, err := c.resolve()
		if err == nil {
			var (
				typ  proto.MsgType
				resp []byte
			)
			if typ, resp, err = s.exchange(ctx, reqType, payload, st); err == nil {
				return typ, resp, nil
			}
			var werr *proto.Error
			if errors.As(err, &werr) || ctx.Err() != nil || isTimeout(err) {
				return 0, nil, err
			}
		}
		c.drop(addr, s)
		if retried || c.isClosed() {
			return 0, nil, err
		}
		c.met.retries.Inc()
	}
}

// roundTrip is send plus a response-type check, for requests with exactly
// one valid response type; the caller recycles the response. A replica
// naming its primary, by a MsgRedirect or by a CodeNotPrimary error, is
// followed up to MaxRedirects times: the client learns the primary and
// sends the request again on the primary road.
func (c *Client) roundTrip(ctx context.Context, reqType proto.MsgType, payload []byte, wantType proto.MsgType, st *stream) ([]byte, error) {
	for redirects := 0; ; redirects++ {
		typ, resp, err := c.send(ctx, reqType, payload, st)
		var primary string
		switch {
		case err == nil && typ == wantType:
			return resp, nil
		case err == nil && typ == proto.MsgRedirect:
			rd, err := proto.DecodeRedirect(resp)
			proto.PutBuf(resp)
			if err != nil {
				return nil, err
			}
			primary = rd.Addr
		case err == nil:
			proto.PutBuf(resp)
			return nil, fmt.Errorf("client: unexpected response type %d (want %d)", typ, wantType)
		default:
			var werr *proto.Error
			if !errors.As(err, &werr) || werr.Code != proto.CodeNotPrimary || werr.Message == "" {
				return nil, err
			}
			primary = werr.Message
		}
		if redirects == MaxRedirects {
			return nil, fmt.Errorf("client: gave up after %d redirects (last to %s)", redirects, primary)
		}
		c.met.redirects.Inc()
		c.setPrimary(primary)
	}
}

// setPrimary records the primary address a replica pointed us at.
func (c *Client) setPrimary(addr string) {
	c.mu.Lock()
	if addr == c.addr {
		addr = ""
	}
	c.primary = addr
	c.mu.Unlock()
}

// isClosed reports whether Close has been called on this client.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// backoffDelay is the bounded exponential pause before resubscribe
// `attempt` (1-based): 50ms doubling per attempt, capped at 2s.
func backoffDelay(attempt int) time.Duration {
	d := 50 * time.Millisecond
	for i := 1; i < attempt && d < 2*time.Second; i++ {
		d *= 2
	}
	return min(d, 2*time.Second)
}

// StatusContext reports the server node's replication role and shard
// layout. A pre-status server answers with an unknown-message error.
func (c *Client) StatusContext(ctx context.Context) (*proto.Status, error) {
	resp, err := c.roundTrip(ctx, proto.MsgStatusRequest, nil, proto.MsgStatusResponse, nil)
	if err != nil {
		return nil, err
	}
	defer proto.PutBuf(resp)
	return proto.DecodeStatus(resp)
}

// Status is StatusContext without cancellation, bounded by Config.Timeout
// alone. Compatibility wrapper; new code should pass a context.
func (c *Client) Status() (*proto.Status, error) {
	return c.StatusContext(context.Background())
}

// LandmarksContext fetches the landmark router IDs and probe addresses.
func (c *Client) LandmarksContext(ctx context.Context) (*proto.LandmarksResponse, error) {
	resp, err := c.roundTrip(ctx, proto.MsgLandmarksRequest, nil, proto.MsgLandmarksResponse, nil)
	if err != nil {
		return nil, err
	}
	defer proto.PutBuf(resp)
	return proto.DecodeLandmarksResponse(resp)
}

// Landmarks is LandmarksContext without cancellation, bounded by
// Config.Timeout alone. Compatibility wrapper; new code should pass a
// context.
func (c *Client) Landmarks() (*proto.LandmarksResponse, error) {
	return c.LandmarksContext(context.Background())
}

// JoinContext registers this peer with its path and overlay address,
// returning the closest-peer list.
func (c *Client) JoinContext(ctx context.Context, peer int64, overlayAddr string, path []int32) ([]proto.Candidate, error) {
	payload, err := proto.AppendJoinRequest(proto.GetBuf(0), &proto.JoinRequest{Peer: peer, Addr: overlayAddr, Path: path})
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, proto.MsgJoinRequest, payload, proto.MsgJoinResponse, nil)
	proto.PutBuf(payload)
	if err != nil {
		return nil, err
	}
	jr, err := proto.DecodeJoinResponse(resp)
	proto.PutBuf(resp)
	if err != nil {
		return nil, err
	}
	return jr.Neighbors, nil
}

// Join is JoinContext without cancellation, bounded by Config.Timeout per
// exchange. Compatibility wrapper; new code should pass a context.
func (c *Client) Join(peer int64, overlayAddr string, path []int32) ([]proto.Candidate, error) {
	return c.JoinContext(context.Background(), peer, overlayAddr, path)
}

// BatchItem is one entry of a batched join.
type BatchItem struct {
	// Peer is the joining peer's ID.
	Peer int64
	// Addr is its advertised overlay address.
	Addr string
	// Path is its router path, peer-side first, ending at a landmark.
	Path []int32
}

// BatchResult is the per-entry outcome of JoinBatch.
type BatchResult struct {
	Neighbors []proto.Candidate
	Err       error
}

// JoinBatchContext registers many peers in as few round trips as possible —
// the flash-crowd path for agents fronting several newcomers. The items
// travel in MsgBatchJoinRequest frames of up to the batch size advertised
// by the node each frame goes to (ServerMaxBatch). A frame refused by a
// node that accepts less — a primary learned on the way — is split to that
// node's size and sent again: the size check runs before anything
// applies, and each retry is strictly smaller than the frame it replaces.
//
// The returned slice is positional: result i answers items[i]. The error
// return is reserved for transport-level failures that void the whole
// call; per-entry failures live in the results.
func (c *Client) JoinBatchContext(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	out := make([]BatchResult, len(items))
	// limit only falls, and only below the size of a refused chunk.
	for lo, limit := 0, proto.MaxBatch; lo < len(items); {
		n := limit
		if m := c.ServerMaxBatch(); m > 0 && m < n {
			n = m
		}
		hi := min(lo+n, len(items))
		req := &proto.BatchJoinRequest{Joins: make([]proto.JoinRequest, hi-lo)}
		for i, it := range items[lo:hi] {
			req.Joins[i] = proto.JoinRequest{Peer: it.Peer, Addr: it.Addr, Path: it.Path}
		}
		payload, err := proto.EncodeBatchJoinRequest(req)
		if err != nil {
			return nil, err
		}
		resp, err := c.roundTrip(ctx, proto.MsgBatchJoinRequest, payload, proto.MsgBatchJoinResponse, nil)
		if err != nil {
			var werr *proto.Error
			if errors.As(err, &werr) && werr.Code == proto.CodeBadRequest {
				if m := c.ServerMaxBatch(); m > 0 && m < hi-lo {
					limit = m
					continue
				}
			}
			return nil, err
		}
		br, err := proto.DecodeBatchJoinResponse(resp)
		proto.PutBuf(resp)
		if err != nil {
			return nil, err
		}
		if len(br.Results) != hi-lo {
			return nil, fmt.Errorf("client: batch answered %d of %d entries", len(br.Results), hi-lo)
		}
		for k := range br.Results {
			i, r := lo+k, &br.Results[k]
			if r.Code != 0 {
				out[i].Err = &proto.Error{Code: r.Code, Message: r.Message}
				continue
			}
			out[i].Neighbors = r.Neighbors
		}
		lo = hi
	}
	return out, nil
}

// JoinBatch is JoinBatchContext without cancellation. Compatibility
// wrapper; new code should pass a context.
func (c *Client) JoinBatch(items []BatchItem) ([]BatchResult, error) {
	return c.JoinBatchContext(context.Background(), items)
}

// LookupContext answers a read query with one round trip on the primary
// road. Only k-closest queries have a pull form — LandmarkQuery and
// PeerQuery filters exist for Subscribe. When the query caps K below the
// server's neighbor count the answer is trimmed client-side, so pull and
// push report identical sets.
func (c *Client) LookupContext(ctx context.Context, q Query) ([]proto.Candidate, error) {
	if q.Kind != QueryKClosest {
		return nil, fmt.Errorf("client: lookup supports only k-closest queries (kind %d)", q.Kind)
	}
	req := proto.AppendLookupRequest(proto.GetBuf(0), &proto.LookupRequest{Peer: q.Peer})
	resp, err := c.roundTrip(ctx, proto.MsgLookupRequest, req, proto.MsgLookupResponse, nil)
	proto.PutBuf(req)
	if err != nil {
		return nil, err
	}
	lr, err := proto.DecodeLookupResponse(resp)
	proto.PutBuf(resp)
	if err != nil {
		return nil, err
	}
	if q.K > 0 && len(lr.Neighbors) > q.K {
		lr.Neighbors = lr.Neighbors[:q.K]
	}
	return lr.Neighbors, nil
}

// Lookup re-queries the closest peers of a registered peer. Compatibility
// wrapper for LookupContext(ctx, KClosest(peer)); new code should pass a
// context.
func (c *Client) Lookup(peer int64) ([]proto.Candidate, error) {
	return c.LookupContext(context.Background(), KClosest(peer))
}

// LeaveContext deregisters a peer.
func (c *Client) LeaveContext(ctx context.Context, peer int64) error {
	resp, err := c.roundTrip(ctx, proto.MsgLeaveRequest,
		proto.EncodeLeaveRequest(&proto.LeaveRequest{Peer: peer}), proto.MsgAck, nil)
	if err == nil {
		proto.PutBuf(resp)
	}
	return err
}

// Leave is LeaveContext without cancellation. Compatibility wrapper; new
// code should pass a context.
func (c *Client) Leave(peer int64) error {
	return c.LeaveContext(context.Background(), peer)
}

// RefreshContext heartbeats a peer.
func (c *Client) RefreshContext(ctx context.Context, peer int64) error {
	resp, err := c.roundTrip(ctx, proto.MsgRefreshRequest,
		proto.EncodeRefreshRequest(&proto.RefreshRequest{Peer: peer}), proto.MsgAck, nil)
	if err == nil {
		proto.PutBuf(resp)
	}
	return err
}

// Refresh is RefreshContext without cancellation. Compatibility wrapper;
// new code should pass a context.
func (c *Client) Refresh(peer int64) error {
	return c.RefreshContext(context.Background(), peer)
}

// ProbeRTT measures the round-trip time to a landmark probe responder with
// one UDP echo. It validates the echoed nonce.
func ProbeRTT(addr string, timeout time.Duration) (time.Duration, error) {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return 0, fmt.Errorf("client: probe dial %s: %w", addr, err)
	}
	defer conn.Close()
	var nb [8]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return 0, fmt.Errorf("client: nonce: %w", err)
	}
	nonce := binary.BigEndian.Uint64(nb[:])
	start := time.Now()
	if _, err := conn.Write(proto.EncodeProbe(nonce)); err != nil {
		return 0, fmt.Errorf("client: probe send: %w", err)
	}
	if err := conn.SetReadDeadline(start.Add(timeout)); err != nil {
		return 0, err
	}
	buf := make([]byte, 64)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return 0, fmt.Errorf("client: probe receive: %w", err)
		}
		got, err := proto.DecodeProbe(buf[:n])
		if err != nil {
			continue // stray datagram
		}
		if got == nonce {
			return time.Since(start), nil
		}
	}
}

// LandmarkRTT is a measured landmark.
type LandmarkRTT struct {
	Router int32
	Addr   string
	RTT    time.Duration
}

// ProbeLandmarks measures every landmark `tries` times and returns results
// sorted by minimum RTT (unreachable landmarks are dropped).
func ProbeLandmarks(lms *proto.LandmarksResponse, tries int, timeout time.Duration) []LandmarkRTT {
	if tries <= 0 {
		tries = 3
	}
	var out []LandmarkRTT
	for i := range lms.Routers {
		best := time.Duration(-1)
		for t := 0; t < tries; t++ {
			rtt, err := ProbeRTT(lms.Addrs[i], timeout)
			if err != nil {
				continue
			}
			if best < 0 || rtt < best {
				best = rtt
			}
		}
		if best >= 0 {
			out = append(out, LandmarkRTT{Router: lms.Routers[i], Addr: lms.Addrs[i], RTT: best})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RTT != out[j].RTT {
			return out[i].RTT < out[j].RTT
		}
		return out[i].Router < out[j].Router
	})
	return out
}

// Agent bundles the full newcomer protocol: probe landmarks, trace the path
// to the closest one, and join through the management server.
type Agent struct {
	// Client is the management-server connection.
	Client *Client
	// Provider supplies router paths (the traceroute tool).
	Provider PathProvider
	// OverlayAddr is this peer's advertised address.
	OverlayAddr string
	// ProbeTries and ProbeTimeout tune the landmark measurement.
	ProbeTries   int
	ProbeTimeout time.Duration
}

// ErrNoLandmark is returned when no landmark answered probes.
var ErrNoLandmark = errors.New("client: no landmark reachable")

// JoinContext runs the two-round protocol for the given peer ID and returns
// the closest-peer answer. The landmark fallback order is by measured RTT:
// if the closest landmark cannot be traced, the next one is tried.
func (a *Agent) JoinContext(ctx context.Context, peer int64) ([]proto.Candidate, error) {
	lms, err := a.Client.LandmarksContext(ctx)
	if err != nil {
		return nil, err
	}
	measured := ProbeLandmarks(lms, a.ProbeTries, a.ProbeTimeout)
	if len(measured) == 0 {
		return nil, ErrNoLandmark
	}
	var lastErr error
	for _, lm := range measured {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path, err := a.Provider.PathTo(lm.Router)
		if err != nil {
			lastErr = err
			continue
		}
		cands, err := a.Client.JoinContext(ctx, peer, a.OverlayAddr, path)
		if err != nil {
			lastErr = err
			continue
		}
		return cands, nil
	}
	return nil, fmt.Errorf("client: join failed against every landmark: %w", lastErr)
}

// Join is JoinContext without cancellation. Compatibility wrapper; new
// code should pass a context.
func (a *Agent) Join(peer int64) ([]proto.Candidate, error) {
	return a.JoinContext(context.Background(), peer)
}
