// Package client implements the proxdisc peer side: the TCP client for the
// management server, the UDP landmark prober, and the two-round join agent.
//
// Every connection opens with the protocol's hello (see package proto); a
// server that does not ack it at version 2 fails the dial. From then on
// every request is pipelined: frames carry request IDs, a demux goroutine
// matches responses to waiting calls, and up to MaxInFlight requests share
// one connection concurrently — callers never serialize behind each other's
// round trips. A waiting call holds a pooled slot, its response channel and
// timer, so a round trip allocates nothing but the answer it decodes. Every
// method is safe for concurrent use.
//
// A real deployment would obtain the router path with the system traceroute
// tool; the PathProvider interface abstracts that, so tests and offline
// deployments plug in a simulated tracer while production plugs in the real
// tool.
package client

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/conf"
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

// MaxRedirects bounds how many MsgRedirect hops Join follows before giving
// up, catching cluster nodes whose shard maps point at each other.
const MaxRedirects = 3

// DefaultMaxInFlight caps concurrently outstanding pipelined requests per
// connection when Config.MaxInFlight is zero.
const DefaultMaxInFlight = 64

// Config tunes a Client connection.
type Config struct {
	// Common holds the knobs shared with the other networked components
	// (conf.Common). Common.Telemetry, when set, receives the client's
	// operational metrics: proxdisc_client_inflight (pipelined requests
	// currently outstanding), proxdisc_client_retries_total,
	// proxdisc_client_redirects_total, and proxdisc_client_failovers_total.
	// Aux connections (redirect targets, failover redials) report into the
	// same series. Common.Backoff is the initial pause before the second
	// and later transport retries (default 50ms); not-primary redirects
	// retry immediately. The client logs nothing, so Common.Logger is
	// accepted and ignored.
	conf.Common
	// Timeout bounds each request/response exchange (default 10s). The
	// context-first methods bound each call by min(Timeout, the context's
	// deadline).
	Timeout time.Duration
	// MaxInFlight caps how many requests may be outstanding on the
	// connection at once (default DefaultMaxInFlight, ceiling proto.MaxPipelineDepth — servers size
	// their per-connection response queues to that protocol constant and
	// drop connections that exceed it). Callers beyond the cap block
	// until a slot frees, bounding client-side memory and server-side
	// queueing.
	MaxInFlight int
	// FailoverRetries is how many extra attempts a request gets after a
	// transport failure or a not-primary rejection (default 0: fail fast).
	// The first transport retry redials the target immediately (the
	// historic dead-connection redial); each later one waits
	// Common.Backoff first, doubling per attempt up to 2s — the
	// bounded-backoff failover path for clients of a replicated
	// deployment, where a crashed node's address comes back (or a
	// follower answers) within a promotion window.
	//
	// Retried requests are at-least-once: a write whose connection died
	// after the send may be applied twice. Every request is idempotent at
	// the server (re-joins replace, leaves of absent peers ack), so the
	// retry changes no state — but per-request timeouts are never
	// re-sent, since the original may still be in flight.
	FailoverRetries int
}

// Client is a connection to the management server. It is safe for
// concurrent use: requests from any number of goroutines are pipelined and
// demultiplexed by request ID. Pipelined requests are unordered with
// respect to each other: the server may answer — and
// apply — them in any order, so a caller that needs one request to see
// another's effect waits for the first response before sending the second.
//
// When the server is a sharded cluster node it may answer a join with a
// redirect to the node owning the join's landmark; the client follows
// transparently, caching one connection per discovered node.
type Client struct {
	cfg  Config
	addr string // the dialled server address, for failover redials
	conn net.Conn
	// Timeout bounds each request/response exchange.
	timeout time.Duration

	// mainDown marks the primary connection dead after a transport
	// failure; with FailoverRetries set, later requests flow through a
	// redialed cached connection to the same address instead.
	mainDown atomic.Bool
	// isAux marks connections the owning client manages (redirect targets,
	// failover redials). An aux client is a plain direct connection: it
	// never follows CodeNotPrimary itself — the owning client's routing
	// maps (home, primary) are the single place that policy lives.
	isAux bool

	// maxBatch is the batch size the server accepts (at least 1), set once
	// at dial time.
	maxBatch int

	// br buffers all reads for the connection's whole life, so one read
	// syscall can deliver many pipelined response frames.
	br *bufio.Reader

	// Pipelining state. A caller appends its request
	// frame to bw under wmu, releases wmu, yields the processor once, and
	// then flushes whatever is buffered — so callers that became runnable
	// together (say, woken one after another by readLoop) all append during
	// the first one's yield and their frames reach the kernel in one
	// syscall; the rest find the buffer empty and skip the flush. On an
	// idle connection the yield returns at once and the request is flushed
	// immediately.
	//
	// A caller waits on a call slot from callPool, registered in pending
	// under its request ID; the demux removes it from pending before it
	// delivers the response, and only a caller that received its response
	// puts the slot back (see call).
	wmu      sync.Mutex
	bw       *bufio.Writer
	nextID   atomic.Uint64
	slots    chan struct{} // in-flight semaphore, cap MaxInFlight
	pmu      sync.Mutex
	pending  map[uint64]*call
	readErr  error         // set by readLoop before readDone closes; guarded by pmu
	readDone chan struct{} // closed when readLoop exits

	auxMu   sync.Mutex
	aux     map[string]*Client         // cluster nodes discovered through redirects
	home    map[int64]string           // address of the node that served each peer's join
	primary string                     // primary address learned from CodeNotPrimary ("" = the dialled one)
	subs    map[*Subscription]struct{} // live subscriptions feeding CachedLookup
	closed  bool                       // guards against dialling new aux connections after Close

	met clientMetrics
}

// clientMetrics holds the client's pre-resolved metric handles. With no
// Config.Telemetry every field stays nil and the nil-safe metric methods
// make each update a no-op.
type clientMetrics struct {
	inflight  *telemetry.Gauge   // pipelined requests currently outstanding
	retries   *telemetry.Counter // transport-level retry attempts
	redirects *telemetry.Counter // not-primary / MsgRedirect hops followed
	failovers *telemetry.Counter // paths written off after a transport failure
}

// frameResp is one demultiplexed response frame.
type frameResp struct {
	typ     proto.MsgType
	payload []byte
}

// errRequestTimeout marks a per-request timeout on a healthy connection.
var errRequestTimeout = errors.New("client: request timed out")

// isTimeout reports whether err is a per-request timeout rather than a
// dead connection. The path may be healthy — the response is merely late —
// so the failover machinery must neither write the connection off nor
// re-send the request: a retried write that in fact applied would
// double-apply (e.g. a Leave whose ack was slow would re-run and report
// CodeUnknownPeer for a departure that succeeded).
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

// DialConfig connects to the management server.
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
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c := &Client{
		cfg:      cfg,
		addr:     addr,
		conn:     conn,
		br:       bufio.NewReaderSize(conn, 16<<10),
		bw:       bufio.NewWriterSize(conn, 16<<10),
		timeout:  cfg.Timeout,
		slots:    make(chan struct{}, cfg.MaxInFlight),
		pending:  make(map[uint64]*call),
		readDone: make(chan struct{}),
	}
	if r := cfg.Telemetry; r != nil {
		// Aux clients copy cfg, so they resolve the same registered series
		// and all connections of one logical client share these handles.
		c.met = clientMetrics{
			inflight:  r.Gauge("proxdisc_client_inflight"),
			retries:   r.Counter("proxdisc_client_retries_total"),
			redirects: r.Counter("proxdisc_client_redirects_total"),
			failovers: r.Counter("proxdisc_client_failovers_total"),
		}
	}
	ack, err := hello(conn, c.br, cfg.Timeout)
	if err == nil && ack.MaxBatch < 1 {
		err = errors.New("client: server acked a batch limit of 0")
	}
	if err == nil {
		// The demux goroutine reads without deadlines; individual calls
		// enforce their own timeouts.
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.maxBatch = int(ack.MaxBatch)
	go c.readLoop()
	return c, nil
}

// hello opens a session on a fresh connection, for all three dialers
// (DialConfig, Follow, Subscribe): it sends MsgHello in the bare framing,
// offering this build's version and batch limit, and reads the answer, all
// within timeout. Only a MsgHelloAck at version 2 is a session; a MsgError
// (a server that speaks no version 2 refuses the hello that way), an ack
// at another version or any other frame is an error, never a fallback. On
// success the connection's deadline is still armed; the caller finishes
// its own opening exchange and clears it.
func hello(conn net.Conn, br io.Reader, timeout time.Duration) (*proto.HelloAck, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("client: set deadline: %w", err)
	}
	req := proto.EncodeHello(&proto.Hello{MaxVersion: proto.MaxVersion, MaxBatch: proto.MaxBatch})
	if err := proto.WriteFrame(conn, proto.MsgHello, req); err != nil {
		return nil, fmt.Errorf("client: send hello: %w", err)
	}
	typ, payload, err := proto.ReadFrame(br)
	if err != nil {
		return nil, fmt.Errorf("client: read hello response: %w", err)
	}
	defer proto.PutBuf(payload)
	switch typ {
	case proto.MsgHelloAck:
		ack, err := proto.DecodeHelloAck(payload)
		if err != nil {
			return nil, fmt.Errorf("client: bad hello ack: %w", err)
		}
		if ack.Version != proto.Version2 {
			return nil, fmt.Errorf("client: server acked protocol version %d, want %d", ack.Version, proto.Version2)
		}
		return ack, nil
	case proto.MsgError:
		werr, err := proto.DecodeError(payload)
		if err != nil {
			return nil, fmt.Errorf("client: undecodable hello rejection: %w", err)
		}
		return nil, fmt.Errorf("client: server refused the version-%d hello: %w", proto.Version2, werr)
	default:
		return nil, fmt.Errorf("client: unexpected hello response type %d", typ)
	}
}

// ServerMaxBatch reports the batch-join size the server accepts.
func (c *Client) ServerMaxBatch() int { return c.maxBatch }

// readLoop demultiplexes response frames to waiting calls by request ID.
// It exits on the first read error (including Close), after which every
// outstanding and future call on this connection fails fast.
func (c *Client) readLoop() {
	for {
		typ, id, payload, err := proto.ReadFrameID(c.br)
		if err != nil {
			c.pmu.Lock()
			c.readErr = fmt.Errorf("client: receive: %w", err)
			c.pmu.Unlock()
			close(c.readDone)
			return
		}
		c.pmu.Lock()
		cl, ok := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if ok {
			cl.done <- frameResp{typ: typ, payload: payload} // buffered, never blocks
		} else {
			proto.PutBuf(payload) // response to a call that timed out
		}
	}
}

// Close releases the connection, any connections opened while following
// redirects, and any live subscriptions.
func (c *Client) Close() error {
	c.auxMu.Lock()
	c.closed = true
	for _, a := range c.aux {
		a.Close()
	}
	subs := make([]*Subscription, 0, len(c.subs))
	for s := range c.subs {
		subs = append(subs, s)
	}
	c.aux = nil
	c.home = nil
	c.auxMu.Unlock()
	for _, s := range subs {
		s.Close()
	}
	return c.conn.Close()
}

// auxClient returns (dialling and caching if needed) a connection to
// another cluster node discovered through a redirect.
func (c *Client) auxClient(addr string) (*Client, error) {
	c.auxMu.Lock()
	if c.closed {
		c.auxMu.Unlock()
		return nil, net.ErrClosed
	}
	if a, ok := c.aux[addr]; ok {
		c.auxMu.Unlock()
		return a, nil
	}
	// Dial outside the lock: a slow or unreachable node must not block
	// requests to other nodes (or Close) for the dial timeout. Aux
	// connections never retry internally — the owning client's failover
	// loop is the single place attempts are counted.
	auxCfg := c.cfg
	auxCfg.FailoverRetries = 0
	c.auxMu.Unlock()
	a, err := DialConfig(addr, auxCfg)
	if err != nil {
		return nil, fmt.Errorf("client: follow redirect: %w", err)
	}
	a.isAux = true
	c.auxMu.Lock()
	defer c.auxMu.Unlock()
	if c.closed {
		a.Close()
		return nil, net.ErrClosed
	}
	if existing, ok := c.aux[addr]; ok {
		a.Close() // lost a concurrent dial race; use the cached one
		return existing, nil
	}
	if c.aux == nil {
		c.aux = make(map[string]*Client)
	}
	c.aux[addr] = a
	return a, nil
}

// dropAux discards a cached redirect connection that turned out dead, so
// the next request to that node redials instead of failing forever.
func (c *Client) dropAux(addr string, dead *Client) {
	c.auxMu.Lock()
	if c.aux[addr] == dead {
		delete(c.aux, addr)
	}
	c.auxMu.Unlock()
	dead.Close()
}

// setHome records the address of the node a peer's join landed on ("" for
// the primary connection), so subsequent peer-keyed requests (Lookup,
// Refresh, Leave) go to the node that actually holds the registration. It
// returns the home it replaces.
func (c *Client) setHome(peer int64, addr string) (old string) {
	c.auxMu.Lock()
	defer c.auxMu.Unlock()
	old = c.home[peer]
	if addr == "" {
		delete(c.home, peer)
	} else {
		if c.home == nil {
			c.home = make(map[int64]string)
		}
		c.home[peer] = addr
	}
	return old
}

// rehome records that a join of peer succeeded at addr ("" for the primary
// connection). When the peer's recorded home was another node, that node
// still holds the old registration and would offer the peer as a neighbour
// until its TTL expired, so it gets one best-effort Leave. The Leave goes
// straight to the old node and never follows a CodeNotPrimary answer: a
// replica would point it at the primary, which may be the new home. An
// unchanged home sends nothing.
func (c *Client) rehome(ctx context.Context, peer int64, addr string) {
	old := c.setHome(peer, addr)
	if old == addr || c.nodeAddr(old) == c.nodeAddr(addr) {
		return
	}
	var target *Client
	var err error
	if old == "" {
		target, err = c.primaryTarget()
	} else {
		target, err = c.auxClient(old)
	}
	if err == nil {
		// Best effort: the join already succeeded, and a retire that fails
		// leaves a record the old node's TTL expiry removes.
		if _, resp, err := target.exchange(ctx, proto.MsgLeaveRequest, proto.EncodeLeaveRequest(&proto.LeaveRequest{Peer: peer})); err == nil {
			proto.PutBuf(resp)
		}
	}
}

// nodeAddr resolves a home to the address of the node it reaches: "" is
// the primary road, which leads to a learned primary when a replica named
// one and to the dialled address otherwise.
func (c *Client) nodeAddr(home string) string {
	if home != "" {
		return home
	}
	c.auxMu.Lock()
	defer c.auxMu.Unlock()
	if c.primary != "" {
		return c.primary
	}
	return c.addr
}

// homeAddr returns the address of the node holding a peer's registration,
// or "" for the primary connection.
func (c *Client) homeAddr(peer int64) string {
	c.auxMu.Lock()
	defer c.auxMu.Unlock()
	return c.home[peer]
}

// transportAttempts is how many tries a request gets against a node that
// answers with transport errors: the first call plus at least one redial
// (dead cached connections have always been redialed once), extended by
// Config.FailoverRetries.
func (c *Client) transportAttempts() int {
	n := 2
	if c.cfg.FailoverRetries+1 > n {
		n = c.cfg.FailoverRetries + 1
	}
	return n
}

// backoffDelay is the bounded exponential pause before transport retry
// `attempt` (1-based): Common.Backoff doubling per attempt, capped at 2s.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.cfg.ResolveBackoff(50 * time.Millisecond)
	for i := 1; i < attempt && d < 2*time.Second; i++ {
		d *= 2
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// callTimeout bounds one exchange: Config.Timeout, tightened by the
// context's deadline when that is sooner.
func (c *Client) callTimeout(ctx context.Context) time.Duration {
	d := c.timeout
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < d {
			d = until
		}
	}
	return d
}

// isClosed reports whether Close has been called on this client.
func (c *Client) isClosed() bool {
	c.auxMu.Lock()
	defer c.auxMu.Unlock()
	return c.closed
}

// setPrimary records the primary address a replica pointed us at.
func (c *Client) setPrimary(addr string) {
	c.auxMu.Lock()
	if addr == c.addr {
		addr = ""
	}
	c.primary = addr
	c.auxMu.Unlock()
}

// primaryTarget returns the client to use for primary-bound requests: a
// connection to the discovered primary when a replica redirected us, the
// main connection while it is healthy, and otherwise a redialed cached
// connection to the dialled address. An unreachable learned primary is
// forgotten on the spot and the dialled address tried instead — its node
// may well have been promoted — so a stale override can never wedge the
// client.
func (c *Client) primaryTarget() (*Client, error) {
	c.auxMu.Lock()
	override := c.primary
	c.auxMu.Unlock()
	if override != "" {
		a, err := c.auxClient(override)
		if err == nil {
			return a, nil
		}
		c.setPrimary("")
	}
	if c.mainDown.Load() {
		return c.auxClient(c.addr)
	}
	return c, nil
}

// noteTransportFailure marks the failed path so the next attempt redials:
// the main connection is flagged down and its dead socket closed (which
// also retires the demux goroutine), a cached aux
// connection is dropped. From then on primary-bound traffic flows through
// a redialed cached connection to the dialled address.
func (c *Client) noteTransportFailure(target *Client) {
	if target == c {
		if c.mainDown.CompareAndSwap(false, true) {
			c.conn.Close()
		}
		return
	}
	c.dropAux(target.addr, target)
}

// noteFailoverFailure is noteTransportFailure under the failover policy: a
// dead cached connection is always dropped (the historic redial-once
// behaviour), but the main connection is only written off when the caller
// opted into failover — a default-configured client keeps its original
// routing and error surface. A learned primary override that itself went
// dark is cleared, so the next attempt falls back to the dialled address
// (whose node may well have been promoted) instead of wedging on the dead
// override forever.
func (c *Client) noteFailoverFailure(target *Client) {
	if target == c && c.cfg.FailoverRetries == 0 {
		return
	}
	c.met.failovers.Inc()
	if target != c {
		c.auxMu.Lock()
		if c.primary != "" && target.addr == c.primary {
			c.primary = ""
		}
		c.auxMu.Unlock()
	}
	c.noteTransportFailure(target)
}

// transportRetry is the single transport-failure retry loop every
// request path shares: resolve a target (dial failures are retried too),
// run op against it, and on a transport-level error note the failure and
// try again — up to maxAttempts, with the first retry immediate (the
// historic dead-connection redial) and bounded exponential backoff before
// the later ones. Wire errors (*proto.Error) return immediately: redirect
// policies live in the callers and never consume transport attempts.
func (c *Client) transportRetry(ctx context.Context, maxAttempts int, resolve func() (*Client, error), op func(target *Client) error) error {
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			c.met.retries.Inc()
		}
		target, err := resolve()
		if err == nil {
			if err = op(target); err == nil {
				return nil
			}
			var werr *proto.Error
			if errors.As(err, &werr) {
				return err
			}
			if ctx.Err() != nil {
				// The caller's context ended; the path is not at fault, so
				// neither write it off nor burn retries against it.
				return err
			}
			if isTimeout(err) {
				// A late response, not a dead path: surface the timeout
				// without re-sending (see isTimeout). The session stays
				// usable — the demux discards the late frame by its ID.
				return err
			}
			c.noteFailoverFailure(target)
		}
		if c.isClosed() {
			// The client itself was closed; further redials cannot succeed
			// and post-Close backoff sleeps would just delay the caller.
			// (A net.ErrClosed alone is not terminal: a sibling request
			// that just wrote the main connection off produces the same
			// error, and that caller should ride over to the redial path.)
			return err
		}
		if attempt >= maxAttempts {
			return err
		}
		if attempt > 1 {
			t := time.NewTimer(c.backoffDelay(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
}

// peerRoundTrip performs a peer-keyed request against the node holding the
// peer's registration. A CodeNotPrimary rejection re-homes the peer at the
// advertised primary and retries there (the node failed over to a replica
// set); a CodeUnknownPeer stops routing the peer's requests to a stale
// owner; other protocol-level errors are returned as-is. Transport-level
// failures follow the retry policy of the underlying path (see roundTrip
// and peerRoundTripAt).
func (c *Client) peerRoundTrip(ctx context.Context, peer int64, reqType proto.MsgType, payload []byte, wantType proto.MsgType) ([]byte, error) {
	for redirects := 0; ; {
		var (
			resp []byte
			err  error
		)
		if addr := c.homeAddr(peer); addr == "" {
			resp, err = c.roundTrip(ctx, reqType, payload, wantType)
		} else {
			resp, err = c.peerRoundTripAt(ctx, addr, reqType, payload, wantType)
		}
		if err == nil {
			return resp, nil
		}
		var werr *proto.Error
		if errors.As(err, &werr) {
			switch {
			case werr.Code == proto.CodeUnknownPeer:
				// The owner expired the peer; stop routing its requests
				// there so the home map cannot grow without bound.
				c.setHome(peer, "")
			case werr.Code == proto.CodeNotPrimary && werr.Message != "" && redirects < MaxRedirects:
				redirects++
				c.met.redirects.Inc()
				c.setHome(peer, werr.Message)
				continue
			}
		}
		return nil, err
	}
}

// peerRoundTripAt runs one peer-keyed request against the node at addr. A
// dead cached connection is dropped and redialed — once, as always, or up
// to Config.FailoverRetries times with bounded backoff.
func (c *Client) peerRoundTripAt(ctx context.Context, addr string, reqType proto.MsgType, payload []byte, wantType proto.MsgType) ([]byte, error) {
	var resp []byte
	err := c.transportRetry(ctx, c.transportAttempts(),
		func() (*Client, error) { return c.auxClient(addr) },
		func(target *Client) error {
			var err error
			resp, err = target.roundTrip(ctx, reqType, payload, wantType)
			return err
		})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// exchange sends one request frame and waits for its response frame,
// decoding wire errors into *proto.Error values and returning the response
// type; any number of exchanges proceed concurrently. It takes an in-flight
// slot and a pooled call, registers the call under a fresh request ID,
// writes the frame, and waits for the demux goroutine (or a timeout, or
// connection death). The response payload is the caller's, to recycle with
// proto.PutBuf once decoded; payload stays the caller's too, since a retry
// may send it again.
func (c *Client) exchange(ctx context.Context, reqType proto.MsgType, payload []byte) (proto.MsgType, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	select {
	case c.slots <- struct{}{}:
	case <-c.readDone:
		return 0, nil, c.readError()
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	c.met.inflight.Inc()
	defer func() {
		c.met.inflight.Dec()
		<-c.slots
	}()

	id := c.nextID.Add(1)
	cl := callPool.Get().(*call)
	c.pmu.Lock()
	if c.readErr != nil {
		c.pmu.Unlock()
		callPool.Put(cl) // never registered, so nothing else can reach it
		return 0, nil, c.readError()
	}
	c.pending[id] = cl
	c.pmu.Unlock()

	timeout := c.callTimeout(ctx)
	c.wmu.Lock()
	err := c.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err == nil {
		err = proto.WriteFrameID(c.bw, reqType, id, payload)
	}
	c.wmu.Unlock()
	if err == nil {
		// Let every other runnable caller append its frame first; whoever
		// gets back here first flushes them all (see the wmu comment).
		runtime.Gosched()
		c.wmu.Lock()
		err = c.bw.Flush() // no write when another caller already flushed our frame
		c.wmu.Unlock()
	}
	if err != nil {
		c.forget(id)
		return 0, nil, fmt.Errorf("client: send: %w", err)
	}

	cl.timer.Reset(timeout)
	select {
	case r := <-cl.done:
		return cl.received(r)
	case <-cl.timer.C:
		err = fmt.Errorf("%w after %v", errRequestTimeout, timeout)
	case <-ctx.Done():
		err = ctx.Err()
	case <-c.readDone:
		err = c.readError()
	}
	c.forget(id)
	// The response may have been delivered while we were giving up.
	select {
	case r := <-cl.done:
		return cl.received(r)
	default:
	}
	// The demux may hold the call still, found in pending just before
	// forget, and send to it later: it goes to the GC, never back to the
	// pool.
	cl.timer.Stop()
	return 0, nil, err
}

// call is one outstanding request's slot: the channel its response frame
// arrives on and the timer bounding the wait, both reused from call to
// call. A call goes back to callPool only once its one response was
// received — the demux removed it from pending and sent, and holds it no
// longer — so no demux lookup, delete or send ever reaches a reused call.
type call struct {
	done  chan frameResp // capacity 1: the demux never blocks on it
	timer *time.Timer
}

var callPool = sync.Pool{New: func() any {
	// Stopped until exchange arms it; since Go 1.23 a stopped or reset
	// timer delivers no stale tick, so a pooled one needs no drain.
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &call{done: make(chan frameResp, 1), timer: t}
}}

// received finishes a call whose response arrived and returns it to the
// pool.
func (cl *call) received(r frameResp) (proto.MsgType, []byte, error) {
	cl.timer.Stop()
	callPool.Put(cl)
	return decodeResp(r.typ, r.payload)
}

// forget deregisters a request whose caller stopped waiting.
func (c *Client) forget(id uint64) {
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
}

// readError reports why the demux goroutine exited.
func (c *Client) readError() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return net.ErrClosed
}

// decodeResp unwraps MsgError responses into *proto.Error values,
// recycling their payload.
func decodeResp(typ proto.MsgType, payload []byte) (proto.MsgType, []byte, error) {
	if typ == proto.MsgError {
		werr, derr := proto.DecodeError(payload)
		proto.PutBuf(payload)
		if derr != nil {
			return 0, nil, fmt.Errorf("client: undecodable error response: %w", derr)
		}
		return 0, nil, werr
	}
	return typ, payload, nil
}

// roundTrip is exchange plus a response-type check, for requests with
// exactly one valid response type; the caller recycles the response. It
// targets the primary path: a replica answering CodeNotPrimary with its
// primary's address is followed (up to MaxRedirects, without spending
// transport attempts), and with Config.FailoverRetries set, transport
// failures redial the path with bounded backoff before giving up.
func (c *Client) roundTrip(ctx context.Context, reqType proto.MsgType, payload []byte, wantType proto.MsgType) ([]byte, error) {
	for redirects := 0; ; {
		var (
			typ  proto.MsgType
			resp []byte
		)
		err := c.transportRetry(ctx, 1+c.cfg.FailoverRetries, c.primaryTarget,
			func(target *Client) error {
				var err error
				typ, resp, err = target.exchange(ctx, reqType, payload)
				return err
			})
		if err == nil {
			if typ != wantType {
				proto.PutBuf(resp)
				return nil, fmt.Errorf("client: unexpected response type %d (want %d)", typ, wantType)
			}
			return resp, nil
		}
		var werr *proto.Error
		if errors.As(err, &werr) && werr.Code == proto.CodeNotPrimary && werr.Message != "" &&
			!c.isAux && redirects < MaxRedirects {
			redirects++
			c.met.redirects.Inc()
			c.setPrimary(werr.Message)
			continue // retry immediately at the advertised primary
		}
		// Aux connections surface CodeNotPrimary to their owning client,
		// whose routing maps decide where to go next.
		return nil, err
	}
}

// StatusContext reports the server node's replication role and shard
// layout. A pre-status server answers with an unknown-message error.
func (c *Client) StatusContext(ctx context.Context) (*proto.Status, error) {
	resp, err := c.roundTrip(ctx, proto.MsgStatusRequest, nil, proto.MsgStatusResponse)
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
	resp, err := c.roundTrip(ctx, proto.MsgLandmarksRequest, nil, proto.MsgLandmarksResponse)
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
// returning the closest-peer list. If the server answers with a redirect to
// the cluster node owning the path's landmark, the client follows it (up to
// MaxRedirects hops). A peer that this client registered at another node
// before is retired there once the join lands (see rehome).
func (c *Client) JoinContext(ctx context.Context, peer int64, overlayAddr string, path []int32) ([]proto.Candidate, error) {
	payload, err := proto.AppendJoinRequest(proto.GetBuf(0), &proto.JoinRequest{Peer: peer, Addr: overlayAddr, Path: path})
	if err != nil {
		return nil, err
	}
	defer proto.PutBuf(payload)
	// targetAddr "" is the primary path; a redirect moves the join to the
	// named node. Each hop runs under the shared transport-retry loop: a
	// dead cached redirect connection is redialed once, as always, and
	// with FailoverRetries the primary path too rides through a crash
	// window (dial failures included) with bounded backoff.
	targetAddr := ""
	for hops := 0; ; {
		resolve := c.primaryTarget
		maxAttempts := 1 + c.cfg.FailoverRetries
		if targetAddr != "" {
			addr := targetAddr
			resolve = func() (*Client, error) { return c.auxClient(addr) }
			maxAttempts = c.transportAttempts()
		}
		var (
			typ  proto.MsgType
			resp []byte
		)
		err := c.transportRetry(ctx, maxAttempts, resolve, func(target *Client) error {
			var err error
			typ, resp, err = target.exchange(ctx, proto.MsgJoinRequest, payload)
			return err
		})
		if err != nil {
			return nil, err
		}
		switch typ {
		case proto.MsgJoinResponse:
			jr, err := proto.DecodeJoinResponse(resp)
			proto.PutBuf(resp)
			if err != nil {
				return nil, err
			}
			c.rehome(ctx, peer, targetAddr)
			return jr.Neighbors, nil
		case proto.MsgRedirect:
			rd, err := proto.DecodeRedirect(resp)
			proto.PutBuf(resp)
			if err != nil {
				return nil, err
			}
			if hops >= MaxRedirects {
				return nil, fmt.Errorf("client: join gave up after %d redirects (last to %s)", hops, rd.Addr)
			}
			hops++
			c.met.redirects.Inc()
			targetAddr = rd.Addr
		default:
			proto.PutBuf(resp)
			return nil, fmt.Errorf("client: unexpected response type %d (want %d)", typ, proto.MsgJoinResponse)
		}
	}
}

// Join is JoinContext without cancellation, bounded by Config.Timeout per
// exchange. Compatibility wrapper; new code should pass a context.
func (c *Client) Join(peer int64, overlayAddr string, path []int32) ([]proto.Candidate, error) {
	return c.JoinContext(context.Background(), peer, overlayAddr, path)
}

// ForwardJoinContext relays a join to the cluster node that owns its
// landmark, on behalf of another node. The callee answers locally and never
// relays further.
func (c *Client) ForwardJoinContext(ctx context.Context, peer int64, overlayAddr string, path []int32) ([]proto.Candidate, error) {
	return c.ForwardJoinFencedContext(ctx, peer, overlayAddr, path, 0)
}

// ForwardJoinFencedContext is ForwardJoinContext with a landmark fencing
// epoch (typically copied from the Redirect that named the callee). A
// non-zero epoch makes the write conditional: the callee rejects it with
// CodeStaleEpoch if the landmark has been handed to another shard since,
// instead of silently applying it on a deposed owner. Zero sends the
// classic unfenced forward, byte-identical to pre-epoch versions.
func (c *Client) ForwardJoinFencedContext(ctx context.Context, peer int64, overlayAddr string, path []int32, epoch uint64) ([]proto.Candidate, error) {
	payload, err := proto.EncodeForwardedJoinRequestFenced(&proto.JoinRequest{Peer: peer, Addr: overlayAddr, Path: path}, epoch)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, proto.MsgForwardedJoinRequest, payload, proto.MsgJoinResponse)
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

// ForwardJoin is ForwardJoinContext without cancellation. Compatibility
// wrapper; new code should pass a context.
func (c *Client) ForwardJoin(peer int64, overlayAddr string, path []int32) ([]proto.Candidate, error) {
	return c.ForwardJoinContext(context.Background(), peer, overlayAddr, path)
}

// ForwardJoinBatchContext relays a batch of joins to the cluster node that
// owns their landmarks, on behalf of another node. The callee answers
// locally and never relays further (each entry's landmark must be local
// there, or it comes back CodeWrongShard).
func (c *Client) ForwardJoinBatchContext(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out, nil
	}
	err := c.batchRoundTrips(ctx, items, proto.MsgForwardedBatchJoinRequest, func(i int, r *proto.BatchJoinResult) {
		if r.Code != 0 {
			out[i].Err = &proto.Error{Code: r.Code, Message: r.Message}
			return
		}
		out[i].Neighbors = r.Neighbors
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardJoinBatch is ForwardJoinBatchContext without cancellation.
// Compatibility wrapper; new code should pass a context.
func (c *Client) ForwardJoinBatch(items []BatchItem) ([]BatchResult, error) {
	return c.ForwardJoinBatchContext(context.Background(), items)
}

// batchRoundTrips chunks items into wire batches of the server's
// advertised size, performs one reqType round trip per chunk, and hands
// each result to apply with its position in items. Shared by JoinBatch
// and ForwardJoinBatch, whose payloads are identical.
func (c *Client) batchRoundTrips(ctx context.Context, items []BatchItem, reqType proto.MsgType, apply func(i int, r *proto.BatchJoinResult)) error {
	chunk := c.maxBatch
	if chunk > proto.MaxBatch {
		chunk = proto.MaxBatch
	}
	for lo := 0; lo < len(items); lo += chunk {
		hi := lo + chunk
		if hi > len(items) {
			hi = len(items)
		}
		req := &proto.BatchJoinRequest{Joins: make([]proto.JoinRequest, hi-lo)}
		for i, it := range items[lo:hi] {
			req.Joins[i] = proto.JoinRequest{Peer: it.Peer, Addr: it.Addr, Path: it.Path}
		}
		payload, err := proto.EncodeBatchJoinRequest(req)
		if err != nil {
			return err
		}
		resp, err := c.roundTrip(ctx, reqType, payload, proto.MsgBatchJoinResponse)
		if err != nil {
			return err
		}
		br, err := proto.DecodeBatchJoinResponse(resp)
		proto.PutBuf(resp)
		if err != nil {
			return err
		}
		if len(br.Results) != hi-lo {
			return fmt.Errorf("client: batch answered %d of %d entries", len(br.Results), hi-lo)
		}
		for k := range br.Results {
			apply(lo+k, &br.Results[k])
		}
	}
	return nil
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
// travel in MsgBatchJoinRequest frames of up to the server's advertised
// batch size; entries the server answers with CodeWrongShard (their
// landmark lives on another cluster node) are retried individually through
// the redirect-following Join path.
//
// The returned slice is positional: result i answers items[i]. The error
// return is reserved for transport-level failures that void the whole
// call; per-entry failures live in the results.
func (c *Client) JoinBatchContext(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out, nil
	}
	err := c.batchRoundTrips(ctx, items, proto.MsgBatchJoinRequest, func(i int, r *proto.BatchJoinResult) {
		switch r.Code {
		case 0:
			out[i].Neighbors = r.Neighbors
			c.rehome(ctx, items[i].Peer, "")
		case proto.CodeWrongShard:
			// The entry's landmark lives on another cluster node; the
			// singular path follows the redirect there.
			out[i].Neighbors, out[i].Err = c.JoinContext(ctx, items[i].Peer, items[i].Addr, items[i].Path)
		default:
			out[i].Err = &proto.Error{Code: r.Code, Message: r.Message}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// JoinBatch is JoinBatchContext without cancellation. Compatibility
// wrapper; new code should pass a context.
func (c *Client) JoinBatch(items []BatchItem) ([]BatchResult, error) {
	return c.JoinBatchContext(context.Background(), items)
}

// LookupContext answers a read query with one round trip to the node
// holding the subject peer's registration. Only k-closest queries have a
// pull form — LandmarkQuery and PeerQuery filters exist for Subscribe.
// When the query caps K below the server's neighbor count the answer is
// trimmed client-side, so pull and push report identical sets.
func (c *Client) LookupContext(ctx context.Context, q Query) ([]proto.Candidate, error) {
	if q.Kind != QueryKClosest {
		return nil, fmt.Errorf("client: lookup supports only k-closest queries (kind %d)", q.Kind)
	}
	req := proto.AppendLookupRequest(proto.GetBuf(0), &proto.LookupRequest{Peer: q.Peer})
	resp, err := c.peerRoundTrip(ctx, q.Peer, proto.MsgLookupRequest, req, proto.MsgLookupResponse)
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

// Lookup re-queries the closest peers of a registered peer, at the node
// holding its registration. Compatibility wrapper for
// LookupContext(ctx, KClosest(peer)); new code should pass a context.
func (c *Client) Lookup(peer int64) ([]proto.Candidate, error) {
	return c.LookupContext(context.Background(), KClosest(peer))
}

// LeaveContext deregisters a peer at the node holding its registration.
func (c *Client) LeaveContext(ctx context.Context, peer int64) error {
	resp, err := c.peerRoundTrip(ctx, peer, proto.MsgLeaveRequest,
		proto.EncodeLeaveRequest(&proto.LeaveRequest{Peer: peer}), proto.MsgAck)
	if err == nil {
		proto.PutBuf(resp)
		c.setHome(peer, "")
	}
	return err
}

// Leave is LeaveContext without cancellation. Compatibility wrapper; new
// code should pass a context.
func (c *Client) Leave(peer int64) error {
	return c.LeaveContext(context.Background(), peer)
}

// RefreshContext heartbeats a peer at the node holding its registration.
func (c *Client) RefreshContext(ctx context.Context, peer int64) error {
	resp, err := c.peerRoundTrip(ctx, peer, proto.MsgRefreshRequest,
		proto.EncodeRefreshRequest(&proto.RefreshRequest{Peer: peer}), proto.MsgAck)
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
