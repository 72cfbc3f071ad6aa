// Package loadgen drives join throughput against a running management
// server over real TCP — the measurement harness behind the pipelining
// benchmarks, the benchmark-regression CI job, and cmd/proxdisc-loadgen.
//
// A run opens Clients connections, keeps InFlight requests outstanding on
// each (1 is one round trip at a time), groups Batch joins per request
// frame, and reports joins/sec plus per-request latency percentiles. The
// same knobs therefore measure all four corners: serial vs pipelined,
// singular vs batched.
package loadgen

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/telemetry"
)

// Config parameterizes one load run.
type Config struct {
	// Addr is the management server's TCP address.
	Addr string
	// Clients is the number of TCP connections (default 1).
	Clients int
	// InFlight is the number of concurrently outstanding requests per
	// connection (default 1: each worker waits for its answer before it
	// sends again).
	InFlight int
	// Batch is the number of joins carried per request (default 1). Above
	// 1 the run uses the batched join path.
	Batch int
	// Joins is the total number of joins to issue (required).
	Joins int
	// PeerBase is the first peer ID used (default 1). Runs against a
	// shared server should space their bases apart.
	PeerBase int64
	// PathFor supplies the reported router path for a peer (required).
	PathFor func(peer int64) []int32
	// AddrFor supplies the advertised overlay address for a peer; nil
	// synthesizes a placeholder.
	AddrFor func(peer int64) string
	// Timeout bounds each request (default 10s).
	Timeout time.Duration
}

// Result aggregates one load run.
type Result struct {
	// Joins counts successful joins; Errors counts failed ones.
	Joins, Errors int
	// Requests counts wire round trips (joins/Batch, plus remainders).
	Requests int
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
	// JoinsPerSec is Joins divided by Elapsed.
	JoinsPerSec float64
	// P50, P90, P95, and P99 are per-request latency percentiles, read
	// from Latency — bucketed estimates, not exact order statistics.
	P50, P90, P95, P99 time.Duration
	// Latency is the full request-latency histogram every worker observed
	// into during the run, for callers that want quantiles or bucket
	// counts beyond the convenience percentiles above. (Excluded from
	// JSON: its state is atomic counters, not marshalable fields.)
	Latency *telemetry.Histogram `json:"-"`
}

// String formats the result for human consumption.
func (r *Result) String() string {
	return fmt.Sprintf("joins=%d errors=%d requests=%d elapsed=%v throughput=%.0f joins/s p50=%v p90=%v p99=%v",
		r.Joins, r.Errors, r.Requests, r.Elapsed.Round(time.Millisecond), r.JoinsPerSec,
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond))
}

// Run executes one load run and blocks until every join has been issued.
func Run(cfg Config) (*Result, error) {
	if cfg.Addr == "" {
		return nil, errors.New("loadgen: no server address")
	}
	if cfg.PathFor == nil {
		return nil, errors.New("loadgen: no path generator")
	}
	if cfg.Joins <= 0 {
		return nil, fmt.Errorf("loadgen: %d joins requested", cfg.Joins)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = 1
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.PeerBase == 0 {
		cfg.PeerBase = 1
	}
	if cfg.AddrFor == nil {
		cfg.AddrFor = func(peer int64) string { return fmt.Sprintf("198.51.100.1:%d", 1024+peer%60000) }
	}

	conns := make([]*client.Client, cfg.Clients)
	for i := range conns {
		c, err := client.DialConfig(cfg.Addr, client.Config{
			Timeout:     cfg.Timeout,
			MaxInFlight: cfg.InFlight,
		})
		if err != nil {
			for _, open := range conns[:i] {
				open.Close()
			}
			return nil, err
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	var next atomic.Int64
	next.Store(cfg.PeerBase)
	last := cfg.PeerBase + int64(cfg.Joins) // exclusive
	workers := cfg.Clients * cfg.InFlight
	// One lock-free histogram shared by every worker replaces the old
	// per-worker latency slices: constant memory however long the run, no
	// post-run sort, and the same quantile machinery the servers export.
	lat := telemetry.NewHistogram("loadgen_request_duration_seconds")
	var requests atomic.Int64
	joins := make([]int, workers)
	errCounts := make([]int, workers)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := conns[w%cfg.Clients]
			for {
				lo := next.Add(int64(cfg.Batch)) - int64(cfg.Batch)
				if lo >= last {
					return
				}
				hi := lo + int64(cfg.Batch)
				if hi > last {
					hi = last
				}
				if cfg.Batch == 1 {
					t0 := time.Now()
					_, err := c.Join(lo, cfg.AddrFor(lo), cfg.PathFor(lo))
					lat.Observe(time.Since(t0))
					requests.Add(1)
					if err != nil {
						errCounts[w]++
					} else {
						joins[w]++
					}
					continue
				}
				items := make([]client.BatchItem, 0, hi-lo)
				for p := lo; p < hi; p++ {
					items = append(items, client.BatchItem{Peer: p, Addr: cfg.AddrFor(p), Path: cfg.PathFor(p)})
				}
				t0 := time.Now()
				res, err := c.JoinBatch(items)
				lat.Observe(time.Since(t0))
				requests.Add(1)
				if err != nil {
					errCounts[w] += len(items)
					continue
				}
				for _, r := range res {
					if r.Err != nil {
						errCounts[w]++
					} else {
						joins[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &Result{Elapsed: elapsed, Latency: lat}
	for w := 0; w < workers; w++ {
		out.Joins += joins[w]
		out.Errors += errCounts[w]
	}
	out.Requests = int(requests.Load())
	if elapsed > 0 {
		out.JoinsPerSec = float64(out.Joins) / elapsed.Seconds()
	}
	out.P50 = lat.Quantile(0.50)
	out.P90 = lat.Quantile(0.90)
	out.P95 = lat.Quantile(0.95)
	out.P99 = lat.Quantile(0.99)
	return out, nil
}

// LatencyProxy is a loopback TCP forwarder that delays every byte by a
// fixed one-way latency in each direction — a stand-in for WAN RTT, so
// benchmarks on one machine can measure what the wire protocol costs real
// remote peers. Lock-step clients pay the full RTT per request through
// it; pipelined clients keep the link full.
type LatencyProxy struct {
	ln     net.Listener
	target string
	delay  time.Duration
	wg     sync.WaitGroup
	closed chan struct{}
}

// NewLatencyProxy listens on a loopback port and forwards connections to
// target with the given one-way delay per direction.
func NewLatencyProxy(target string, delay time.Duration) (*LatencyProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loadgen: proxy listen: %w", err)
	}
	p := &LatencyProxy{ln: ln, target: target, delay: delay, closed: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *LatencyProxy) Addr() string { return p.ln.Addr().String() }

// Close stops the proxy and its forwarding goroutines.
func (p *LatencyProxy) Close() error {
	close(p.closed)
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *LatencyProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.wg.Add(2)
		go p.pump(up, conn)
		go p.pump(conn, up)
	}
}

// pump forwards src→dst, delivering each chunk p.delay after it was read.
// Reading and delayed writing run concurrently, so the link has latency
// but no added serialization: many frames can be in flight inside the
// delay window, exactly like a long pipe.
func (p *LatencyProxy) pump(dst, src net.Conn) {
	defer p.wg.Done()
	type chunk struct {
		due time.Time
		b   []byte
	}
	ch := make(chan chunk, 4096)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer dst.Close()
		for c := range ch {
			if d := time.Until(c.due); d > 0 {
				time.Sleep(d)
			}
			if _, err := dst.Write(c.b); err != nil {
				// Drain so the reader never blocks on a dead peer.
				for range ch {
				}
				return
			}
		}
	}()
	defer close(ch)
	for {
		buf := make([]byte, 32<<10)
		n, err := src.Read(buf)
		if n > 0 {
			select {
			case ch <- chunk{due: time.Now().Add(p.delay), b: buf[:n]}:
			case <-p.closed:
				src.Close()
				return
			}
		}
		if err != nil {
			src.Close()
			return
		}
	}
}

// TreePath builds a synthetic routing-tree path from a leaf index up to a
// landmark, in a per-landmark router ID block — the shape the management
// server sees in deployment, reusable by every loadgen caller.
func TreePath(landmark int32, leaf int) []int32 {
	const fanout = 8
	base := int32(1_000_000 * (landmark + 1))
	r := base + int32(1+leaf%200_000)
	var path []int32
	for r > base {
		path = append(path, r)
		r = base + (r-base-1)/fanout
	}
	return append(path, landmark)
}
