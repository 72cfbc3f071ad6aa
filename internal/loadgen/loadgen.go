// Package loadgen drives join throughput against a running management
// server over real TCP — the harness behind cmd/proxdisc-loadgen. Its
// TreePath is the synthetic path shape the repository benchmark (bench/)
// and the resident-memory tests join with.
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
	// from the histogram every worker observed into — bucketed estimates,
	// not exact order statistics.
	P50, P90, P95, P99 time.Duration
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
					_, err := c.Join(lo, overlayAddr(lo), cfg.PathFor(lo))
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
					items = append(items, client.BatchItem{Peer: p, Addr: overlayAddr(p), Path: cfg.PathFor(p)})
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

	out := &Result{Elapsed: elapsed}
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

// overlayAddr is the placeholder overlay address a peer advertises.
func overlayAddr(peer int64) string {
	return fmt.Sprintf("198.51.100.1:%d", 1024+peer%60000)
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
