package netserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/loadgen"
)

// BenchmarkPipelinedLookups measures the lookup road's round trip, both
// ends of the wire in one process: 2 client connections × 8 callers each
// run k-closest lookups of resident peers over loopback against a NetServer
// fronting a 4-shard in-memory cluster of 50 000 loadgen.TreePath peers —
// the read_mostly workload's shape without its writers. ns/op is wall time
// per lookup across all callers (the inverse of the lookup rate); allocs/op
// counts both sides, fill excluded. Each caller waits for its answer before
// it sends again, so at most 16 lookups are in flight and the per-call
// bookkeeping of the client's session and the server's write path is a
// large share of what it measures.
func BenchmarkPipelinedLookups(b *testing.B) {
	const (
		peers   = 50_000
		conns   = 2
		callers = 8 // per connection
	)
	clu, err := cluster.New(cluster.Config{Landmarks: benchLandmarks, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer clu.Close()
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		b.Fatal(err)
	}
	defer ns.Close()
	res, err := loadgen.Run(loadgen.Config{
		Addr: ns.Addr(), Clients: conns, InFlight: 16, Batch: 32, Joins: peers, PathFor: benchPathFor,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors > 0 {
		b.Fatalf("fill: %d joins failed", res.Errors)
	}
	cs := make([]*client.Client, conns)
	for i := range cs {
		if cs[i], err = client.Dial(ns.Addr(), 10*time.Second); err != nil {
			b.Fatal(err)
		}
		defer cs[i].Close()
	}

	var next atomic.Int64
	failed := make(chan error, conns*callers)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for _, c := range cs {
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(b.N) {
						return
					}
					// A stride prime to the peer count visits every resident
					// peer in scattered order.
					peer := (i*7919)%peers + 1
					if cands, err := c.Lookup(peer); err != nil || len(cands) == 0 {
						failed <- fmt.Errorf("lookup of resident peer %d: %v, %d candidates", peer, err, len(cands))
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	b.StopTimer()
	close(failed)
	if err := <-failed; err != nil {
		b.Fatal(err)
	}
}
