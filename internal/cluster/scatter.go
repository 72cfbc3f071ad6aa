package cluster

import (
	"sync"

	"proxdisc/internal/server"
)

// scatter runs fn once per shard, against the shard's server, one goroutine
// each, and returns when every call has. This is the scatter half of every
// cross-landmark operation; callers gather results through fn's closure,
// writing only to their own shard's slot so no further locking is needed.
func (c *Cluster) scatter(fn func(shard int, s *server.Server)) {
	var wg sync.WaitGroup
	for i, g := range c.shards {
		c.met.scatter.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, g.srv)
		}()
	}
	wg.Wait()
}
