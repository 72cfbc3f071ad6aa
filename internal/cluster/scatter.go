package cluster

import (
	"context"
	"sync"

	"proxdisc/internal/server"
)

// ForEachShard runs fn once per shard — against the shard's server — with
// at most Config.MaxFanout calls in flight, collecting the first error.
// Cancelling ctx stops launching new calls and is reported as ctx's
// error; calls already running are awaited so fn
// never outlives ForEachShard. This is the scatter half of every
// cross-landmark operation; callers gather results through fn's closure,
// writing only to their own shard's slot so no further locking is needed.
func (c *Cluster) ForEachShard(ctx context.Context, fn func(shard int, s *server.Server) error) error {
	fanout := c.cfg.MaxFanout
	if fanout <= 0 || fanout > len(c.shards) {
		fanout = len(c.shards)
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	setErr := func(err error) {
		if err != nil {
			errOnce.Do(func() { firstErr = err })
		}
	}
	sem := make(chan struct{}, fanout)
launch:
	for i := range c.shards {
		select {
		case <-ctx.Done():
			setErr(ctx.Err())
			break launch
		case sem <- struct{}{}:
		}
		c.met.scatter.Inc()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				setErr(err)
				return
			}
			setErr(fn(i, c.shards[i].srv))
		}(i)
	}
	wg.Wait()
	return firstErr
}
