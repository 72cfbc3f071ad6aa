package cluster

import (
	"context"
	"fmt"
	"sync"

	"proxdisc/internal/pathtree"
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

// FindPeer scatter-searches every shard for peer p and reports which one
// holds its record — a diagnostic: requests route by the peer index, which
// places a peer without asking any shard. The first shard that knows the
// peer wins and cancels the remaining fan-out.
func (c *Cluster) FindPeer(ctx context.Context, p pathtree.PeerID) (server.PeerInfo, int, error) {
	scatterCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu    sync.Mutex
		found = -1
		info  server.PeerInfo
	)
	_ = c.ForEachShard(scatterCtx, func(i int, s *server.Server) error {
		in, err := s.PeerInfo(p)
		if err != nil {
			return nil // not on this shard
		}
		mu.Lock()
		if found < 0 {
			found, info = i, in
		}
		mu.Unlock()
		cancel() // early exit: no need to ask the remaining shards
		return nil
	})
	mu.Lock()
	defer mu.Unlock()
	if found >= 0 {
		return info, found, nil
	}
	if err := ctx.Err(); err != nil {
		// The caller's context (not our early-exit cancel) ended the search.
		return server.PeerInfo{}, -1, err
	}
	return server.PeerInfo{}, -1, fmt.Errorf("%w: %d", server.ErrUnknownPeer, p)
}
