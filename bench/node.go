package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/netserver"
	"proxdisc/internal/op"
	"proxdisc/internal/server"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
)

// epoch anchors every timestamp the benchmark takes; now() is monotonic.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func landmarkIDs() []topology.NodeID {
	out := make([]topology.NodeID, len(landmarks))
	for i, lm := range landmarks {
		out[i] = topology.NodeID(lm)
	}
	return out
}

// clusterConfig is the node under test: durable, 4 shards, fsync on, a
// 200µs group-commit window, and no automatic snapshots (checkpoints
// happen only where the benchmark calls for them). Its front end runs 32
// request workers (proxdisc-server -workers 32) instead of the default 8
// on two CPUs: with 8, a batch join waits for its fsync with a quarter of
// the pool, and whenever the shared disk has a slow minute the write
// workloads measure the disk.
func clusterConfig(dir string, reg *telemetry.Registry) cluster.Config {
	return cluster.Config{
		Landmarks:     landmarkIDs(),
		Shards:        4,
		DataDir:       dir,
		MaxSyncDelay:  syncDelay,
		SnapshotEvery: 1 << 30,
		SnapshotBytes: -1,
		Telemetry:     reg,
	}
}

const frontWorkers = 32

// node is the in-process management server plus the load connections.
type node struct {
	dir   string
	clu   *cluster.Cluster
	ns    *netserver.NetServer
	conns []*client.Client
}

func startNode(dataParent string, nconns int) (*node, error) {
	if err := os.MkdirAll(dataParent, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataParent, "node-")
	if err != nil {
		return nil, err
	}
	n := &node{dir: dir}
	if n.clu, err = cluster.New(clusterConfig(dir, nil)); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if n.ns, err = netserver.Listen(netserver.Config{Addr: "127.0.0.1:0", Server: n.clu, Workers: frontWorkers}); err != nil {
		n.close()
		return nil, err
	}
	for i := 0; i < nconns; i++ {
		c, err := client.DialConfig(n.ns.Addr(), client.Config{Timeout: 20 * time.Second})
		if err != nil {
			n.close()
			return nil, err
		}
		n.conns = append(n.conns, c)
	}
	return n, nil
}

// close tears the node down and removes its data directory. The cluster's
// Close writes a final checkpoint; that cost is never inside a timed region.
func (n *node) close() error {
	var errs []error
	for _, c := range n.conns {
		errs = append(errs, c.Close())
	}
	if n.ns != nil {
		errs = append(errs, n.ns.Close())
	}
	if n.clu != nil {
		errs = append(errs, n.clu.Close())
	}
	errs = append(errs, os.RemoveAll(n.dir))
	return errors.Join(errs...)
}

// prefill registers peers 1..n0 through batch joins over the load
// connections and returns how many registrations failed.
func (n *node) prefill(st *streams) int {
	nb := (st.n0 + prefillBatch - 1) / prefillBatch
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed int
	)
	workers := len(n.conns) * prefillFlight
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := n.conns[w%len(n.conns)]
			bad := 0
			for b := w; b < nb; b += workers {
				lo, hi := b*prefillBatch, min((b+1)*prefillBatch, st.n0)
				items := make([]client.BatchItem, 0, hi-lo)
				for i := lo; i < hi; i++ {
					items = append(items, batchItem(int64(i+1), st.prefill[i]))
				}
				res, err := c.JoinBatch(items)
				if err != nil {
					bad += len(items)
					continue
				}
				for _, r := range res {
					if r.Err != nil {
						bad++
					}
				}
			}
			mu.Lock()
			failed += bad
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return failed
}

// setup is the timed unit behind setup_s: a fresh data directory, the
// cluster, its TCP front end, the load connections, and the prefill.
func setup(dataParent string, nconns int, st *streams) (*node, float64, error) {
	t0 := now()
	n, err := startNode(dataParent, nconns)
	if err != nil {
		return nil, 0, err
	}
	if bad := n.prefill(st); bad > 0 {
		n.close()
		return nil, 0, fmt.Errorf("prefill: %d of %d joins failed", bad, st.n0)
	}
	secs := float64(now()-t0) / 1e9
	if got := n.clu.NumPeers(); got != st.n0 {
		n.close()
		return nil, 0, fmt.Errorf("prefill: node holds %d peers, want %d", got, st.n0)
	}
	return n, secs, nil
}

// copyDataDir clones a live node's data directory without closing it, the
// way a crash would leave it: every acknowledged write is on disk, the
// last checkpoint plus a log tail.
func copyDataDir(src, dataParent string) (string, error) {
	dst, err := os.MkdirTemp(dataParent, "crash-")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			// A checkpoint's temporary file may vanish mid-copy; anything
			// that matters will fail recovery loudly instead.
			continue
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// pend links one open-loop write to the moments its effects surface at the
// commit-tap consumers.
type pend struct {
	due      int64
	wantPush bool
	pushed   bool
	applied  bool
}

// consumers is the deployed topology around the primary: one follower
// replica fed by the op stream and one landmark-0 subscriber.
type consumers struct {
	fol *netserver.Follower
	sub *client.Subscription

	mu       sync.Mutex
	pending  map[int64]*pend // keyed by every peer the write names
	push     []int64         // due → subscriber receipt, ns
	replica  []int64         // due → follower apply, ns
	wantPush int
	wantRepl int
	head     func() uint64 // the primary's committed head
	maxLag   uint64        // most records the follower was behind when applying one

	catchupSecs float64
	cancel      context.CancelFunc
	stop        chan struct{}
	wg          sync.WaitGroup
}

func attachConsumers(n *node) (*consumers, error) {
	c := &consumers{pending: make(map[int64]*pend), stop: make(chan struct{}), head: n.clu.CommittedHead}
	backend, err := server.New(server.Config{Landmarks: landmarkIDs()})
	if err != nil {
		return nil, err
	}
	t0 := now()
	c.fol, err = netserver.StartFollower(netserver.FollowerConfig{PrimaryAddr: n.ns.Addr(), Backend: backend})
	if err != nil {
		return nil, err
	}
	head := n.clu.CommittedHead()
	for deadline := time.Now().Add(60 * time.Second); c.fol.Applied() < head; {
		if time.Now().After(deadline) {
			c.fol.Close()
			return nil, fmt.Errorf("follower stuck at seq %d of %d: %v", c.fol.Applied(), head, c.fol.Err())
		}
		time.Sleep(time.Millisecond)
	}
	c.catchupSecs = float64(now()-t0) / 1e9
	c.fol.SetApplyTap(c.onApply)

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.sub, err = n.conns[0].Subscribe(ctx, client.LandmarkQuery(landmarks[0]))
	if err != nil {
		cancel()
		c.fol.Close()
		return nil, err
	}
	c.wg.Add(1)
	go c.drainEvents()
	return c, nil
}

// expect registers an open-loop write, due at the given timestamp, before
// it is sent.
func (c *consumers) expect(r *request, due int64) {
	p := &pend{due: due}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wantRepl++
	if len(r.items) == 0 {
		// Leave and Refresh reach the follower; a landmark subscriber only
		// hears of peers it saw join, so no push is expected.
		c.pending[r.peer] = p
		return
	}
	for _, it := range r.items {
		c.pending[it.Peer] = p
		if landmarkOf(it.Peer) == landmarks[0] {
			p.wantPush = true
		}
	}
	if p.wantPush {
		c.wantPush++
	}
}

// onApply is the follower's apply tap.
func (c *consumers) onApply(seq uint64, o op.Op) {
	t := now()
	head := c.head()
	c.mu.Lock()
	defer c.mu.Unlock()
	if head > seq && head-seq > c.maxLag {
		c.maxLag = head - seq
	}
	hit := func(peer int64) {
		if p := c.pending[peer]; p != nil && !p.applied {
			p.applied = true
			c.replica = append(c.replica, t-p.due)
		}
	}
	switch o.Kind {
	case op.KindJoin:
		hit(int64(o.Join.Peer))
	case op.KindBatchJoin:
		for i := range o.Batch {
			hit(int64(o.Batch[i].Peer))
		}
	case op.KindLeave, op.KindRefresh:
		hit(int64(o.Peer))
	}
}

func (c *consumers) drainEvents() {
	defer c.wg.Done()
	for {
		select {
		case ev := <-c.sub.Events():
			if ev.Kind != client.EventEnter && ev.Kind != client.EventUpdate {
				continue
			}
			t := now()
			c.mu.Lock()
			if p := c.pending[ev.Cand.Peer]; p != nil && p.wantPush && !p.pushed {
				p.pushed = true
				c.push = append(c.push, t-p.due)
			}
			c.mu.Unlock()
		case <-c.stop:
			return
		}
	}
}

// settle waits (bounded) until every expected push and apply arrived, then
// forgets the phase's pending writes. It returns how many applies the
// follower never made — the op stream is reliable, so that is a failure —
// and how many pushes the subscriber never saw, which the subscription's
// drop-when-slow policy allows.
func (c *consumers) settle(timeout time.Duration) (lostApplies, lostPushes int) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		lostApplies, lostPushes = c.wantRepl-len(c.replica), c.wantPush-len(c.push)
		c.mu.Unlock()
		if lostApplies+lostPushes == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	clear(c.pending)
	c.mu.Unlock()
	return lostApplies, lostPushes
}

func (c *consumers) detach() {
	close(c.stop)
	c.wg.Wait()
	c.fol.SetApplyTap(nil)
	c.sub.Close()
	c.cancel()
	c.fol.Close()
	// The follower holds a full copy of the state; let it be collected
	// before memory is measured.
	c.fol, c.sub = nil, nil
}
