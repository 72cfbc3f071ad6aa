package cluster

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"proxdisc/internal/op"
	"proxdisc/internal/server"
)

// loadCheckpointParallel applies a checkpoint with one applier goroutine per
// shard, the serial road's work (loadCheckpoint) spread over the shards,
// whose trees are independent. The calling goroutine decodes the records in
// order and splits each batch join by owning shard under the table read
// lock. Each group joins its shard's run, which goes to the shard's FIFO
// once it holds runEntries entries, and the applier applies every group to
// the shard's server whole, so each shard sees its entries in stream order.
// Every other op — the Move records that open a checkpoint, the super-peer
// flags that close it — waits for the appliers to drain and then applies on
// the calling goroutine through applyRecovered, as on the serial road. On
// return no applier is left running, error or not.
//
// Two entries naming the same peer are the one thing shard order can get
// wrong: on different shards, which of them wins depends on the appliers'
// timing, where the serial road keeps the later one. A checkpoint written
// from one instant holds each peer once, but one can name a peer twice: the
// checkpoint walks the shards one at a time while writes go on, so a peer
// re-homed between two shards' walks, or an orphan caught between a join's
// apply and retireOrphans, is written under both landmarks. So exact reports
// whether the peers the state holds number the join entries read; when they
// do not, the state may differ from the serial road's, and the caller
// discards it and loads the file again through loadCheckpoint.
func (c *Cluster) loadCheckpointParallel(r io.Reader) (exact bool, err error) {
	n := len(c.shards)
	l := &shardLoader{c: c, queues: make([]chan []op.Op, n), runs: make([][]op.Op, n),
		sizes: make([]int, n), count: make([]int, n), next: make([]int, n)}
	for i, g := range c.shards {
		// The decoder may run up to 16 runs (4 096 entries) ahead of an
		// applier: enough that it rarely waits on one, little enough that
		// a slow shard bounds what is decoded and not yet applied.
		l.queues[i] = make(chan []op.Op, 16)
		l.running.Add(1)
		go l.apply(g, l.queues[i])
	}
	if err = op.ReadStream(r, l.read); err == nil {
		l.handAll()
	}
	for _, q := range l.queues {
		close(q)
	}
	l.running.Wait()
	if err != nil {
		return false, err
	}
	return c.NumPeers() == l.joins, nil
}

// shardLoader is the state of one loadCheckpointParallel.
type shardLoader struct {
	c       *Cluster
	queues  []chan []op.Op // one FIFO of runs per shard, fed in stream order
	runs    [][]op.Op      // each shard's groups not yet handed over
	sizes   []int          // the entries in each shard's run
	pending sync.WaitGroup // runs handed over and not yet applied
	running sync.WaitGroup // the appliers
	joins   int            // join entries read
	owner   []int          // the owning shard of each entry of the batch being split
	count   []int          // entries per shard in that batch
	next    []int          // each shard's next place in the batch sorted by shard
}

// apply is shard g's applier: it applies the groups handed to g in order
// until the queue is closed.
func (l *shardLoader) apply(g *shard, q <-chan []op.Op) {
	defer l.running.Done()
	for run := range q {
		for _, o := range run {
			// The cluster is not visible yet and every move waits for the
			// appliers to drain, so no tree leaves the shard under them and
			// the group goes to the server whole. The server skips an entry
			// it cannot register, as on the serial road; the peers then
			// number fewer than the entries read, and the file goes that
			// road.
			g.applies.Inc()
			_ = g.srv.Apply(o)
		}
		l.pending.Done()
	}
}

// read takes one record off the stream: a batch join is split among the
// appliers, anything else applies here once they are idle.
func (l *shardLoader) read(o *op.Op) error {
	if o.Kind != op.KindBatchJoin {
		l.handAll()
		l.pending.Wait()
		if o.Kind == op.KindJoin {
			l.joins++
		}
		return l.c.applyRecovered(*o)
	}
	// The appliers hold the entries past this call, so the record's slices
	// are taken and the stream decodes the next one into fresh ones.
	rec := *o
	*o = op.Op{}
	l.joins += len(rec.Batch)
	return l.split(rec)
}

// split resolves the owning shard of each entry of a batch and adds one
// group per shard to the shard's run, entries in batch order. An entry with
// no path or an unknown landmark fails the load, as it fails the serial
// road.
func (l *shardLoader) split(o op.Op) error {
	if len(o.Batch) == 0 {
		return nil
	}
	l.owner = l.owner[:0]
	clear(l.count)
	c := l.c
	c.mu.RLock()
	for i := range o.Batch {
		path := o.Batch[i].Path
		if len(path) == 0 {
			c.mu.RUnlock()
			return errors.New("server: empty path")
		}
		lm := path[len(path)-1]
		shard, ok := c.table[lm]
		if !ok {
			c.mu.RUnlock()
			return fmt.Errorf("%w (router %d)", server.ErrUnknownLandmark, lm)
		}
		l.owner = append(l.owner, shard)
		l.count[shard]++
	}
	c.mu.RUnlock()
	if first := l.owner[0]; l.count[first] == len(o.Batch) {
		l.queue(first, o)
		return nil
	}
	// A stable counting sort by shard into one new array, cut into the
	// groups: one allocation per record however many shards it spans.
	sorted := make([]op.JoinEntry, len(o.Batch))
	at := 0
	for shard, n := range l.count {
		l.next[shard] = at
		at += n
	}
	for i, shard := range l.owner {
		sorted[l.next[shard]] = o.Batch[i]
		l.next[shard]++
	}
	for shard, n := range l.count {
		if end := l.next[shard]; n > 0 {
			l.queue(shard, op.BatchJoin(sorted[end-n:end:end], o.Time))
		}
	}
	return nil
}

// runEntries is how many entries a shard's run gathers before it is handed
// to the applier: a checkpoint record holds at most op.MaxBatch entries,
// and one cut among the shards holds fewer, so handing each group over on
// its own would cost a wake-up for every few entries applied.
const runEntries = op.MaxBatch

// queue adds a group to its shard's run, handing the run over once it
// holds runEntries entries.
func (l *shardLoader) queue(shard int, o op.Op) {
	l.runs[shard] = append(l.runs[shard], o)
	if l.sizes[shard] += len(o.Batch); l.sizes[shard] >= runEntries {
		l.hand(shard)
	}
}

// hand gives a shard's run to its applier.
func (l *shardLoader) hand(shard int) {
	l.pending.Add(1)
	l.queues[shard] <- l.runs[shard]
	l.runs[shard], l.sizes[shard] = nil, 0
}

// handAll hands every shard's run over, however short.
func (l *shardLoader) handAll() {
	for shard, run := range l.runs {
		if len(run) > 0 {
			l.hand(shard)
		}
	}
}
