package cluster

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/wal"
)

// shardLoader is the log tail's pass of a durable open: it reads the
// records past the checkpoint and spreads the serial road's work
// (applyRecovered on every record) over one applier goroutine per shard,
// whose trees are independent. The checkpoint before it is loaded by the
// shards' own builders (server.LoadSnapshot), which tell the loader every
// peer they load (named). The calling goroutine decodes the records in
// order, and one rule decides where each applies:
//
//   - A batch join none of whose entries names a peer the index holds as
//     the record is read is split by owning shard. Each group joins its
//     shard's run, which goes to the shard's FIFO once it holds runEntries
//     entries, and the applier applies every group to the shard's server
//     whole, so each shard sees its entries in log order. The tail of a
//     crowd of new peers is almost all such records.
//   - Every other record — a single-join record (KindJoin: an older log's,
//     or an in-process Apply's), a batch naming a resident peer or naming
//     one peer twice (an answered batch commits its repeated entries in its
//     one record), a leave, refresh or flag, an expiry sweep, a move record
//     — is a barrier: it waits for the appliers to drain and then applies
//     on the calling goroutine through applyRecovered, as on the serial
//     road. A re-homing join must retire the record it orphans, a repeated
//     peer must end up held by its last entry, a leave is routed by the
//     index as it stands, and sweeps see every shard, so none of them
//     commutes with the appliers' work.
//
// Two entries naming the same peer between two barriers are the one thing
// shard order can get wrong: on different shards, which of them wins
// depends on the appliers' timing, where the serial road keeps the later
// one. Such entries can only be in flight together when the second is read
// before the first is applied, and then the index counts them once. So at
// every barrier and at the end the loader checks that the peers number
// those held when the stretch began plus the entries handed out since
// (drain); when they do not, the pass cannot vouch for its state, and the
// caller discards it and takes the serial road for the whole open. A batch
// that names a peer twice never gets that far: it is a barrier.
//
// The appliers start with the first split record, so an open with nothing
// to split starts none; stop ends them, error or not.
type shardLoader struct {
	c        *Cluster
	queues   []chan []op.Op // one FIFO of runs per shard, fed in stream order; nil until start
	runs     [][]op.Op      // each shard's groups not yet handed over
	sizes    []int          // the entries in each shard's run
	pending  sync.WaitGroup // runs handed over and not yet applied
	running  sync.WaitGroup // the appliers
	base     int            // the peers the index held when the current stretch began
	handed   int            // join entries split among the appliers since then
	barriers int            // records applied on the calling goroutine
	named    peerSet        // every peer the join records read so far name
	groups   shardSort      // the batch being split, grouped by owning shard
}

// errInexact ends a pass whose appliers took two entries naming one peer:
// its state may differ from the serial road's.
var errInexact = errors.New("cluster: a peer named twice between two barriers")

// replay reads the log's records past after through the loader. It counts
// its barriers into the cluster's serial records.
func (l *shardLoader) replay(log *wal.Sharded, after uint64) (exact bool, err error) {
	before := l.barriers
	if err = replayTail(log, after, l.read); err == nil {
		err = l.drain()
	}
	l.c.serialRecords.Add(int64(l.barriers - before))
	return vouch(err)
}

// vouch turns a pass's end into its answer: errInexact is no failure, only
// a state the pass cannot vouch for.
func vouch(err error) (exact bool, _ error) {
	if errors.Is(err, errInexact) {
		return false, nil
	}
	return err == nil, err
}

// read takes one record off the stream and applies it by the loader's rule.
func (l *shardLoader) read(o *op.Op) error {
	switch o.Kind {
	case op.KindJoin:
		l.named.add(o.Join.Peer)
	case op.KindBatchJoin:
		if l.fresh(o.Batch) {
			return l.take(o)
		}
	}
	if err := l.drain(); err != nil {
		return err
	}
	l.barriers++
	return l.c.applyRecovered(*o)
}

// take splits a batch of new peers among the appliers.
func (l *shardLoader) take(o *op.Op) error {
	if l.handed == 0 {
		l.base = l.c.NumPeers() // the appliers are idle: drain waited for them
	}
	// The appliers hold the entries past this call, so the record's
	// slices are taken and the stream decodes the next one into fresh
	// ones.
	rec := *o
	*o = op.Op{}
	l.handed += len(rec.Batch)
	return l.split(rec)
}

// fresh adds a batch's peers to the named set and reports whether none of
// them is a peer the index holds or one the batch names before. Both are
// peers some entry read before named, so only a peer the set already held
// is looked for, in the index and then among the batch's earlier entries:
// a crowd of new peers goes through without touching the stripes the
// appliers are writing.
func (l *shardLoader) fresh(batch []op.JoinEntry) bool {
	idx := l.c.idx.Load()
	fresh := true
	for i := range batch {
		if p := batch[i].Peer; l.named.add(p) && fresh {
			_, _, held := idx.Place(p)
			fresh = !held && !slices.ContainsFunc(batch[:i], func(e op.JoinEntry) bool { return e.Peer == p })
		}
	}
	return fresh
}

// peerSet is a set of peers that may hold a peer never added, never lose
// one that was: one bit per hashed ID, 2^22 bits. Past a million peers
// about one bit in five is set, and a false hit costs one index lookup.
type peerSet []uint64

const peerSetLog2 = 22

// bit locates p's bit: Fibonacci hashing, whose product's top bits mix all
// of the ID's.
func (s *peerSet) bit(p pathtree.PeerID) (w *uint64, bit uint64) {
	if *s == nil {
		*s = make(peerSet, 1<<peerSetLog2/64)
	}
	h := uint64(p) * 0x9e3779b97f4a7c15 >> (64 - peerSetLog2)
	return &(*s)[h/64], uint64(1) << (h % 64)
}

// add adds p and reports whether the set held it already.
func (s *peerSet) add(p pathtree.PeerID) bool {
	w, bit := s.bit(p)
	held := *w&bit != 0
	*w |= bit
	return held
}

// addShared returns an add that goroutines may call side by side: a
// checkpoint's builders tell the set every peer they load.
func (s *peerSet) addShared() func(pathtree.PeerID) {
	s.bit(0) // allocates the set, before anyone adds
	return func(p pathtree.PeerID) {
		w, bit := s.bit(p)
		atomic.OrUint64(w, bit)
	}
}

// drain hands every run over, waits until the appliers have applied them,
// and checks the stretch they end: errInexact if the peers number fewer
// than those held at its start plus the entries handed out since.
func (l *shardLoader) drain() error {
	if l.handed == 0 {
		return nil
	}
	l.handAll()
	l.pending.Wait()
	want := l.base + l.handed
	l.handed = 0
	if l.c.NumPeers() != want {
		return errInexact
	}
	return nil
}

// start allocates the per-shard state and starts one applier per shard.
func (l *shardLoader) start() {
	n := len(l.c.shards)
	l.queues, l.runs = make([]chan []op.Op, n), make([][]op.Op, n)
	l.sizes = make([]int, n)
	for i, g := range l.c.shards {
		// The decoder may run up to 16 runs (4 096 entries) ahead of an
		// applier: enough that it rarely waits on one, little enough that
		// a slow shard bounds what is decoded and not yet applied.
		l.queues[i] = make(chan []op.Op, 16)
		l.running.Add(1)
		go l.apply(g, l.queues[i])
	}
}

// stop closes the queues and waits for the appliers to apply what they were
// handed and return. Runs not handed over are dropped.
func (l *shardLoader) stop() {
	for _, q := range l.queues {
		close(q)
	}
	l.running.Wait()
	l.queues = nil
}

// apply is shard g's applier: it applies the groups handed to g in order
// until the queue is closed.
func (l *shardLoader) apply(g *shard, q <-chan []op.Op) {
	defer l.running.Done()
	for run := range q {
		for _, o := range run {
			// The group goes to the server whole, and the server registers
			// every entry: split routed each one (route), so its path
			// passed server.ValidateJoin and ends at a landmark g holds. A
			// record with an entry route refuses never reaches an applier;
			// it fails the open (TestRefusedTailLeavesNoApplier).
			g.applies.Inc()
			_ = g.srv.Apply(o)
		}
		l.pending.Done()
	}
}

// split routes each entry of a batch (route: the cluster's one check of an
// entry, made here on the decoding goroutine) and adds one group per shard
// to the shard's run, entries in batch order. An entry route refuses — a
// path that is empty, over the cap, repeats a router or holds an anonymous
// one, an address over the cap, a landmark not served here — fails the pass
// before any of the record is handed out, as it fails the serial road
// (TestRefusedTailLeavesNoApplier).
func (l *shardLoader) split(o op.Op) error {
	if len(o.Batch) == 0 {
		return nil
	}
	if l.queues == nil {
		l.start()
	}
	g := &l.groups
	g.reset(len(l.c.shards))
	one := true
	for i := range o.Batch {
		shard, err := l.c.route(&o.Batch[i])
		if err != nil {
			return err
		}
		g.owner = append(g.owner, shard)
		one = one && shard == g.owner[0]
	}
	if one {
		l.queue(g.owner[0], o)
		return nil
	}
	// Sorted by shard into one new array, cut into the groups: one
	// allocation per record however many shards it spans.
	sorted := g.sort(o.Batch, nil)
	for shard, n := range g.count {
		if end := g.next[shard]; n > 0 {
			l.queue(shard, op.BatchJoin(sorted[end-n:end:end], o.Time))
		}
	}
	return nil
}

// runEntries is how many entries a shard's run gathers before it is handed
// to the applier: a record holds at most op.MaxBatch entries, and one cut
// among the shards holds fewer, so handing each group over on its own would
// cost a wake-up for every few entries applied.
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
