package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"proxdisc/internal/cluster"
	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/sub"
	"proxdisc/internal/telemetry"
	"proxdisc/internal/topology"
	"proxdisc/internal/wal"
)

// The traced run. The ladder stream — the workload's first phase-B requests
// plus a short tail holding every request kind — goes one request at a time
// through the live node (the root span: a client round trip) and then,
// single-threaded, through a standalone instance of each layer beneath it,
// prefilled with the same peers and freed before the next. Only exported
// calls are timed, from here, outside the program; a rung's span is a child
// of the same request's root span. A layer's self time is its rung minus
// the rung beneath.

// span is one timed call. Spans are held in memory and written when the
// run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Request int    `json:"request_id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the process started
	End     int64  `json:"end"`
}

// lreq is a ladder request with everything the rungs need prepared, so no
// conversion runs inside a timed call.
type lreq struct {
	*request
	id    int
	paths [][]topology.NodeID
	op    op.Op  // the typed mutation of a write request
	rec   []byte // its canonical encoding
	root  int    // root span, 0 when the round trip ran with spans off
}

// kindTimes collects nanoseconds per peer operation, by request kind.
type kindTimes [numKinds][]float64

func (k *kindTimes) med(kinds ...reqKind) float64 {
	var all []float64
	for _, kind := range kinds {
		all = append(all, k[kind]...)
	}
	return median(all)
}

// ladder is one traced pass: its requests, the spans so far, and where the
// numbers go.
type ladder struct {
	opts  runOptions
	sp    spec
	st    *streams
	rec   *record
	spans []span
	reqs  []*lreq
	few   []*lreq // reqs' writes thinned for the rungs that fsync per request
	n0    []lreq  // the prefill as 256-join batch ops, for every standalone rung
}

func (l *ladder) set(name string, v float64) { l.rec.layer(name, v) }

func ladderStream(st *streams, sz sizes) []request {
	own := st.closed[:min(sz.ownReqs, len(st.closed))]
	out := make([]request, 0, len(own)+len(st.tail))
	out = append(out, own...)
	out = append(out, st.tail...)
	for i := range out {
		out[i].conn = 0
	}
	return out
}

func nodePath(path []int32) []topology.NodeID {
	out := make([]topology.NodeID, len(path))
	for i, hop := range path {
		out[i] = topology.NodeID(hop)
	}
	return out
}

func prepare(id int, r *request) (*lreq, error) {
	q := &lreq{request: r, id: id}
	entries := make([]op.JoinEntry, len(r.items))
	for i, it := range r.items {
		q.paths = append(q.paths, nodePath(it.Path))
		entries[i] = op.JoinEntry{Peer: pathtree.PeerID(it.Peer), Addr: it.Addr, Path: q.paths[i]}
	}
	switch r.kind {
	case kindJoin:
		q.op = op.Op{Kind: op.KindJoin, Time: 1, Join: entries[0]}
	case kindBatch:
		q.op = op.BatchJoin(entries, 1)
	case kindLeave:
		q.op = op.Leave(pathtree.PeerID(r.peer))
	case kindRefresh:
		q.op = op.Refresh(pathtree.PeerID(r.peer), 1)
	default:
		return q, nil
	}
	var err error
	q.rec, err = op.Encode(q.op)
	return q, err
}

// replay times call on every request it accepts (call reports false for a
// kind its layer has no operation for) and records a child span per request
// that has a root span. It also reports heap allocations per peer operation.
func (l *ladder) replay(layer string, reqs []*lreq, call func(q *lreq) bool) (times kindTimes, allocsPerOp float64) {
	var before, after runtime.MemStats
	speedProbe(l.opts.short) // a rung is tens of milliseconds long: it must not start on a cold CPU
	runtime.ReadMemStats(&before)
	units := 0
	for _, q := range reqs {
		t0 := now()
		if !call(q) {
			continue
		}
		t1 := now()
		u := q.units()
		units += u
		times[q.kind] = append(times[q.kind], float64(t1-t0)/float64(u))
		if q.root != 0 {
			l.addSpan(layer+"."+q.kind.String(), q.id, q.root, t0, t1)
		}
	}
	runtime.ReadMemStats(&after)
	return times, float64(after.Mallocs-before.Mallocs) / float64(max(units, 1))
}

func (l *ladder) addSpan(name string, req, parent int, start, end int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Request: req, Name: name, Start: start, End: end})
	return id
}

// backend is the surface server.Server and cluster.Cluster share.
type backend interface {
	JoinOp(o op.Op) ([]pathtree.Candidate, error)
	JoinBatchOp(o op.Op) []server.BatchResult
	Lookup(p pathtree.PeerID) ([]pathtree.Candidate, error)
	Leave(p pathtree.PeerID) bool
	Refresh(p pathtree.PeerID) error
}

// callBackend is the rung body for the server and cluster layers. A failed
// call panics: the stream is built so that none can fail, and a rung that
// measured error paths would be measuring the wrong thing.
func callBackend(b backend) func(q *lreq) bool {
	return func(q *lreq) bool {
		var err error
		switch q.kind {
		case kindJoin:
			_, err = b.JoinOp(q.op)
		case kindBatch:
			for _, r := range b.JoinBatchOp(q.op) {
				if r.Err != nil {
					err = r.Err
				}
			}
		case kindLookup:
			_, err = b.Lookup(pathtree.PeerID(q.peer))
		case kindLeave:
			if !b.Leave(pathtree.PeerID(q.peer)) {
				err = fmt.Errorf("peer %d was not resident", q.peer)
			}
		case kindRefresh:
			err = b.Refresh(pathtree.PeerID(q.peer))
		}
		if err != nil {
			panic(fmt.Sprintf("ladder: %s failed: %v", q.kind, err))
		}
		return true
	}
}

func (l *ladder) prefill(b backend) {
	for i := range l.n0 {
		if res := b.JoinBatchOp(l.n0[i].op); res[0].Err != nil {
			panic(fmt.Sprintf("ladder prefill: %v", res[0].Err))
		}
	}
}

func heapInUse() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// sampleWrites thins the stream's writes, evenly and kind by kind, to about
// n in all, for the rungs that pay an fsync per request.
func sampleWrites(reqs []*lreq, n int) []*lreq {
	var byKind [numKinds][]*lreq
	for _, q := range reqs {
		if q.kind.isWrite() {
			byKind[q.kind] = append(byKind[q.kind], q)
		}
	}
	var out []*lreq
	for _, writes := range byKind {
		// Each kind gets its share of n by its share of the stream, but
		// never fewer than five samples.
		want := max(n*len(writes)/max(len(reqs), 1), 5)
		stride := max(len(writes)/want, 1)
		for i := 0; i < len(writes); i += stride {
			out = append(out, writes[i])
		}
	}
	return out
}

func runLadder(opts runOptions, sp spec, st *streams, sz sizes, stream []request, rec *record) error {
	l := &ladder{opts: opts, sp: sp, st: st, rec: rec}
	for i := range stream {
		q, err := prepare(i+1, &stream[i])
		if err != nil {
			return fmt.Errorf("ladder: encoding request %d: %w", i, err)
		}
		l.reqs = append(l.reqs, q)
	}
	l.few = sampleWrites(l.reqs, sz.syncOps)
	for lo := 0; lo < st.n0; lo += prefillBatch {
		r := &request{kind: kindBatch}
		for i := lo; i < min(lo+prefillBatch, st.n0); i++ {
			r.items = append(r.items, batchItem(int64(i+1), st.prefill[i]))
		}
		q, err := prepare(0, r)
		if err != nil {
			return err
		}
		l.n0 = append(l.n0, *q)
	}

	root, err := l.rootRung()
	if err != nil {
		return fmt.Errorf("ladder root: %w", err)
	}
	tree := l.treeRung()
	srv, err := l.serverRung(tree)
	if err != nil {
		return err
	}
	plain, synced, err := l.clusterRungs(srv)
	if err != nil {
		return err
	}
	if err := l.opRung(); err != nil {
		return err
	}
	if err := l.walRungs(); err != nil {
		return err
	}
	pr := l.protoRung()
	l.reconcile(root, plain, synced, pr)

	l.set("trace.spans", float64(len(l.spans)))
	path := filepath.Join(opts.outDir, fmt.Sprintf("trace-%s.json", sp.name))
	if err := writeJSON(path, l.spans); err != nil {
		return err
	}
	fmt.Fprintf(opts.log, "ladder: %d spans written to %s\n", len(l.spans), path)
	return nil
}

// rootRung is the top of the ladder: one connection, one request in flight,
// against a live node. Every other round trip records a span; the rest run
// bare, and the difference of the two medians is what tracing costs.
func (l *ladder) rootRung() (kindTimes, error) {
	var times, bare, traced kindTimes
	n, _, err := setup(l.opts.dataDir, 1, l.st)
	if err != nil {
		return times, err
	}
	r := newRunner(n, newModel(l.st, 0))
	for i, q := range l.reqs {
		t0 := now()
		ok := r.do(q.request)
		t1 := now()
		if !ok {
			n.close()
			return times, fmt.Errorf("%s request %d failed", q.kind, i)
		}
		d := float64(t1 - t0)
		times[q.kind] = append(times[q.kind], d)
		if i%2 == 0 {
			q.root = l.addSpan("client."+q.kind.String(), q.id, 0, t0, t1)
			traced[q.kind] = append(traced[q.kind], d)
		} else {
			bare[q.kind] = append(bare[q.kind], d)
		}
	}
	own := l.reqs[0].kind
	l.set("trace.overhead_share", 100*(traced.med(own)/bare.med(own)-1))
	l.set("client.join_rtt_us", times.med(kindJoin)/1e3)
	l.set("client.batch_rtt_us", times.med(kindBatch)/1e3)
	l.set("client.lookup_rtt_us", times.med(kindLookup)/1e3)
	return times, n.close()
}

// treeRung: query-then-insert for a join, Closest for a lookup, Remove.
func (l *ladder) treeRung() kindTimes {
	trees := map[topology.NodeID]*pathtree.Tree{}
	for _, lm := range landmarkIDs() {
		trees[lm] = pathtree.New(lm, pathtree.Options{})
	}
	treeOf := func(peer int64) *pathtree.Tree { return trees[topology.NodeID(landmarkOf(peer))] }
	join := func(q *lreq) {
		for i, it := range q.items {
			t := treeOf(it.Peer)
			if _, err := t.ClosestToPathExcluding(q.paths[i], neighborCount, pathtree.PeerID(it.Peer)); err != nil {
				panic(err)
			}
			if err := t.Insert(pathtree.PeerID(it.Peer), q.paths[i]); err != nil {
				panic(err)
			}
		}
	}
	for i := range l.n0 {
		join(&l.n0[i])
	}
	times, allocs := l.replay("pathtree", l.reqs, func(q *lreq) bool {
		switch q.kind {
		case kindJoin, kindBatch:
			join(q)
		case kindLookup:
			if _, err := treeOf(q.peer).Closest(pathtree.PeerID(q.peer), neighborCount); err != nil {
				panic(err)
			}
		case kindLeave:
			treeOf(q.peer).Remove(pathtree.PeerID(q.peer))
		default:
			return false
		}
		return true
	})
	live, free := 0, 0
	for _, t := range trees {
		as := t.ArenaStats()
		live, free = live+as.Live, free+as.Free
	}
	l.set("pathtree.join_ns", times.med(kindJoin, kindBatch))
	l.set("pathtree.lookup_ns", times.med(kindLookup))
	l.set("pathtree.remove_ns", times.med(kindLeave))
	l.set("pathtree.allocs_per_op", allocs)
	l.set("pathtree.arena_live_nodes", float64(live))
	l.set("pathtree.arena_free_nodes", float64(free))
	return times
}

// serverRung: one server.Server over all four landmarks, then the
// subscription plane over the same (advanced) server.
func (l *ladder) serverRung(tree kindTimes) (kindTimes, error) {
	base := heapInUse()
	srv, err := server.New(server.Config{Landmarks: landmarkIDs()})
	if err != nil {
		return kindTimes{}, err
	}
	l.prefill(srv)
	l.set("server.bytes_per_peer", (heapInUse()-base)/float64(l.st.n0))
	times, allocs := l.replay("server", l.reqs, callBackend(srv))
	l.set("server.join_ns", times.med(kindJoin, kindBatch))
	l.set("server.join_self_ns", times.med(kindJoin, kindBatch)-tree.med(kindJoin, kindBatch))
	l.set("server.lookup_ns", times.med(kindLookup))
	l.set("server.lookup_self_ns", times.med(kindLookup)-tree.med(kindLookup))
	l.set("server.leave_ns", times.med(kindLeave))
	l.set("server.refresh_ns", times.med(kindRefresh))
	l.set("server.allocs_per_op", allocs)
	l.subRung(srv)
	return times, nil
}

// clusterRung replays reqs through a fresh prefilled cluster: non-durable,
// or the node's own durable configuration in a scratch directory, adjusted
// by tweak.
func (l *ladder) clusterRung(name string, durable bool, tweak func(*cluster.Config), reqs []*lreq) (kindTimes, error) {
	cfg := cluster.Config{Landmarks: landmarkIDs(), Shards: 4}
	if durable {
		dir, err := os.MkdirTemp(l.opts.dataDir, "rung-")
		if err != nil {
			return kindTimes{}, err
		}
		defer os.RemoveAll(dir)
		cfg = clusterConfig(dir, nil)
	}
	if tweak != nil {
		tweak(&cfg)
	}
	clu, err := cluster.New(cfg)
	if err != nil {
		return kindTimes{}, err
	}
	l.prefill(clu)
	t, _ := l.replay(name, reqs, callBackend(clu))
	return t, clu.Close()
}

// clusterRungs: routing and sharding alone, then the write-ahead log
// without and with fsync, then the metrics registry.
func (l *ladder) clusterRungs(srv kindTimes) (plain, synced kindTimes, err error) {
	if plain, err = l.clusterRung("cluster", false, nil, l.reqs); err != nil {
		return
	}
	l.set("cluster.join_ns", plain.med(kindJoin, kindBatch))
	l.set("cluster.join_self_ns", plain.med(kindJoin, kindBatch)-srv.med(kindJoin, kindBatch))
	l.set("cluster.lookup_ns", plain.med(kindLookup))
	l.set("cluster.lookup_self_ns", plain.med(kindLookup)-srv.med(kindLookup))

	logged, err := l.clusterRung("cluster-wal", true, func(c *cluster.Config) { c.NoSync = true }, l.reqs)
	if err != nil {
		return
	}
	l.set("cluster.durable_nosync_join_ns", logged.med(kindJoin, kindBatch))
	metered, err := l.clusterRung("cluster-wal-telemetry", true, func(c *cluster.Config) {
		c.NoSync, c.Telemetry = true, telemetry.NewRegistry()
	}, l.reqs)
	if err != nil {
		return
	}
	l.set("telemetry.join_overhead_ns", metered.med(kindJoin, kindBatch)-logged.med(kindJoin, kindBatch))

	if synced, err = l.clusterRung("cluster-wal-fsync", true, nil, l.few); err != nil {
		return
	}
	l.set("cluster.durable_join_us", synced.med(kindJoin)/1e3)
	l.set("cluster.durable_batch_us", synced.med(kindBatch)*float64(l.sp.batchSize())/1e3)
	return plain, synced, nil
}

// opRung: the canonical op codec, Append and DecodeInto.
func (l *ladder) opRung() error {
	var enc, dec kindTimes
	buf := make([]byte, 0, 64<<10)
	var into op.Op
	joinBytes, joins := 0, 0
	for _, q := range l.reqs {
		if !q.kind.isWrite() {
			continue
		}
		t0 := now()
		out, err := op.Append(buf[:0], q.op)
		t1 := now()
		if err == nil {
			err = op.DecodeInto(&into, out)
		}
		t2 := now()
		if err != nil {
			return fmt.Errorf("ladder: op codec: %w", err)
		}
		u := float64(q.units())
		enc[q.kind] = append(enc[q.kind], float64(t1-t0)/u)
		dec[q.kind] = append(dec[q.kind], float64(t2-t1)/u)
		if q.root != 0 {
			l.addSpan("op.encode", q.id, q.root, t0, t1)
			l.addSpan("op.decode", q.id, q.root, t1, t2)
		}
		if len(q.items) > 0 {
			joinBytes, joins = joinBytes+len(out), joins+len(q.items)
		}
	}
	l.set("op.encode_ns", enc.med(kindJoin, kindBatch))
	l.set("op.decode_ns", dec.med(kindJoin, kindBatch))
	l.set("op.bytes_per_join", float64(joinBytes)/float64(joins))
	return nil
}

// walRung appends the requests' records to a sharded log of its own and
// returns the median append time and the bytes on disk per record.
func (l *ladder) walRung(name string, o wal.Options, reqs []*lreq) (perRecord, bytesPerRecord float64, err error) {
	dir, err := os.MkdirTemp(l.opts.dataDir, "wal-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.OpenSharded(dir, 4, o)
	if err != nil {
		return 0, 0, err
	}
	var times []float64
	for i, q := range reqs {
		if q.rec == nil {
			continue
		}
		t0 := now()
		_, err := log.Append(i%4, q.rec)
		t1 := now()
		if err != nil {
			log.Close()
			return 0, 0, err
		}
		times = append(times, float64(t1-t0))
		if q.root != 0 {
			l.addSpan(name, q.id, q.root, t0, t1)
		}
	}
	if err := log.Close(); err != nil {
		return 0, 0, err
	}
	var size int64
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			size += fi.Size()
		}
	}
	return median(times), float64(size) / float64(len(times)), nil
}

func (l *ladder) walRungs() error {
	noSync, bytes, err := l.walRung("wal.append", wal.Options{NoSync: true}, l.reqs)
	if err != nil {
		return err
	}
	sync, _, err := l.walRung("wal.append-fsync", wal.Options{MaxSyncDelay: syncDelay}, l.few)
	if err != nil {
		return err
	}
	l.set("wal.append_nosync_ns", noSync)
	l.set("wal.append_sync_us", sync/1e3)
	l.set("wal.fsync_us", (sync-noSync)/1e3)
	l.set("wal.bytes_per_op", bytes)
	return nil
}

// reconcile takes the rungs beneath out of a round trip — what is left is
// the front end, the client and loopback — and checks that the ladder adds
// up. The front end's own cost is measured on the lookup path, where nothing
// waits for a disk. If the rungs are measuring what they claim, the same
// cost plus the write rungs rebuilds the write's round trip; a gap means
// some rung is timing the wrong thing.
func (l *ladder) reconcile(rootT, plain, synced kindTimes, pr protoTimes) {
	joinSelf := rootT.med(kindJoin) - synced.med(kindJoin) - pr.joinReq - pr.joinResp
	lookupSelf := rootT.med(kindLookup) - plain.med(kindLookup) - pr.lookup
	l.set("netserver.join_rtt_self_us", joinSelf/1e3)
	l.set("netserver.lookup_rtt_self_us", lookupSelf/1e3)

	root, sum, what := rootT.med(kindJoin), synced.med(kindJoin)+pr.joinReq+pr.joinResp+lookupSelf, "join"
	if l.reqs[0].kind == kindBatch {
		batch := float64(l.sp.batchSize())
		root, sum, what = rootT.med(kindBatch), (synced.med(kindBatch)+pr.batchReq+pr.batchResp)*batch+lookupSelf, "batch join"
	}
	gap := 100 * (root - sum) / root
	l.set("trace.ladder_gap_share", gap)
	fmt.Fprintf(l.opts.log, "ladder: %s round trip %.1fus, rungs sum to %.1fus (gap %.1f%%)\n", what, root/1e3, sum/1e3, gap)
	if math.Abs(gap) > 25 {
		where := "above the cluster rung (front end, client, loopback): the lookup path does not predict it"
		if gap < 0 {
			where = "in the cluster-wal-fsync rung: alone it already takes longer than the live node's whole round trip"
		}
		fmt.Fprintf(l.opts.log, "ladder: RECONCILIATION FAILED, %.1fus unaccounted for %s\n", (root-sum)/1e3, where)
	}
}

// subRung feeds the stream's ops to a subscription plane with 64 filters
// over the (already advanced) server and times each op from FeedOp until
// the dispatcher has finished with it. The dispatcher runs on its own
// goroutine, so a sentinel refresh of a peer only a 65th subscriber watches
// follows every op; its event surfacing marks the op done, and the
// sentinel's own cost, measured alone, is taken off.
func (l *ladder) subRung(srv *server.Server) {
	st := l.st
	plane := sub.New(srv, nil)
	defer plane.Close()
	var subs []*sub.Subscriber
	add := func(q sub.Query) *sub.Subscriber {
		s, _, _, err := plane.Add(q)
		if err != nil {
			panic(fmt.Sprintf("ladder: subscribing: %v", err))
		}
		return s
	}
	subs = append(subs, add(sub.Query{Kind: proto.QueryLandmark, Landmark: topology.NodeID(landmarks[0])}))
	for i := 1; i < 64; i++ {
		// Spread the k-closest subjects over the prefilled peers no leave names.
		subs = append(subs, add(sub.Query{Kind: proto.QueryKClosest, Peer: pathtree.PeerID(st.n0 - i*7)}))
	}
	watched := pathtree.PeerID(st.n0)
	sentinel := add(sub.Query{Kind: proto.QueryPeer, Peer: watched})
	seq := uint64(0)
	fence := func() {
		seq++
		plane.FeedOp(seq, op.Refresh(watched, 1))
		for {
			<-sentinel.Ready()
			if _, ok := sentinel.Take(); ok {
				return
			}
		}
	}
	var alone []float64
	for i := 0; i < 200; i++ {
		t0 := now()
		fence()
		alone = append(alone, float64(now()-t0))
	}
	var times []float64
	events, ops := 0, 0
	for _, q := range l.reqs {
		if !q.kind.isWrite() {
			continue
		}
		seq++
		t0 := now()
		plane.FeedOp(seq, q.op)
		fence()
		t1 := now()
		times = append(times, float64(t1-t0)/float64(q.units()))
		ops += q.units()
		if q.root != 0 {
			l.addSpan("sub.feed", q.id, q.root, t0, t1)
		}
		for _, s := range subs {
			for {
				if _, ok := s.Take(); !ok {
					break
				}
				events++
			}
		}
	}
	l.set("sub.feed_ns", math.Max(median(times)-median(alone), 0))
	l.set("sub.events_per_op", float64(events)/float64(max(ops, 1)))
}

// protoTimes are the codec medians the reconciliation needs, in ns.
type protoTimes struct {
	joinReq, joinResp, batchReq, batchResp, lookup float64
}

// protoRung encodes and decodes what crosses the wire for each request:
// the request as the client builds it, and an answer of k neighbours.
func (l *ladder) protoRung() protoTimes {
	answer := make([]proto.Candidate, neighborCount)
	for i := range answer {
		answer[i] = proto.Candidate{Peer: int64(i + 1), DTree: int32(i), Addr: addrOf(int64(i + 1))}
	}
	var joinReq, joinResp, batchReq, batchResp, lookup []float64
	var reqBytes, respBytes, joins, ops int
	var intoReq proto.JoinRequest
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("ladder: proto codec: %v", err))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range l.reqs {
		switch q.kind {
		case kindJoin:
			it := &q.items[0]
			t0 := now()
			b, err := proto.AppendJoinRequest(proto.GetBuf(0), &proto.JoinRequest{Peer: it.Peer, Addr: it.Addr, Path: it.Path})
			must(err)
			must(proto.DecodeJoinRequestInto(&intoReq, b))
			proto.PutBuf(b)
			t1 := now()
			rb, err := proto.EncodeJoinResponse(&proto.JoinResponse{Neighbors: answer})
			must(err)
			_, err = proto.DecodeJoinResponse(rb)
			must(err)
			t2 := now()
			reqBytes, respBytes, joins = reqBytes+len(b), respBytes+len(rb), joins+1
			proto.PutBuf(rb)
			joinReq = append(joinReq, float64(t1-t0))
			joinResp = append(joinResp, float64(t2-t1))
			if q.root != 0 {
				l.addSpan("proto.join", q.id, q.root, t0, t2)
			}
		case kindBatch:
			m := &proto.BatchJoinRequest{Joins: make([]proto.JoinRequest, len(q.items))}
			res := &proto.BatchJoinResponse{Results: make([]proto.BatchJoinResult, len(q.items))}
			for i, it := range q.items {
				m.Joins[i] = proto.JoinRequest{Peer: it.Peer, Addr: it.Addr, Path: it.Path}
				res.Results[i].Neighbors = answer
			}
			t0 := now()
			b, err := proto.EncodeBatchJoinRequest(m)
			must(err)
			_, err = proto.DecodeBatchJoinRequest(b)
			must(err)
			t1 := now()
			rb, err := proto.EncodeBatchJoinResponse(res)
			must(err)
			_, err = proto.DecodeBatchJoinResponse(rb)
			must(err)
			t2 := now()
			proto.PutBuf(rb)
			u := float64(len(q.items))
			batchReq = append(batchReq, float64(t1-t0)/u)
			batchResp = append(batchResp, float64(t2-t1)/u)
			if q.root != 0 {
				l.addSpan("proto.batch", q.id, q.root, t0, t2)
			}
		case kindLookup:
			t0 := now()
			b := proto.EncodeLookupRequest(&proto.LookupRequest{Peer: q.peer})
			_, err := proto.DecodeLookupRequest(b)
			must(err)
			rb, err := proto.EncodeLookupResponse(&proto.LookupResponse{Neighbors: answer})
			must(err)
			_, err = proto.DecodeLookupResponse(rb)
			must(err)
			t1 := now()
			proto.PutBuf(rb)
			lookup = append(lookup, float64(t1-t0))
			if q.root != 0 {
				l.addSpan("proto.lookup", q.id, q.root, t0, t1)
			}
		default:
			continue
		}
		ops += q.units()
	}
	runtime.ReadMemStats(&after)
	pr := protoTimes{
		joinReq: median(joinReq), joinResp: median(joinResp),
		batchReq: median(batchReq), batchResp: median(batchResp), lookup: median(lookup),
	}
	l.set("proto.join_req_ns", pr.joinReq)
	l.set("proto.join_resp_ns", pr.joinResp)
	l.set("proto.batch_req_ns", pr.batchReq)
	l.set("proto.batch_resp_ns", pr.batchResp)
	l.set("proto.lookup_ns", pr.lookup)
	l.set("proto.bytes_per_join_req", float64(reqBytes)/float64(joins))
	l.set("proto.bytes_per_join_resp", float64(respBytes)/float64(joins))
	l.set("proto.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(max(ops, 1)))
	return pr
}
