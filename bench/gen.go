package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/loadgen"
)

// request is one generated call. The program under test only ever sees
// what a request carries; everything random about it comes from the seed.
type request struct {
	kind    reqKind
	primary bool // counts towards the workload's own metrics (not background)
	conn    uint8
	due     time.Duration // open-loop phases: offset from the phase start
	peer    int64         // lookup/leave/refresh subject
	// items are the registrations of a join (one) or batch join; leaves
	// are the TreePath leaves they were built from, kept for the model.
	items  []client.BatchItem
	leaves []int32
}

// units is how many peer operations the request carries.
func (r *request) units() int {
	if r.kind == kindBatch {
		return len(r.items)
	}
	return 1
}

// streams is everything one round sends, generated up front from its seed.
type streams struct {
	n0       int
	prefill  []int32   // prefill[i] is the leaf of peer i+1
	open     []request // diagnostic pass only: the open loop, sorted by due
	closed   []request // closed-loop primaries; request i goes to conn i%conns
	closedBg []request // closed-loop paced background writes, sorted by due
	tail     []request // diagnostic pass only: ladder coverage tail, every kind at least once
	maxPeer  int64     // highest peer ID any stream mentions
}

func landmarkOf(peer int64) int32 { return landmarks[peer%int64(len(landmarks))] }

func pathOf(peer int64, leaf int32) []int32 {
	return loadgen.TreePath(landmarkOf(peer), int(leaf))
}

func batchItem(peer int64, leaf int32) client.BatchItem {
	return client.BatchItem{Peer: peer, Addr: addrOf(peer), Path: pathOf(peer, leaf)}
}

func addrOf(peer int64) string {
	return fmt.Sprintf("10.%d.%d.%d:7000", byte(peer>>16), byte(peer>>8), byte(peer))
}

// sizes are a workload's op counts after scaling by -seconds and -short.
type sizes struct {
	n0         int
	openDur    time.Duration
	closedReqs int
	chunkReqs  int
	tailEach   int // ladder tail requests per kind
	ownReqs    int // ladder: leading phase-B requests replayed
	syncOps    int
	oracleLook int
	oracleJoin int
}

// scaledSizes sizes one round's streams; diag adds what only the traced
// run's diagnostic pass and ladder send (the open loop and the tail).
func scaledSizes(sp spec, seconds, div int, diag bool) sizes {
	scale := func(n int) int {
		n = n * seconds / refSeconds / div
		if n < 1 {
			n = 1
		}
		return n
	}
	chunk := scale(sp.closedReqs) / closedChunks
	if chunk < 1 {
		chunk = 1
	}
	sz := sizes{
		n0:         prefillPeers / div,
		closedReqs: chunk * closedChunks,
		chunkReqs:  chunk,
		ownReqs:    max(ladderOwnReqs/div, 20),
		syncOps:    max(ladderSyncOps/div, 10),
		oracleLook: max(oracleLookups/div, 40),
		oracleJoin: max(oracleJoins/div, 10),
	}
	if diag {
		// The open loop shrinks by at most 10, or a -short run of the
		// workloads with few writes would see no push at all.
		sz.openDur = time.Duration(openSeconds) * time.Second * time.Duration(seconds) / refSeconds / time.Duration(min(div, 10))
		sz.tailEach = max(300/div, 8)
	}
	return sz
}

// generator hands out peers so that no request can fail whatever order
// the server happens to run concurrent requests in: joins use fresh IDs,
// leaves walk the oldest prefilled peers (each once), and every other
// subject comes from the prefilled peers that never leave.
type generator struct {
	rng       *rand.Rand
	sp        spec
	n0        int
	nextNew   int64
	nextLeave int64
	safeLo    int64   // first prefilled peer no leave will ever name
	rejoin    []int32 // permutation of safe peers, consumed by re-joins
	maxPeer   int64
}

func (g *generator) leaf() int32 { return int32(g.rng.Intn(leafSpace)) }

func (g *generator) safePeer() int64 {
	return g.safeLo + g.rng.Int63n(int64(g.n0)-g.safeLo+1)
}

func (g *generator) joinItems(n int) ([]client.BatchItem, []int32) {
	items := make([]client.BatchItem, n)
	leaves := make([]int32, n)
	for i := range items {
		id := g.nextNew
		g.nextNew++
		leaves[i] = g.leaf()
		items[i] = batchItem(id, leaves[i])
	}
	g.maxPeer = g.nextNew - 1
	return items, leaves
}

func (g *generator) pickKind() reqKind {
	total := 0
	for _, w := range g.sp.mix {
		total += w
	}
	n := g.rng.Intn(total)
	for k, w := range g.sp.mix {
		if n < w {
			return reqKind(k)
		}
		n -= w
	}
	panic("unreachable: weights exhausted")
}

func (g *generator) build(kind reqKind) request {
	r := request{kind: kind, primary: true}
	switch kind {
	case kindJoin:
		r.items, r.leaves = g.joinItems(1)
		r.peer = r.items[0].Peer
	case kindBatch:
		r.items, r.leaves = g.joinItems(g.sp.batchSize())
	case kindLeave:
		r.peer = g.nextLeave
		g.nextLeave++
	case kindLookup, kindRefresh:
		r.peer = g.safePeer()
	}
	return r
}

// background builds one paced write: alternately a Refresh and a re-Join
// of a resident peer under a new path (each peer re-joined at most once,
// so the peer's final path is known whatever the interleaving).
func (g *generator) background(i int) request {
	if i%2 == 1 && len(g.rejoin) > 0 {
		id := g.safeLo + int64(g.rejoin[0])
		g.rejoin = g.rejoin[1:]
		lf := g.leaf()
		return request{kind: kindJoin, peer: id, leaves: []int32{lf}, items: []client.BatchItem{batchItem(id, lf)}}
	}
	return request{kind: kindRefresh, peer: g.safePeer()}
}

// roundSeed derives the seed of round i of a run (i == rounds is the
// traced run's diagnostic pass), so every round sends its own streams.
func roundSeed(seed int64, i int) int64 { return seed<<4 | int64(i) }

func generate(sp spec, seed int64, seconds, conns, div int, diag bool) (*streams, sizes, error) {
	sz := scaledSizes(sp, seconds, div, diag)
	st := &streams{n0: sz.n0, prefill: make([]int32, sz.n0)}
	pre := rand.New(rand.NewSource(seed<<8 | 1))
	for i := range st.prefill {
		st.prefill[i] = int32(pre.Intn(leafSpace))
	}
	g := &generator{rng: rand.New(rand.NewSource(seed<<8 | 2)), sp: sp, n0: sz.n0, nextNew: int64(sz.n0) + 1, nextLeave: 1}

	// Pass one fixes the request kinds, which fixes how many of the oldest
	// prefilled peers will leave; everything else steers clear of those.
	nOpen := int(int64(sp.openRate) * int64(sz.openDur) / int64(time.Second))
	nTail := sz.tailEach
	kinds := make([]reqKind, nOpen+sz.closedReqs)
	leaves := nTail
	for i := range kinds {
		kinds[i] = g.pickKind()
		if kinds[i] == kindLeave {
			leaves++
		}
	}
	if leaves*2 > sz.n0 {
		return nil, sz, fmt.Errorf("workload %s would remove %d of %d prefilled peers", sp.name, leaves, sz.n0)
	}
	g.safeLo = int64(leaves) + 1
	nSafe := sz.n0 - leaves
	nOpenBg := int(int64(sp.bgWriteRate) * int64(sz.openDur) / int64(time.Second))
	// Paced writes for four times the closed loop's nominal length: they
	// stop with the load, and must not run out before it on a slow day.
	nClosedBg := sp.bgWriteRate * seconds * 4 / rounds / div
	if want := (nOpenBg + nClosedBg + 1) / 2; want > 0 {
		g.rejoin = make([]int32, 0, min(want, nSafe))
		for _, p := range g.rng.Perm(nSafe)[:cap(g.rejoin)] {
			g.rejoin = append(g.rejoin, int32(p))
		}
	}

	for i := 0; i < nOpen; i++ {
		r := g.build(kinds[i])
		r.conn = uint8(i % conns)
		r.due = time.Duration(i) * time.Second / time.Duration(sp.openRate)
		st.open = append(st.open, r)
	}
	for i := 0; i < nOpenBg; i++ {
		r := g.background(i)
		r.due = (2*time.Duration(i) + 1) * time.Second / time.Duration(2*sp.bgWriteRate)
		st.open = append(st.open, r)
	}
	sort.SliceStable(st.open, func(a, b int) bool { return st.open[a].due < st.open[b].due })

	for i := 0; i < sz.closedReqs; i++ {
		r := g.build(kinds[nOpen+i])
		r.conn = uint8(i % conns)
		st.closed = append(st.closed, r)
	}
	for i := 0; i < nClosedBg; i++ {
		r := g.background(i)
		r.due = (2*time.Duration(i) + 1) * time.Second / time.Duration(2*sp.bgWriteRate)
		st.closedBg = append(st.closedBg, r)
	}

	for i := 0; i < nTail; i++ {
		for _, k := range []reqKind{kindJoin, kindLookup, kindLeave, kindRefresh} {
			st.tail = append(st.tail, g.build(k))
		}
		if i%3 == 0 {
			st.tail = append(st.tail, g.build(kindBatch))
		}
	}
	st.maxPeer = max(g.maxPeer, int64(sz.n0))
	return st, sz, nil
}

// digest hashes every field of every generated request, for the
// same-seed-same-stream test.
func (st *streams) digest() [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	put := func(v int64) { buf = binary.AppendVarint(buf, v) }
	for _, lf := range st.prefill {
		put(int64(lf))
	}
	for _, reqs := range [][]request{st.open, st.closed, st.closedBg, st.tail} {
		put(int64(len(reqs)))
		for i := range reqs {
			r := &reqs[i]
			put(int64(r.kind))
			put(int64(r.conn))
			put(int64(r.due))
			put(r.peer)
			if r.primary {
				put(1)
			} else {
				put(0)
			}
			for j, it := range r.items {
				put(it.Peer)
				put(int64(r.leaves[j]))
				buf = append(buf, it.Addr...)
				for _, hop := range it.Path {
					put(int64(hop))
				}
			}
		}
		h.Write(buf)
		buf = buf[:0]
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
