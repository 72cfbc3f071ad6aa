package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"proxdisc/internal/proto"
)

// model is the benchmark's own record of who is resident and under which
// path: leaf[p] is the TreePath leaf of peer p plus one, zero when absent.
// Concurrent requests never name the same peer (the generator sees to it),
// so elements are written without a lock.
type model struct {
	leaf     []int32
	resident atomic.Int64
}

func newModel(st *streams, extra int) *model {
	m := &model{leaf: make([]int32, int(st.maxPeer)+extra+1)}
	for i, lf := range st.prefill {
		m.leaf[i+1] = lf + 1
	}
	m.resident.Store(int64(st.n0))
	return m
}

func (m *model) set(peer int64, leaf int32) {
	if m.leaf[peer] == 0 {
		m.resident.Add(1)
	}
	m.leaf[peer] = leaf + 1
}

func (m *model) remove(peer int64) {
	if m.leaf[peer] != 0 {
		m.resident.Add(-1)
	}
	m.leaf[peer] = 0
}

// sample is one request's timing.
type sample struct {
	start, end int64
	due        int64
	kind       reqKind
	primary    bool
	ok         bool
}

// runner sends generated requests to a node and keeps score.
type runner struct {
	n         *node
	m         *model
	cons      *consumers // set while phase A tracks its writes to the consumers
	attempted atomic.Int64
	failed    atomic.Int64
	// send performs one request; it is do except where a test stands in a
	// server of known slowness.
	send func(*request) bool
}

func newRunner(n *node, m *model) *runner {
	r := &runner{n: n, m: m}
	r.send = r.do
	return r
}

// plausible is the check every answer gets under load: at most k
// neighbours, never the asker itself, no peer twice. The exact check
// against the brute-force model runs at quiescence (oracle.go).
func plausible(self int64, cands []proto.Candidate) bool {
	if len(cands) > neighborCount {
		return false
	}
	for i, c := range cands {
		if c.Peer == self {
			return false
		}
		for _, d := range cands[:i] {
			if d.Peer == c.Peer {
				return false
			}
		}
	}
	return true
}

// do performs one request on its connection, folds an acknowledged write
// into the model, and reports whether the answer was acceptable.
func (r *runner) do(req *request) bool {
	c := r.n.conns[req.conn]
	ok := false
	switch req.kind {
	case kindJoin:
		it := &req.items[0]
		cands, err := c.Join(it.Peer, it.Addr, it.Path)
		if ok = err == nil && plausible(it.Peer, cands); ok {
			r.m.set(it.Peer, req.leaves[0])
		}
	case kindBatch:
		res, err := c.JoinBatch(req.items)
		ok = err == nil && len(res) == len(req.items)
		for i := 0; ok && i < len(res); i++ {
			ok = res[i].Err == nil && plausible(req.items[i].Peer, res[i].Neighbors)
		}
		if ok {
			for i := range req.items {
				r.m.set(req.items[i].Peer, req.leaves[i])
			}
		}
	case kindLookup:
		cands, err := c.Lookup(req.peer)
		ok = err == nil && plausible(req.peer, cands)
	case kindLeave:
		if ok = c.Leave(req.peer) == nil; ok {
			r.m.remove(req.peer)
		}
	case kindRefresh:
		ok = c.Refresh(req.peer) == nil
	}
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
	return ok
}

// openLoop sends reqs on schedule — request i at t0+reqs[i].due whatever
// happened to the ones before it — and times each from its due time. One
// dispatcher per connection sleeps until the next due time and hands the
// request to a worker; stop (optional) ends the phase at the next due time.
func (r *runner) openLoop(reqs []request, workersPerConn int, stop <-chan struct{}) []sample {
	samples := make([]sample, len(reqs))
	byConn := map[uint8][]int{}
	for i := range reqs {
		byConn[reqs[i].conn] = append(byConn[reqs[i].conn], i)
	}
	var wg sync.WaitGroup
	t0 := now() + int64(time.Millisecond)
	for _, idxs := range byConn {
		// Sized to the phase so the dispatcher never waits on a slow server.
		ch := make(chan int, len(idxs))
		for w := 0; w < workersPerConn; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ch {
					s := &samples[i]
					s.start = now()
					s.ok = r.send(&reqs[i])
					s.end = now()
				}
			}()
		}
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			defer close(ch)
			for _, i := range idxs {
				due := t0 + int64(reqs[i].due)
				samples[i] = sample{due: due, kind: reqs[i].kind, primary: reqs[i].primary}
				sleepUntil(due)
				select {
				case <-stop:
					return
				default:
				}
				if r.cons != nil && reqs[i].kind.isWrite() {
					r.cons.expect(&reqs[i], due)
				}
				ch <- i
			}
		}(idxs)
	}
	wg.Wait()
	return samples
}

// sleepUntil blocks the calling thread in the kernel until the timestamp.
// A runtime timer will not do: with every P idle the Go scheduler waits in
// epoll with millisecond granularity, and requests due every few
// milliseconds would start up to a millisecond late.
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

// closedResult is what phase B measured.
type closedResult struct {
	samples   []sample
	chunkEnds []int64 // chunkEnds[0] is the phase start
	ckpts     []interval
	ckptErrs  int
}

// closedLoop keeps inFlight requests outstanding on every connection until
// all of reqs completed, marking the time every chunkReqs completions. It
// calls Checkpoint() on the cluster when the completion count passes each
// entry of ckptAt, while load continues, and runs the paced background
// stream bg beside the load for as long as the load lasts.
func (r *runner) closedLoop(reqs []request, inFlight, chunkReqs int, ckptAt []int, bg []request) closedResult {
	res := closedResult{
		samples:   make([]sample, len(reqs)),
		chunkEnds: make([]int64, len(reqs)/chunkReqs+1),
	}
	nconns := len(r.n.conns)
	cursors := make([]atomic.Int64, nconns)
	var done atomic.Int64

	ckptCh := make(chan struct{}, len(ckptAt))
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for range ckptCh {
			iv := interval{start: now()}
			if err := r.n.clu.Checkpoint(); err != nil {
				res.ckptErrs++
			}
			iv.end = now()
			res.ckpts = append(res.ckpts, iv)
		}
	}()

	stopBg := make(chan struct{})
	var bgWG sync.WaitGroup
	if len(bg) > 0 {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			r.openLoop(bg, 8, stopBg)
		}()
	}

	var wg sync.WaitGroup
	res.chunkEnds[0] = now()
	for c := 0; c < nconns; c++ {
		for w := 0; w < inFlight; w++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					// Connection c owns requests c, c+nconns, c+2·nconns, …
					i := int(cursors[c].Add(1)-1)*nconns + c
					if i >= len(reqs) {
						return
					}
					s := &res.samples[i]
					s.kind, s.primary = reqs[i].kind, true
					s.start = now()
					s.ok = r.send(&reqs[i])
					s.end = now()
					d := int(done.Add(1))
					if d%chunkReqs == 0 {
						res.chunkEnds[d/chunkReqs] = s.end
					}
					for _, at := range ckptAt {
						if d == at {
							ckptCh <- struct{}{}
						}
					}
				}
			}(c)
		}
	}
	wg.Wait()
	close(stopBg)
	bgWG.Wait()
	close(ckptCh)
	ckptWG.Wait()
	return res
}
