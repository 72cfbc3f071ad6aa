package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"proxdisc/internal/cluster"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
)

// The oracle is an independent brute-force statement of what the server
// must answer: among the resident peers of the asker's landmark, the k with
// the smallest tree distance, the asker excluded, where the distance of two
// reported paths (peer side first, landmark last) is the hops from each up
// to their deepest shared router. It knows nothing of tries.

// maxHops bounds a TreePath: fanout 8 over 200 000 leaves is at most six
// routers, plus the landmark.
const maxHops = 8

type opath struct {
	n    int8
	hops [maxHops]int32
}

func makeOpath(peer int64, leaf int32) opath {
	var p opath
	path := pathOf(peer, leaf)
	if len(path) > maxHops {
		panic(fmt.Sprintf("path of %d hops exceeds the oracle's bound", len(path)))
	}
	p.n = int8(copy(p.hops[:], path))
	return p
}

// treeDistance counts the hops between two paths ending at the same
// landmark: each path's length minus the shared suffix, summed.
func treeDistance(a, b *opath) int {
	shared := 0
	for shared < int(a.n) && shared < int(b.n) && a.hops[int(a.n)-1-shared] == b.hops[int(b.n)-1-shared] {
		shared++
	}
	return int(a.n) + int(b.n) - 2*shared
}

// oracle is a frozen copy of the model, expanded to paths and grouped by
// landmark. It is only valid while nothing is in flight.
type oracle struct {
	at     map[int64]int // position of a resident peer within its landmark's group
	byLand map[int32]*landGroup
}

type landGroup struct {
	peers []int64
	paths []opath
}

func newOracle(m *model) *oracle {
	o := &oracle{at: make(map[int64]int, m.resident.Load()), byLand: make(map[int32]*landGroup)}
	for _, lm := range landmarks {
		o.byLand[lm] = &landGroup{}
	}
	for peer, lf := range m.leaf {
		if lf != 0 {
			o.add(int64(peer), lf-1)
		}
	}
	return o
}

func (o *oracle) add(peer int64, leaf int32) {
	g := o.byLand[landmarkOf(peer)]
	if i, known := o.at[peer]; known {
		g.paths[i] = makeOpath(peer, leaf)
		return
	}
	o.at[peer] = len(g.peers)
	g.peers = append(g.peers, peer)
	g.paths = append(g.paths, makeOpath(peer, leaf))
}

// pathOf returns the resident peer's path, nil when it is not resident.
func (o *oracle) pathOf(peer int64) *opath {
	i, ok := o.at[peer]
	if !ok {
		return nil
	}
	return &o.byLand[landmarkOf(peer)].paths[i]
}

// expected returns the ascending distances of the k nearest residents of
// the asker's landmark, the asker excluded.
func (o *oracle) expected(self int64, from *opath) []int {
	var hist [2 * maxHops]int
	g := o.byLand[landmarkOf(self)]
	for i := range g.paths {
		if g.peers[i] != self {
			hist[treeDistance(from, &g.paths[i])]++
		}
	}
	var out []int
	for d, n := range hist {
		for ; n > 0 && len(out) < neighborCount; n-- {
			out = append(out, d)
		}
	}
	return out
}

// check compares one answer with the brute-force one: the same multiset of
// distances (so any tie-break is accepted), every candidate resident under
// the asker's landmark at exactly the distance claimed, carrying the address
// it registered, and the asker itself absent.
func (o *oracle) check(self int64, from *opath, cands []proto.Candidate) error {
	if !plausible(self, cands) {
		return fmt.Errorf("peer %d: answer has self, a duplicate or more than %d entries", self, neighborCount)
	}
	got := make([]int, len(cands))
	for i, c := range cands {
		p := o.pathOf(c.Peer)
		if p == nil || landmarkOf(c.Peer) != landmarkOf(self) {
			return fmt.Errorf("peer %d: candidate %d is not resident under its landmark", self, c.Peer)
		}
		if d := treeDistance(from, p); d != int(c.DTree) {
			return fmt.Errorf("peer %d: candidate %d at distance %d, server says %d", self, c.Peer, d, c.DTree)
		}
		if c.Addr != addrOf(c.Peer) {
			return fmt.Errorf("peer %d: candidate %d has address %q", self, c.Peer, c.Addr)
		}
		got[i] = int(c.DTree)
	}
	slices.Sort(got)
	if want := o.expected(self, from); !slices.Equal(got, want) {
		return fmt.Errorf("peer %d: distances %v, brute force says %v", self, got, want)
	}
	return nil
}

// answer is one sampled lookup, kept to compare against the recovered node.
type answer struct {
	peer  int64
	ok    bool
	cands []proto.Candidate
}

// corruptAnswer, when set by a test, damages a sampled answer before the
// oracle sees it, to prove that a wrong answer fails the run.
var corruptAnswer func(cands []proto.Candidate)

// verify runs at quiescence: sequential joins of new peers, then sampled
// lookups of resident peers split over the connections, each compared with
// the oracle. It returns the lookup answers (nothing changes the state after
// them, so a recovered node must repeat them) and the mismatches found.
func (r *runner) verify(rng *rand.Rand, nLookups, nJoins int) ([]answer, []error) {
	o := newOracle(r.m)
	residents := make([]int64, 0, len(o.at))
	for _, lm := range landmarks {
		residents = append(residents, o.byLand[lm].peers...)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	fail := func(err error) {
		r.failed.Add(1)
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	nconns := len(r.n.conns)

	// A join is answered from the state before it: one at a time, the
	// model is exact, and the joiner is then added to it.
	next := int64(len(r.m.leaf) - nJoins)
	for i := 0; i < nJoins; i++ {
		id, lf := next+int64(i), int32(rng.Intn(leafSpace))
		from := makeOpath(id, lf)
		cands, err := r.n.conns[i%nconns].Join(id, addrOf(id), pathOf(id, lf))
		r.attempted.Add(1)
		if err != nil {
			fail(fmt.Errorf("oracle join of %d: %w", id, err))
			continue
		}
		if err := o.check(id, &from, cands); err != nil {
			fail(err)
		}
		o.add(id, lf)
		r.m.set(id, lf)
	}

	answers := make([]answer, nLookups)
	for i := range answers {
		answers[i].peer = residents[rng.Intn(len(residents))]
	}
	for c := 0; c < nconns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(answers); i += nconns {
				a := &answers[i]
				cands, err := r.n.conns[c].Lookup(a.peer)
				r.attempted.Add(1)
				if err != nil {
					fail(fmt.Errorf("oracle lookup of %d: %w", a.peer, err))
					continue
				}
				if corruptAnswer != nil && i == 0 {
					corruptAnswer(cands)
				}
				a.ok, a.cands = true, cands
				if err := o.check(a.peer, o.pathOf(a.peer), cands); err != nil {
					fail(err)
				}
			}
		}(c)
	}
	wg.Wait()
	return answers, errs
}

// verifyRecovered checks a node reopened from the crash copy against the
// model and the pre-crash answers: the same number of peers, every
// acknowledged join not followed by an acknowledged leave present under
// the path it reported, and the sampled lookups answered identically.
func (r *runner) verifyRecovered(re *cluster.Cluster, answers []answer) []error {
	var errs []error
	if got, want := re.NumPeers(), int(r.m.resident.Load()); got != want {
		errs = append(errs, fmt.Errorf("recovered node holds %d peers, acknowledged state has %d", got, want))
	}
	for peer, lf := range r.m.leaf {
		if lf == 0 {
			continue
		}
		info, err := re.PeerInfo(pathtree.PeerID(peer))
		if err != nil {
			errs = append(errs, fmt.Errorf("recovered node lost acknowledged peer %d: %w", peer, err))
			continue
		}
		want := pathOf(int64(peer), lf-1)
		same := len(info.Path) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = int32(info.Path[i]) == want[i]
		}
		if !same {
			errs = append(errs, fmt.Errorf("recovered peer %d under path %v, acknowledged %v", peer, info.Path, want))
		}
		if len(errs) > 20 {
			return errs
		}
	}
	for _, a := range answers {
		if !a.ok {
			continue
		}
		got, err := re.Lookup(pathtree.PeerID(a.peer))
		same := err == nil && len(got) == len(a.cands)
		for i := 0; same && i < len(got); i++ {
			same = int64(got[i].Peer) == a.cands[i].Peer && int32(got[i].DTree) == a.cands[i].DTree
		}
		if !same {
			errs = append(errs, fmt.Errorf("lookup of %d differs after recovery: %v (err %v), before %v", a.peer, got, err, a.cands))
			if len(errs) > 20 {
				return errs
			}
		}
	}
	return errs
}
