package pathtree

import (
	"fmt"
	"math/rand"
	"testing"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// flashCrowd is the shape of the benchmark's flash_crowd workload at the
// scale of one node: four landmark trees of loadgen.TreePath peers (heapPath
// here), 50 000 resident at the start and 178 000 at the end.
type flashCrowd struct {
	trees [4]*Core
	paths [][]topology.NodeID // peer p+1's path; it joins trees[p%4]
	slots []int32             // peer p+1's slot, once joined
}

const flashStart, flashEnd = 50_000, 178_000

func newFlashCrowd() *flashCrowd {
	rng := rand.New(rand.NewSource(5))
	f := &flashCrowd{paths: make([][]topology.NodeID, flashEnd), slots: make([]int32, flashEnd)}
	for i := range f.paths {
		f.paths[i] = heapPath(1 + rng.Intn(200_000))
	}
	return f
}

// fill empties the trees and joins the first n peers, unanswered.
func (f *flashCrowd) fill(n int) {
	for i := range f.trees {
		f.trees[i] = NewCore(propLandmark)
	}
	for p := 0; p < n; p++ {
		f.slots[p], _ = f.trees[p%4].Join(PeerID(p+1), f.paths[p], 0, nil)
	}
}

// BenchmarkFlashCrowdJoin measures one answered join (k=5) — the descent,
// the k-closest search and the insert — as flash_crowd's server runs it:
// each op joins the next new peer into one of four trees that grow from
// 50 000 peers to 178 000, and then start over from 50 000 (untimed).
func BenchmarkFlashCrowdJoin(b *testing.B) {
	f := newFlashCrowd()
	f.fill(flashStart)
	var sc Scratch
	p := flashStart
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p == flashEnd {
			b.StopTimer()
			f.fill(flashStart)
			p = flashStart
			b.StartTimer()
		}
		f.trees[p%4].Join(PeerID(p+1), f.paths[p], 5, &sc)
		p++
	}
}

// BenchmarkResidentLookup measures one k-closest query (k=5) for a random
// resident peer — the lookup read_mostly sends — on flash_crowd's end state:
// four trees holding 178 000 peers between them.
func BenchmarkResidentLookup(b *testing.B) {
	f := newFlashCrowd()
	f.fill(flashEnd)
	rng := rand.New(rand.NewSource(6))
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := rng.Intn(flashEnd)
		f.trees[p%4].Closest(f.slots[p], 5, &sc)
	}
}

// BenchmarkHubChurn measures one join-and-leave cycle under a hub: a router
// with 4 096 children, each holding one peer. Each op joins a peer below a
// router the hub does not hold yet, placed at random among the children's
// routers, and removes it again, which prunes the router. "quiet" joins it
// unanswered (the descent scans the hub's children and misses, the insert
// and the prune), "answered" with k=5, which also searches all 4 096
// siblings, every one at the same distance.
func BenchmarkHubChurn(b *testing.B) {
	const hub, kids topology.NodeID = 1, 4096
	for _, bc := range []struct {
		name string
		k    int
	}{{"quiet", 0}, {"answered", 5}} {
		b.Run(bc.name, func(b *testing.B) {
			core := NewCore(propLandmark)
			for i := topology.NodeID(0); i < kids; i++ {
				core.Join(PeerID(i+1), []topology.NodeID{10 + 2*i, hub, propLandmark}, 0, nil)
			}
			rng := rand.New(rand.NewSource(7))
			paths := make([][]topology.NodeID, 1024)
			for i := range paths {
				paths[i] = []topology.NodeID{11 + 2*topology.NodeID(rng.Intn(int(kids))), hub, propLandmark}
			}
			var sc Scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot, _ := core.Join(PeerID(kids+1), paths[i%len(paths)], bc.k, &sc)
				core.Remove(slot)
			}
		})
	}
}

// BenchmarkValidatePath measures the check a join's path passes once, where
// it enters the program, before any lock: at the bench's path length (7
// routers, the landmark included) and at the format's cap (codec.MaxPathLen),
// where the repeat scan's quadratic cost shows.
func BenchmarkValidatePath(b *testing.B) {
	for _, hops := range []int{7, codec.MaxPathLen} {
		path := make([]topology.NodeID, hops) // ends at propLandmark
		for i := range path[:hops-1] {
			path[i] = topology.NodeID(1000 + i)
		}
		b.Run(fmt.Sprintf("%d hops", hops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ValidatePath(path, propLandmark); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
