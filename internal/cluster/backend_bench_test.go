package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// BenchmarkOneShardVsServer prices what a node pays for running its one
// shard as a cluster rather than a bare server: the same 50 000 residents
// over four landmarks, the join road (JoinOp re-joining a resident at a
// fresh leaf, so the population stays put) and the lookup road (Lookup of a
// resident), on one goroutine. With -count the backends' runs interleave.
//
//	go test -run '^$' -bench OneShardVsServer -benchtime 200000x -count 10 -cpu 1 ./internal/cluster
func BenchmarkOneShardVsServer(b *testing.B) {
	const residents = 50_000
	lms := testLandmarks[:4]
	path := func(i, leaf int) []topology.NodeID { return synthPath(lms[i%len(lms)], leaf) }
	type backend interface {
		JoinOp(o op.Op) ([]pathtree.Candidate, error)
		Lookup(p pathtree.PeerID) ([]pathtree.Candidate, error)
	}
	build := map[string]func() (backend, error){
		"server": func() (backend, error) { return server.New(server.Config{Landmarks: lms}) },
		"cluster-1": func() (backend, error) {
			return New(Config{Landmarks: lms, Shards: 1})
		},
	}
	for _, road := range []string{"join", "lookup"} {
		for _, name := range []string{"server", "cluster-1"} {
			b.Run(fmt.Sprintf("road=%s/backend=%s", road, name), func(b *testing.B) {
				be, err := build[name]()
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < residents; i++ {
					if _, err := be.JoinOp(op.Join(pathtree.PeerID(i+1), path(i, rng.Intn(50_000)), "10.0.0.1:4000", 0)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					i := rng.Intn(residents)
					if road == "join" {
						_, err = be.JoinOp(op.Join(pathtree.PeerID(i+1), path(i, rng.Intn(50_000)), "10.0.0.1:4000", 0))
					} else {
						_, err = be.Lookup(pathtree.PeerID(i + 1))
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
