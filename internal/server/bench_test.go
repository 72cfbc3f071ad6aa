package server

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/op"
	"proxdisc/internal/pathtree"
)

// BenchmarkLookupBesideBatchWriter measures what a lookup pays for the
// writers next to it: one reader looks up random residents of a 100 000-peer
// server, each lookup timed, alone (writers=0) and beside one writer
// re-joining residents in batches of 32 flat out (writers=1). It reports the
// lookups' median and 99th percentile, lookups/s, and the writer's joins/s.
// The package comment quotes its rows; a median beside the writer above 5 µs
// means a writer holds the state lock for more than one mutation.
func BenchmarkLookupBesideBatchWriter(b *testing.B) {
	const peers, batch = 100_000, 32
	s, err := New(Config{Landmarks: residentLandmarks})
	if err != nil {
		b.Fatal(err)
	}
	var batches []op.Op
	for i := 0; i < peers; i++ {
		o := residentJoin(i)
		if _, err := s.JoinOp(o); err != nil {
			b.Fatal(err)
		}
		if i%batch == 0 {
			batches = append(batches, op.BatchJoin(nil, 0))
		}
		last := &batches[len(batches)-1]
		last.Batch = append(last.Batch, o.Join)
	}
	for writers := 0; writers <= 1; writers++ {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			var stop atomic.Bool
			var joined atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						for _, res := range s.JoinBatchOp(batches[i%len(batches)]) {
							if res.Err != nil {
								b.Error(res.Err)
								return
							}
						}
						joined.Add(batch)
					}
				}()
			}
			rng := rand.New(rand.NewSource(21))
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			before, start := joined.Load(), time.Now()
			for i := range lat {
				p := pathtree.PeerID(1 + rng.Intn(peers)) // residentJoin numbers peers from 1
				t0 := time.Now()
				if _, err := s.Lookup(p); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(t0)
			}
			elapsed := time.Since(start).Seconds()
			joins := joined.Load() - before
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2]), "lookup-p50-ns")
			b.ReportMetric(float64(lat[len(lat)*99/100]), "lookup-p99-ns")
			b.ReportMetric(float64(len(lat))/elapsed, "lookups/s")
			b.ReportMetric(float64(joins)/elapsed, "joins/s")
		})
	}
}

// BenchmarkLookupBesideFill measures what a lookup pays beside a writer that
// adds peers, so that index tables are rebuilt under it. Each round starts a
// server at 100 000 peers; one writer joins new peers in batches of 32 until
// there are 400 000, every stripe's table rebuilt six or seven times on
// the way, while one reader looks up random residents, each lookup timed. It
// reports the lookups' median and 99th percentile over all rounds, lookups/s
// and the writer's joins/s. The package comment quotes its rows.
func BenchmarkLookupBesideFill(b *testing.B) {
	const resident, filled, batch = 100_000, 400_000, 32
	var lat []time.Duration
	var elapsed float64
	for round := 0; round < b.N; round++ {
		b.StopTimer()
		s, err := New(Config{Landmarks: residentLandmarks})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < resident; i++ {
			if _, err := s.JoinOp(residentJoin(i)); err != nil {
				b.Fatal(err)
			}
		}
		var done atomic.Bool
		go func() {
			defer done.Store(true)
			for i := resident; i < filled; i += batch {
				o := op.BatchJoin(nil, 0)
				for j := i; j < i+batch; j++ {
					o.Batch = append(o.Batch, residentJoin(j).Join)
				}
				for _, res := range s.JoinBatchOp(o) {
					if res.Err != nil {
						b.Error(res.Err)
						return
					}
				}
			}
		}()
		b.StartTimer()
		rng := rand.New(rand.NewSource(int64(round)))
		start := time.Now()
		for !done.Load() {
			p := pathtree.PeerID(1 + rng.Intn(resident)) // residentJoin numbers peers from 1
			t0 := time.Now()
			if _, err := s.Lookup(p); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		elapsed += time.Since(start).Seconds()
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2]), "lookup-p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100]), "lookup-p99-ns")
	b.ReportMetric(float64(len(lat))/elapsed, "lookups/s")
	b.ReportMetric(float64(b.N*(filled-resident))/elapsed, "joins/s")
}
