package netserver

import (
	"fmt"
	"testing"

	"proxdisc/internal/cluster"
	"proxdisc/internal/proto"
)

// BenchmarkBatchJoinRoad measures the server side of one batch join, layer
// by layer below the socket: a batch of new loadgen.TreePath peers goes
// through the request handler — decode, a 4-shard in-memory cluster
// prefilled to 50 000 peers, encode of the answer — and the response
// buffer goes back to the pool, as the connection's writer would return
// it. The requests are encoded before the timer starts. ns/op and allocs/op
// are per batch, at 8 entries and at proto.MaxBatch; allocs/op that do not
// grow with the entries are the road's pin (TestBatchRoadAllocs gates it).
// Every iteration adds its peers, so give it a fixed budget:
//
//	go test -run '^$' -bench BatchJoinRoad -benchtime 3000x -count 6 -cpu 1,2 ./internal/netserver
func BenchmarkBatchJoinRoad(b *testing.B) {
	const prefill = 50_000
	for _, n := range []int{8, proto.MaxBatch} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			clu, err := cluster.New(cluster.Config{Landmarks: benchLandmarks, Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer clu.Close()
			ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
			if err != nil {
				b.Fatal(err)
			}
			defer ns.Close()
			batch := func(first, n int) []byte {
				m := &proto.BatchJoinRequest{Joins: make([]proto.JoinRequest, n)}
				for i := range m.Joins {
					p := int64(first + i)
					m.Joins[i] = proto.JoinRequest{Peer: p, Addr: fmt.Sprintf("10.%d.%d.%d:7000", p>>16&255, p>>8&255, p&255), Path: benchPathFor(p)}
				}
				payload, err := proto.EncodeBatchJoinRequest(m)
				if err != nil {
					b.Fatal(err)
				}
				return payload
			}
			serve := func(payload []byte) {
				typ, resp := ns.handleReq(proto.MsgBatchJoinRequest, payload)
				if typ != proto.MsgBatchJoinResponse {
					b.Fatalf("batch answered with message type %v", typ)
				}
				proto.PutBuf(resp)
			}
			for p := 1; p <= prefill; p += proto.MaxBatch {
				serve(batch(p, proto.MaxBatch))
			}
			reqs := make([][]byte, b.N)
			for i := range reqs {
				reqs[i] = batch(prefill+1+i*n, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, payload := range reqs {
				serve(payload)
			}
		})
	}
}
