// Command proxdisc-loadgen measures join throughput against a running
// proxdisc management server — the tool behind the pipelining benchmarks
// and the benchmark-regression CI job.
//
// Usage:
//
//	proxdisc-server -landmarks 0,100 &
//	proxdisc-loadgen -addr 127.0.0.1:7470 -landmarks 0,100 -joins 50000 \
//	    -clients 4 -inflight 16 -batch 8
//
// Peers report synthetic routing-tree paths ending at the given landmarks
// (round-robin). -inflight 1 keeps one request outstanding per connection,
// so comparing it with a deeper window quantifies the pipelining speedup on
// real hardware.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"proxdisc/internal/loadgen"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7470", "management server TCP address")
		landmarks = flag.String("landmarks", "0", "comma-separated landmark router IDs peers report paths to")
		joins     = flag.Int("joins", 10_000, "total joins to issue")
		clients   = flag.Int("clients", 1, "TCP connections")
		inflight  = flag.Int("inflight", 1, "outstanding requests per connection")
		batch     = flag.Int("batch", 1, "joins per request frame")
		peerBase  = flag.Int64("peer-base", 1, "first peer ID (space runs apart on a shared server)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON")
	)
	flag.Parse()

	lms, err := parseLandmarks(*landmarks)
	if err != nil {
		log.Fatalf("proxdisc-loadgen: %v", err)
	}
	res, err := loadgen.Run(loadgen.Config{
		Addr:     *addr,
		Clients:  *clients,
		InFlight: *inflight,
		Batch:    *batch,
		Joins:    *joins,
		PeerBase: *peerBase,
		Timeout:  *timeout,
		PathFor: func(peer int64) []int32 {
			lm := lms[int(peer)%len(lms)]
			return loadgen.TreePath(lm, int(peer))
		},
	})
	if err != nil {
		log.Fatalf("proxdisc-loadgen: %v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatalf("proxdisc-loadgen: %v", err)
		}
		return
	}
	fmt.Println(res)
}

func parseLandmarks(s string) ([]int32, error) {
	var out []int32
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad landmark %q: %w", part, err)
		}
		out = append(out, int32(id))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no landmarks in %q", s)
	}
	return out, nil
}
