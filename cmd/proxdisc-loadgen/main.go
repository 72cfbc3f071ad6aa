// Command proxdisc-loadgen measures join throughput against a running
// proxdisc management server.
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
	cfg, jsonOut, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Fatalf("proxdisc-loadgen: %v", err)
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatalf("proxdisc-loadgen: %v", err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatalf("proxdisc-loadgen: %v", err)
		}
		return
	}
	fmt.Println(res)
}

// parseArgs reads the command line into a run's config. It refuses a peer
// base below 1, which would index the landmark list below zero, and a
// landmark ID outside int32, which cut to 32 bits would send peers to
// another landmark.
func parseArgs(args []string) (cfg loadgen.Config, jsonOut bool, err error) {
	fs := flag.NewFlagSet("proxdisc-loadgen", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7470", "management server TCP address")
		landmarks = fs.String("landmarks", "0", "comma-separated landmark router IDs peers report paths to")
		joins     = fs.Int("joins", 10_000, "total joins to issue")
		clients   = fs.Int("clients", 1, "TCP connections")
		inflight  = fs.Int("inflight", 1, "outstanding requests per connection")
		batch     = fs.Int("batch", 1, "joins per request frame")
		peerBase  = fs.Int64("peer-base", 1, "first peer ID (space runs apart on a shared server)")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		asJSON    = fs.Bool("json", false, "emit the result as JSON")
	)
	fs.Parse(args) // ExitOnError: a bad flag has already exited with usage
	if *peerBase < 1 {
		return cfg, false, fmt.Errorf("-peer-base %d: peer IDs start at 1", *peerBase)
	}
	lms, err := parseLandmarks(*landmarks)
	if err != nil {
		return cfg, false, err
	}
	return loadgen.Config{
		Addr:     *addr,
		Clients:  *clients,
		InFlight: *inflight,
		Batch:    *batch,
		Joins:    *joins,
		PeerBase: *peerBase,
		Timeout:  *timeout,
		PathFor: func(peer int64) []int32 {
			return loadgen.TreePath(lms[peer%int64(len(lms))], int(peer))
		},
	}, *asJSON, nil
}

func parseLandmarks(s string) ([]int32, error) {
	var out []int32
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseInt(part, 10, 32)
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
