package loadgen

import (
	"testing"
	"time"

	"proxdisc/internal/cluster"
	"proxdisc/internal/netserver"
	"proxdisc/internal/topology"
)

func startServer(t *testing.T) *netserver.NetServer {
	t.Helper()
	logic, err := cluster.New(cluster.Config{Landmarks: []topology.NodeID{0, 100}})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := netserver.Listen(netserver.Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return ns
}

func pathFor(peer int64) []int32 {
	lm := int32(0)
	if peer%2 == 1 {
		lm = 100
	}
	return TreePath(lm, int(peer))
}

func TestRunAllModes(t *testing.T) {
	ns := startServer(t)
	base := int64(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{Clients: 2, InFlight: 1, Batch: 1}},
		{"pipelined", Config{Clients: 2, InFlight: 8, Batch: 1}},
		{"batched", Config{Clients: 1, InFlight: 2, Batch: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Addr = ns.Addr()
			cfg.Joins = 200
			cfg.PeerBase = base
			cfg.PathFor = pathFor
			cfg.Timeout = 5 * time.Second
			base += int64(cfg.Joins)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Joins != 200 || res.Errors != 0 {
				t.Fatalf("joins=%d errors=%d: %v", res.Joins, res.Errors, res)
			}
			if res.JoinsPerSec <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
				t.Fatalf("implausible stats: %v", res)
			}
			wantReqs := 200 / max(tc.cfg.Batch, 1)
			if tc.cfg.Batch > 1 && res.Requests != wantReqs {
				t.Fatalf("requests=%d want %d", res.Requests, wantReqs)
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Addr: "127.0.0.1:1", PathFor: pathFor}); err == nil {
		t.Fatal("zero joins accepted")
	}
	if _, err := Run(Config{Addr: "127.0.0.1:1", PathFor: pathFor, Joins: 1, Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestTreePathShape(t *testing.T) {
	p := TreePath(100, 12345)
	if p[len(p)-1] != 100 {
		t.Fatalf("path does not end at landmark: %v", p)
	}
	if len(p) < 2 || len(p) > 64 {
		t.Fatalf("odd path length %d", len(p))
	}
	base := int32(1_000_000 * 101)
	for _, r := range p[:len(p)-1] {
		if r <= base {
			t.Fatalf("router %d outside landmark block", r)
		}
	}
}
