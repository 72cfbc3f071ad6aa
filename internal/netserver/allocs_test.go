package netserver

import (
	"fmt"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/topology"
)

// TestLookupRoadAllocs pins what one lookup allocates end to end, both sides
// counted: a client Lookup over loopback against a NetServer fronting a
// cluster. Four allocations are left, two per side: the backend's answer
// slice and the one string its addresses are copied into, then the client's
// decoded slice and the one string it copies them into. The budget of 6
// leaves room for a stray allocation of the runtime's, not for a copy of
// the answer.
func TestLookupRoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	clu, err := cluster.New(cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 40; i++ {
		if _, err := c.Join(int64(i), fmt.Sprintf("10.0.%d.%d:7000", i/8, i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if cands, err := c.Lookup(3); err != nil || len(cands) == 0 {
			t.Fatalf("lookup: %v, %v", cands, err)
		}
	})
	t.Logf("%.2f allocations per lookup, client and server together", allocs)
	if allocs > 6 {
		t.Errorf("%.2f allocations per lookup, want ≤ 6", allocs)
	}
}
