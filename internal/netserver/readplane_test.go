package netserver

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/telemetry"
)

// TestSubscribeCheaperThanPolling is the read plane's reason to exist: 100
// clients track their k-closest sets through 60 churn ticks, once by one
// Lookup per client per tick and once through one live subscription each,
// and the subscriptions must cost the primary at least 5× fewer wire bytes
// and 5× fewer served operations.
func TestSubscribeCheaperThanPolling(t *testing.T) {
	pollBytes, pollOps := trackThroughChurn(t, false)
	subBytes, subOps := trackThroughChurn(t, true)
	t.Logf("polling: %d B, %d ops; subscribing: %d B, %d ops", pollBytes, pollOps, subBytes, subOps)
	if pollBytes < 5*subBytes || pollOps < 5*subOps {
		t.Fatalf("subscriptions must be at least 5x cheaper: bytes %d vs %d (%.1fx), ops %d vs %d (%.1fx)",
			pollBytes, subBytes, float64(pollBytes)/float64(subBytes), pollOps, subOps, float64(pollOps)/float64(subOps))
	}
}

// trackThroughChurn runs the scenario once. It returns the wire bytes the
// tracking clients exchanged with the primary, counted by a relay in front
// of it, and the operations the primary served them: requests plus
// subscription events. The churn and the convergence checks go over a
// direct connection and are taken off the count.
func trackThroughChurn(t *testing.T, subscribe bool) (wireBytes, ops uint64) {
	t.Helper()
	const clients, ticks = 100, 60
	reg := telemetry.NewRegistry()
	ns := durableNode(t, Config{Telemetry: reg})
	direct := dial(t, ns)
	leaf := func(i int) []int32 { return []int32{int32(2000 + i), int32(10 + i%10), 0} }
	for i := 1; i <= clients; i++ {
		if _, err := direct.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), leaf(i)); err != nil {
			t.Fatal(err)
		}
	}
	relayAddr, relayed := countingRelay(t, ns.Addr())
	cs := make([]*client.Client, clients)
	for i := range cs {
		c, err := client.Dial(relayAddr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}

	baseBytes, baseOps := relayed.Load(), servedOps(reg)
	var directOps uint64
	var subs []*client.Subscription
	if subscribe {
		for i, c := range cs {
			s, err := c.Subscribe(context.Background(), client.KClosest(int64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			subs = append(subs, s)
		}
	}
	for tick := 0; tick < ticks; tick++ {
		// One committed change per tick: a transient peer lands on some
		// subject's own leaf router, entering that subject's answer, and the
		// previous one leaves.
		if tick > 0 {
			if err := direct.Leave(int64(5000 + tick - 1)); err != nil {
				t.Fatal(err)
			}
			directOps++
		}
		if _, err := direct.Join(int64(5000+tick), fmt.Sprintf("churn-%d:7000", tick), leaf(tick*7%clients+1)); err != nil {
			t.Fatal(err)
		}
		directOps++
		if !subscribe {
			for i, c := range cs {
				if _, err := c.Lookup(int64(i + 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := range subs {
		// Every cache converges to a fresh lookup over the direct connection.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			fresh, err := direct.Lookup(int64(i + 1))
			if err != nil {
				t.Fatal(err)
			}
			directOps++
			if cache, ok := cachedAnswer(ns, cs[i], int64(i+1)); ok && candidatesEqual(cache, fresh) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("subscription %d never converged", i+1)
			}
		}
	}
	return relayed.Load() - baseBytes, servedOps(reg) - baseOps - directOps
}

// servedOps sums what the primary did for its clients: every request it
// served, on either road, plus every subscription event it pushed.
func servedOps(reg *telemetry.Registry) uint64 {
	return reg.Counter(`proxdisc_requests_by_road_total{road="pool"}`).Value() +
		reg.Counter(`proxdisc_requests_by_road_total{road="inline"}`).Value() +
		reg.Counter("proxdisc_sub_events_total").Value()
}

// countingRelay listens on a fresh port and relays every connection to
// target, counting the bytes it carries in both directions.
func countingRelay(t *testing.T, target string) (string, *atomic.Uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Uint64
	relay := func(dst, src net.Conn) {
		defer dst.Close()
		defer src.Close()
		buf := make([]byte, 32<<10)
		for {
			k, err := src.Read(buf)
			n.Add(uint64(k))
			if k > 0 {
				if _, werr := dst.Write(buf[:k]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			go relay(s, c)
			go relay(c, s)
		}
	}()
	return ln.Addr().String(), &n
}
