package netserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/sub"
	"proxdisc/internal/topology"
)

// These tests pin where a subscription lives: on the client's session to
// the primary, beside its calls, with no connection of its own.

// subHeartbeat mirrors the client's subscription heartbeat period.
const subHeartbeat = 2 * time.Second

// durableNode starts a one-shard durable node, whose op stream feeds
// subscriptions, fronted by a NetServer configured by cfg.
func durableNode(t *testing.T, cfg Config) *NetServer {
	t.Helper()
	clu, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100},
		Shards:    1,
		DataDir:   t.TempDir(),
		NoSync:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr, cfg.Server = "127.0.0.1:0", clu
	ns, err := Listen(cfg)
	if err != nil {
		clu.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ns.Close()
		clu.Close()
	})
	return ns
}

// numConns reports how many connections the server holds.
func numConns(ns *NetServer) int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.conns)
}

// theSubscriber returns the one subscription ns serves.
func theSubscriber(t *testing.T, ns *NetServer) *sub.Subscriber {
	t.Helper()
	ns.subMu.Lock()
	defer ns.subMu.Unlock()
	var subs []*sub.Subscriber
	for _, byID := range ns.subsByConn {
		for _, sb := range byID {
			subs = append(subs, sb)
		}
	}
	if len(subs) != 1 {
		t.Fatalf("the server serves %d subscriptions, want 1", len(subs))
	}
	return subs[0]
}

// TestSubscriptionsShareTheSession: one client opens 200 k-closest
// subscriptions while lookups run beside them. The server holds one
// connection, every cache converges, and each subscription costs the
// process at most two goroutines: the client's and the server's sender.
func TestSubscriptionsShareTheSession(t *testing.T) {
	ns := durableNode(t, Config{})
	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const subs = 200
	for i := 1; i <= subs; i++ {
		if _, err := c.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()

	stop := make(chan struct{})
	lookups := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				lookups <- nil
				return
			default:
			}
			if _, err := c.Lookup(int64(i%subs + 1)); err != nil {
				lookups <- err
				return
			}
		}
	}()
	ss := make([]*client.Subscription, 0, subs)
	for i := 1; i <= subs && err == nil; i++ {
		var s *client.Subscription
		if s, err = c.Subscribe(context.Background(), client.KClosest(int64(i))); err == nil {
			ss = append(ss, s)
			defer s.Close()
		}
	}
	close(stop)
	if lerr := <-lookups; lerr != nil {
		t.Fatalf("lookup beside the subscriptions: %v", lerr)
	}
	if err != nil {
		t.Fatalf("subscription %d: %v", len(ss)+1, err)
	}
	// Churn, so events flow on the shared session too.
	for i := subs + 1; i <= subs+20; i++ {
		if _, err := c.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ss {
		waitCacheCoherent(t, ns, c, int64(i+1))
	}
	if n := numConns(ns); n != 1 {
		t.Fatalf("the server holds %d connections for one client, want 1", n)
	}
	rise := runtime.NumGoroutine() - before
	for deadline := time.Now().Add(2 * time.Second); rise > 2*subs && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		rise = runtime.NumGoroutine() - before
	}
	if rise > 2*subs {
		t.Fatalf("%d subscriptions added %d goroutines, want at most %d", subs, rise, 2*subs)
	}
	t.Logf("%d subscriptions added %d goroutines", subs, rise)
}

// TestSubscriptionCloseUnsubscribes: Close frees the server's subscription
// before it returns, and the session it rode stays up for other requests.
func TestSubscriptionCloseUnsubscribes(t *testing.T) {
	ns := durableNode(t, Config{})
	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Join(1, "peer-1:7000", churnPath(1)); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(context.Background(), client.KClosest(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ns.plane.Active() {
		t.Fatal("no subscription registered at the server")
	}
	sub.Close()
	if ns.plane.Active() {
		t.Fatal("the server still holds the subscription after Close")
	}
	if !errors.Is(sub.Err(), net.ErrClosed) {
		t.Fatalf("Err after Close = %v, want net.ErrClosed", sub.Err())
	}
	if _, err := c.Lookup(1); err != nil {
		t.Fatalf("lookup on the session after Close: %v", err)
	}
	if n := numConns(ns); n != 1 {
		t.Fatalf("the server holds %d connections, want the one session", n)
	}
}

// TestIdleSubscriptionKeepsItsSession: a subscription's heartbeat keeps
// its session inside the server's idle deadline, so a client that sits
// idle for twice that deadline neither redials nor resubscribes, and a
// later join still reaches the cache.
func TestIdleSubscriptionKeepsItsSession(t *testing.T) {
	ns := durableNode(t, Config{ReadTimeout: subHeartbeat * 3 / 2})
	c, err := client.DialConfig(ns.Addr(), client.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const subject = int64(1)
	for i := 1; i <= 3; i++ {
		if _, err := c.Join(int64(i), fmt.Sprintf("peer-%d:7000", i), churnPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := c.Subscribe(context.Background(), client.KClosest(subject))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitCacheCoherent(t, ns, c, subject)
	first := theSubscriber(t, ns)

	time.Sleep(3 * subHeartbeat)
	if _, err := c.Join(4, "peer-4:7000", churnPath(4)); err != nil {
		t.Fatal(err)
	}
	waitCacheCoherent(t, ns, c, subject)
	if cache, _ := cachedAnswer(ns, c, subject); len(cache) != 3 {
		t.Fatalf("cache %v, want the subject's three neighbours, peer 4 among them", cache)
	}
	// A session that died under the subscription would have made it
	// subscribe again, and the server would serve another subscription.
	if theSubscriber(t, ns) != first || sub.Err() != nil {
		t.Fatalf("after idling: the subscription was served anew, or ended with %v", sub.Err())
	}
}
