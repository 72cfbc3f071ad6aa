// Subscribe: cache-backed k-closest tracking over the push read plane.
//
// The livestream example rebuilds each peer's neighbour set by calling
// Lookup — the pull road. A peer that wants to *keep* its neighbour set
// fresh would have to poll that road on a timer, paying a full answer per
// tick whether or not anything changed. This example replaces the polling
// loop with one live subscription: the server pushes a delta only when a
// committed op actually changes the answer, and CachedLookup serves reads
// from the subscription's local cache without touching the wire.
//
//	go run ./examples/subscribe
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"proxdisc"
)

func main() {
	// Subscriptions are fed from the committed op stream, so the node
	// must be durable (a WAL is what gives the stream its sequence).
	dir, err := os.MkdirTemp("", "proxdisc-subscribe-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	clu, err := proxdisc.NewCluster(proxdisc.ClusterConfig{
		Landmarks: []proxdisc.RouterID{0, 100},
		Shards:    1,
		DataDir:   dir,
		NoSync:    true, // demo node; durability is not the point here
	})
	if err != nil {
		log.Fatal(err)
	}
	defer clu.Close()

	ns, err := proxdisc.ListenAndServe(proxdisc.NetServerConfig{
		Addr:   "127.0.0.1:0",
		Server: clu,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ns.Close()
	fmt.Printf("management server at %s\n\n", ns.Addr())

	c, err := proxdisc.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// A small population under the landmark-0 tree. Peer 1 is the
	// subject whose neighbourhood we track.
	path := func(leaf, agg int32) []int32 { return []int32{leaf, agg, 0} }
	const subject = int64(1)
	if _, err := c.Join(subject, "peer-1:7000", path(1000, 10)); err != nil {
		log.Fatal(err)
	}
	for i := int64(2); i <= 6; i++ {
		if _, err := c.Join(i, fmt.Sprintf("peer-%d:7000", i), path(1000+int32(i), 10+int32(i)%2)); err != nil {
			log.Fatal(err)
		}
	}

	// One subscription replaces the polling loop. The ack carries the
	// full current answer, so the cache is useful immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := c.Subscribe(ctx, proxdisc.KClosestQuery(proxdisc.PeerID(subject)))
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	kind := map[uint8]string{
		proxdisc.EventEnter:  "enter",
		proxdisc.EventLeave:  "leave",
		proxdisc.EventUpdate: "update",
		proxdisc.EventResync: "resync",
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			if ev.Kind == proxdisc.EventResync {
				fmt.Printf("  event seq=%-3d resync (%d neighbours)\n", ev.Seq, len(ev.Neighbors))
				continue
			}
			fmt.Printf("  event seq=%-3d %-6s peer=%d dtree=%d\n", ev.Seq, kind[ev.Kind], ev.Cand.Peer, ev.Cand.DTree)
		}
	}()

	show := func(when string) {
		// CachedLookup answers from the live cache: no request frame,
		// no response frame, no server work.
		answer, err := c.CachedLookup(ctx, subject)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — k-closest of peer %d (served from cache):\n", when, subject)
		for _, cand := range answer {
			fmt.Printf("  peer %-3d dtree=%d addr=%s\n", cand.Peer, cand.DTree, cand.Addr)
		}
		fmt.Println()
	}

	settle := func() { time.Sleep(100 * time.Millisecond) } // demo pacing; deltas are pushed, not polled
	settle()
	show("after join")

	// Churn: a closer peer arrives, an existing neighbour departs. Each
	// committed op that changes the answer arrives as one pushed delta —
	// a poller would have paid two full lookups per peer per tick to
	// notice the same two changes.
	fmt.Println("peer 7 joins on the subject's own leaf router (closer than everyone):")
	if _, err := c.Join(7, "peer-7:7000", path(1000, 10)); err != nil {
		log.Fatal(err)
	}
	settle()
	show("after enter")

	fmt.Println("peer 2 leaves:")
	if err := c.Leave(2); err != nil {
		log.Fatal(err)
	}
	settle()
	show("after leave")

	sub.Close()
	<-done
	fmt.Println("the pull road still works — Lookup answers the same bytes the")
	fmt.Println("cache held, because both roads resolve through the same server path.")
}
