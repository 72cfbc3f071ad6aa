// Churn: demonstrate the faulty-peer handling the paper lists as future
// work. Peers join, half of them vanish silently (no Leave), and the
// management server's TTL-based expiry sweep cleans the stale state so
// newcomers stop being pointed at ghosts.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"time"

	"proxdisc"
)

func main() {
	// A virtual clock the example advances by hand, injected into the
	// server so expiry is deterministic.
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }

	sim, err := proxdisc.NewSimulation(proxdisc.SimulationConfig{
		Topology: proxdisc.TopologyConfig{
			CoreRouters:  500,
			LeafRouters:  500,
			EdgesPerNode: 2,
			Seed:         31,
		},
		NumLandmarks: 4,
		Seed:         31,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Replace the simulation's management plane with one that has a 30 s
	// TTL and the virtual clock.
	srv, err := proxdisc.NewCluster(proxdisc.ClusterConfig{
		Landmarks:     sim.Landmarks,
		NeighborCount: 5,
		PeerTTL:       30 * time.Second,
		Clock:         clock,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim.Server = srv

	if err := sim.JoinN(200); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joined %d peers\n", srv.NumPeers())

	// Half the population dies silently; the rest keeps heartbeating.
	ids := srv.Peers()
	dead := map[proxdisc.PeerID]bool{}
	for i, p := range ids {
		if i%2 == 0 {
			dead[p] = true // vanished: no Leave, no Refresh
		}
	}
	// 20 virtual seconds pass; survivors refresh.
	now = now.Add(20 * time.Second)
	for _, p := range ids {
		if !dead[p] {
			if err := srv.Refresh(p); err != nil {
				log.Fatal(err)
			}
		}
	}

	staleCount := func() int {
		stale := 0
		for _, p := range ids {
			if dead[p] {
				continue
			}
			answer, err := srv.Lookup(p)
			if err != nil {
				log.Fatal(err)
			}
			for _, c := range answer {
				if dead[c.Peer] {
					stale++
				}
			}
		}
		return stale
	}

	fmt.Printf("before expiry: server believes %d peers are alive; stale answers=%d\n",
		srv.NumPeers(), staleCount())

	// Another 15 virtual seconds: the dead peers are now 35 s silent,
	// beyond the 30 s TTL. Run the sweep.
	now = now.Add(15 * time.Second)
	expired := srv.Expire()
	fmt.Printf("expiry sweep removed %d silent peers\n", len(expired))
	fmt.Printf("after expiry: server tracks %d peers; stale answers=%d\n",
		srv.NumPeers(), staleCount())

	st := srv.Stats()
	fmt.Printf("\nserver counters: joins=%d expiries=%d queries=%d\n",
		st.Joins, st.Expiries, st.Queries)
}
