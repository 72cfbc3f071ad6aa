// Livestream: the paper's motivating workload. Bootstrap a mesh-based live
// streaming swarm twice — once with neighbours from the proxdisc management
// server, once with random neighbours — and compare network cost and
// delivery latency.
//
//	go run ./examples/livestream
package main

import (
	"fmt"
	"log"
	"math/rand"

	"proxdisc"
)

const (
	peers     = 400
	neighbors = 5
)

func main() {
	sim, err := proxdisc.NewSimulation(proxdisc.SimulationConfig{
		Topology: proxdisc.TopologyConfig{
			CoreRouters:  1500,
			LeafRouters:  1500,
			EdgesPerNode: 2,
			Seed:         11,
		},
		NumLandmarks:  8,
		NeighborCount: neighbors,
		Seed:          11,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.JoinN(peers); err != nil {
		log.Fatal(err)
	}
	ids := sim.Server.Peers()

	// Ground-truth hop distances between every pair of peers.
	hopRows := make(map[proxdisc.PeerID][]int32, len(ids))
	for _, p := range ids {
		row, err := proxdisc.HopDistances(sim, sim.Attachments[p])
		if err != nil {
			log.Fatal(err)
		}
		hopRows[p] = row
	}
	hops := func(a, b proxdisc.PeerID) (int, error) {
		return int(hopRows[a][sim.Attachments[b]]), nil
	}

	for _, variant := range []string{"proximity (proxdisc)", "random"} {
		mesh := proxdisc.NewOverlay()
		for _, p := range ids {
			if err := mesh.AddPeer(p); err != nil {
				log.Fatal(err)
			}
		}
		switch variant {
		case "proximity (proxdisc)":
			for _, p := range ids {
				answer, err := sim.Server.Lookup(p)
				if err != nil {
					log.Fatal(err)
				}
				for _, c := range answer {
					if err := mesh.Connect(p, c.Peer); err != nil {
						log.Fatal(err)
					}
				}
			}
		case "random":
			rng := rand.New(rand.NewSource(99))
			for _, p := range ids {
				for mesh.Degree(p) < neighbors {
					q := ids[rng.Intn(len(ids))]
					if q == p {
						continue
					}
					if err := mesh.Connect(p, q); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
		// Bridge disconnected islands to the source so the broadcast
		// reaches everyone (the tracker fallback real systems use).
		source := ids[0]
		inMain := map[proxdisc.PeerID]bool{}
		for _, p := range mesh.ConnectedComponentOf(source) {
			inMain[p] = true
		}
		for _, p := range ids {
			if !inMain[p] {
				for _, q := range mesh.ConnectedComponentOf(p) {
					inMain[q] = true
				}
				if err := mesh.Connect(source, p); err != nil {
					log.Fatal(err)
				}
			}
		}

		// Mean hop distance per overlay link: the traffic-locality win.
		totalHops, links := 0, 0
		for _, p := range mesh.Peers() {
			for _, q := range mesh.Neighbors(p) {
				if q > p {
					h, _ := hops(p, q)
					totalHops += h
					links++
				}
			}
		}

		sess, err := proxdisc.NewStreamSession(mesh, source, hops, proxdisc.StreamConfig{
			Chunks: 30,
			Seed:   3,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s links=%-5d mean-link-hops=%.2f  delivery mean=%.1fms p95=%.1fms  setup p95=%.0fms\n",
			variant, links, float64(totalHops)/float64(links),
			res.MeanDeliveryMS, res.P95DeliveryMS, res.P95SetupMS)
	}
	fmt.Println("\nproximity neighbours keep chunk exchanges local (fewer underlay hops")
	fmt.Println("per transfer), which is what makes quick closest-peer discovery matter")
	fmt.Println("for a newcomer's setup delay in live streaming.")
}
