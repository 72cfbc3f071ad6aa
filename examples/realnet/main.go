// Realnet: run the deployable system end to end on loopback — a TCP
// management server, UDP landmark probe responders, and peer agents that
// probe landmarks, "traceroute" (via a simulated provider), and join.
//
//	go run ./examples/realnet
package main

import (
	"fmt"
	"log"
	"time"

	"proxdisc"
)

func main() {
	// The router paths come from a simulated topology: in a production
	// deployment the PathProvider would invoke the system traceroute tool
	// instead. Everything else below is the real networked stack.
	sim, err := proxdisc.NewSimulation(proxdisc.SimulationConfig{
		Topology: proxdisc.TopologyConfig{
			CoreRouters:  600,
			LeafRouters:  600,
			EdgesPerNode: 2,
			Seed:         21,
		},
		NumLandmarks: 4,
		Seed:         21,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Management-server logic with the simulation's landmark routers.
	logic, err := proxdisc.NewCluster(proxdisc.ClusterConfig{
		Landmarks:     sim.Landmarks,
		NeighborCount: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One UDP probe responder per landmark.
	lmAddrs := make(map[proxdisc.RouterID]string, len(sim.Landmarks))
	for _, lm := range sim.Landmarks {
		resp, err := proxdisc.ListenLandmark("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Close()
		lmAddrs[lm] = resp.Addr()
		fmt.Printf("landmark %-5d probe responder at %s\n", lm, resp.Addr())
	}

	// TCP front end.
	ns, err := proxdisc.ListenAndServe(proxdisc.NetServerConfig{
		Addr:          "127.0.0.1:0",
		Server:        logic,
		LandmarkAddrs: lmAddrs,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ns.Close()
	fmt.Printf("management server at %s\n\n", ns.Addr())

	// Twenty peers join over real TCP/UDP, each with its own connection
	// and a path provider backed by the simulated traceroute tool.
	for i := 0; i < 20; i++ {
		peerID := int64(i + 1)
		att := sim.LeafPool[i]
		c, err := proxdisc.Dial(ns.Addr(), 5*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		agent := &proxdisc.Agent{
			Client: c,
			Provider: proxdisc.PathProviderFunc(func(landmark int32) ([]int32, error) {
				res, err := sim.Tracer.Trace(att, proxdisc.RouterID(landmark), proxdisc.TraceConfig{}, nil)
				if err != nil {
					return nil, err
				}
				known := res.KnownRouterPath()
				out := make([]int32, len(known))
				for j, r := range known {
					out[j] = int32(r)
				}
				return out, nil
			}),
			OverlayAddr:  fmt.Sprintf("127.0.0.1:%d", 9000+i),
			ProbeTries:   2,
			ProbeTimeout: time.Second,
		}
		answer, err := agent.Join(peerID)
		if err != nil {
			log.Fatal(err)
		}
		if len(answer) > 0 {
			fmt.Printf("peer %-3d joined from router %-5d → closest: ", peerID, att)
			for _, cand := range answer {
				fmt.Printf("%d(dtree=%d, %s) ", cand.Peer, cand.DTree, cand.Addr)
			}
			fmt.Println()
		} else {
			fmt.Printf("peer %-3d joined from router %-5d → first in its vicinity\n", peerID, att)
		}
		c.Close()
	}

	st := logic.Stats()
	fmt.Printf("\nserver stats: peers=%d joins=%d queries=%d\n", st.Peers, st.Joins, st.Queries)
}
