package cluster

import (
	"sort"

	"proxdisc/internal/topology"
)

// rebalanceMinGap is the peer-count spread between the fullest and
// emptiest shard below which Rebalance leaves the table alone, damping move
// churn around an already-even split.
const rebalanceMinGap = 2

// Rebalance runs one pass of the load-driven rebalancer: it measures every
// shard's registered-peer count, and while the spread between the fullest
// and emptiest shard exceeds rebalanceMinGap it hands one landmark
// at a time from the fullest shard to the emptiest via MoveLandmark — the
// fenced, durably-logged handoff, so a crash mid-rebalance recovers
// cleanly and no peer is lost. It returns the number of landmarks moved.
//
// The planner is greedy but conservative: a landmark is only moved when
// doing so strictly narrows the spread (it prefers the largest such
// landmark, emptying big shards fastest), and it stops as soon as no
// single move helps. An empty elastic shard therefore absorbs load until
// it pulls level with its neighbours, and an already-even cluster is left
// untouched.
//
// Rebalance is safe to call concurrently with reads and writes.
func (c *Cluster) Rebalance() (int, error) {
	moves := 0
	for {
		lm, dst, ok := c.planMove()
		if !ok {
			return moves, nil
		}
		if err := c.MoveLandmark(lm, dst); err != nil {
			return moves, err
		}
		moves++
	}
}

// planMove picks the next rebalancing handoff: a landmark on the
// fullest shard whose move to the emptiest shard strictly narrows the
// peer-count spread. ok is false when the cluster is balanced (spread
// within rebalanceMinGap) or no single move can help (e.g. the fullest shard holds
// one giant landmark).
func (c *Cluster) planMove() (lm topology.NodeID, dst int, ok bool) {
	type lmLoad struct {
		lm    topology.NodeID
		peers int
	}
	load := make([]int, len(c.shards))
	perShard := make([][]lmLoad, len(c.shards))
	c.mu.RLock()
	table := make(map[topology.NodeID]int, len(c.table))
	for l, s := range c.table {
		table[l] = s
	}
	c.mu.RUnlock()
	for l, s := range table {
		st := c.shards[s].srv.Stats()
		n := st.TreeStats[l].Peers
		load[s] += n
		perShard[s] = append(perShard[s], lmLoad{l, n})
	}
	fullest, emptiest := 0, 0
	for i, n := range load {
		if n > load[fullest] {
			fullest = i
		}
		if n < load[emptiest] {
			emptiest = i
		}
	}
	gap := load[fullest] - load[emptiest]
	if fullest == emptiest || gap <= rebalanceMinGap {
		return 0, 0, false
	}
	// Largest landmark that still fits: moving n peers changes the spread
	// by 2n, so any n < gap narrows it. Never move the fullest shard's
	// only landmark onto an equally-loaded shard — the planner must
	// strictly improve or stop, or the loop would ping-pong forever.
	cands := perShard[fullest]
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].peers != cands[j].peers {
			return cands[i].peers > cands[j].peers
		}
		return cands[i].lm < cands[j].lm
	})
	for _, cand := range cands {
		if cand.peers < gap {
			return cand.lm, emptiest, true
		}
	}
	return 0, 0, false
}
