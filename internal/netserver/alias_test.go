package netserver

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/topology"
)

// scribble overwrites the pooled memory of the write and read roads as the
// calls after a batch join would: every frame buffer (a committed op is
// encoded into one too), decoded batch op and answer block the pools hold
// is taken, filled with garbage and put back.
func scribble() {
	const each = 64 // more than the road ever holds at once
	var bufs [][]byte
	var ops []*proto.BatchJoinOp
	var blocks []*pathtree.Answers
	for range each {
		b := proto.GetBuf(0)
		bufs = append(bufs, b)
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0x5A
		}
		m := batchOps.Get().(*proto.BatchJoinOp)
		ops = append(ops, m)
		for _, e := range m.Op.Batch[:cap(m.Op.Batch)] {
			for i := range e.Path {
				e.Path[i] = -1
			}
		}
		a := pathtree.GetAnswers()
		blocks = append(blocks, a)
		addrs := a.Addrs[:cap(a.Addrs)]
		for i := range addrs {
			addrs[i] = 'Z'
		}
		cands := a.Cands[:cap(a.Cands)]
		for i := range cands {
			cands[i] = pathtree.AnswerCand{Peer: -1, DTree: -1}
		}
	}
	for i := range each {
		proto.PutBuf(bufs[i])
		batchOps.Put(ops[i])
		blocks[i].Release()
	}
}

// TestPooledMemoryAliasesNothing holds the batch road to its pools'
// contract: nothing the node keeps, and no answer it hands out, aliases the
// pooled memory a call used. A batch join over the wire takes every pool of
// the road — frame buffers, the decoded op's entries and hops, the shard
// grouping, the answer block, the op encode buffer — and once it has
// returned, every pooled buffer is overwritten. The lookups' addresses
// read before, PeerInfo, the subscriber's pushed answer and the state
// recovered from the data directory must all read as they did.
func TestPooledMemoryAliasesNothing(t *testing.T) {
	// A sync.Pool keeps an item per P that only goroutines on that P reach:
	// on one P, scribble reaches everything the node's goroutines pooled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := cluster.Config{Landmarks: []topology.NodeID{0, 100}, Shards: 2, DataDir: t.TempDir(), NoSync: true}
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: clu})
	if err != nil {
		clu.Close()
		t.Fatal(err)
	}
	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const subject = int64(1)
	addrOf := func(p int64) string { return fmt.Sprintf("10.0.%d.%d:7000", p/200, p%200) }
	if _, err := c.Join(subject, addrOf(subject), churnPath(1)); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(context.Background(), client.KClosest(subject))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	go func() {
		for range sub.Events() {
		}
	}()
	var items []client.BatchItem
	for p := int64(2); p <= 25; p++ {
		path := churnPath(int(p))
		if p%3 == 0 { // a third of the batch goes to the other shard
			path = []int32{int32(20000 + p), int32(110 + p%4), 100}
		}
		items = append(items, client.BatchItem{Peer: p, Addr: addrOf(p), Path: path})
	}
	res, err := c.JoinBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("entry %d: %v", i, res[i].Err)
		}
	}
	waitCacheCoherent(t, ns, c, subject)

	peers := []int64{subject}
	for _, it := range items {
		peers = append(peers, it.Peer)
	}
	// Each answer as handed out, and as printed then: a later call cannot
	// change what was printed, whatever the answer's strings alias.
	lookups := make(map[int64][]pathtree.Candidate)
	printed := make(map[int64]string)
	infos := make(map[int64]server.PeerInfo)
	for _, p := range peers {
		if lookups[p], err = clu.Lookup(pathtree.PeerID(p)); err != nil {
			t.Fatal(err)
		}
		printed[p] = fmt.Sprint(lookups[p])
		if infos[p], err = clu.PeerInfo(pathtree.PeerID(p)); err != nil {
			t.Fatal(err)
		}
	}
	pushed, ok := cachedAnswer(ns, c, subject)
	if !ok {
		t.Fatal("the subscription's cache did not serve the subject's answer")
	}
	pushedBefore := fmt.Sprint(pushed)

	scribble()

	// What was handed out reads as it did, before anything is asked again.
	for _, p := range peers {
		if got := fmt.Sprint(lookups[p]); got != printed[p] {
			t.Errorf("peer %d's lookup answer changed from %s to %s", p, printed[p], got)
		}
	}
	// Every answer given now is the one given before the scribble, and every
	// address in it the one its peer registered.
	check := func(when string, clu *cluster.Cluster) {
		t.Helper()
		for _, p := range peers {
			got, err := clu.Lookup(pathtree.PeerID(p))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != printed[p] {
				t.Errorf("%s: peer %d's lookup answers %v, before the scribble %s", when, p, got, printed[p])
			}
			for _, cand := range got {
				if want := addrOf(int64(cand.Peer)); cand.Addr != want {
					t.Errorf("%s: peer %d's answer names %d at %q, want %q", when, p, cand.Peer, cand.Addr, want)
				}
			}
			info, err := clu.PeerInfo(pathtree.PeerID(p))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(info, infos[p]) || info.Addr != addrOf(p) {
				t.Errorf("%s: peer %d's PeerInfo reads %+v, before the scribble %+v", when, p, info, infos[p])
			}
		}
	}
	check("after the scribble", clu)
	if got := fmt.Sprint(pushed); got != pushedBefore {
		t.Errorf("the pushed answer changed from %s to %s", pushedBefore, got)
	}
	for _, cand := range pushed {
		if want := addrOf(cand.Peer); cand.Addr != want {
			t.Errorf("the pushed answer names %d at %q, want %q", cand.Peer, cand.Addr, want)
		}
	}
	if again, ok := cachedAnswer(ns, c, subject); !ok || fmt.Sprint(again) != pushedBefore {
		t.Errorf("the subscription's cache serves %v (from the cache: %v), before the scribble %s", again, ok, pushedBefore)
	}

	sub.Close()
	c.Close()
	ns.Close()
	if err := clu.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	check("recovered", recovered)
}
