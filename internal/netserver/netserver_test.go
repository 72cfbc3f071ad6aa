package netserver

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"proxdisc/internal/client"
	"proxdisc/internal/cluster"
	"proxdisc/internal/proto"
	"proxdisc/internal/topology"
)

// newCluster builds the cluster a test fronts or follows into — 1 shard
// unless cfg says otherwise — and closes it when the test ends.
func newCluster(t testing.TB, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startServer spins up a management server with landmark router 0 (and
// optionally more) on loopback.
func startServer(t *testing.T, landmarks ...topology.NodeID) (*NetServer, map[topology.NodeID]string) {
	t.Helper()
	if len(landmarks) == 0 {
		landmarks = []topology.NodeID{0}
	}
	logic := newCluster(t, cluster.Config{Landmarks: landmarks})
	lmAddrs := make(map[topology.NodeID]string)
	for _, lm := range landmarks {
		resp, err := ListenLandmark("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Close() })
		lmAddrs[lm] = resp.Addr()
	}
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic, LandmarkAddrs: lmAddrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return ns, lmAddrs
}

func dial(t *testing.T, ns *NetServer) *client.Client {
	t.Helper()
	c, err := client.Dial(ns.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLandmarksEndpoint(t *testing.T) {
	ns, lmAddrs := startServer(t, 0, 7)
	c := dial(t, ns)
	lms, err := c.Landmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(lms.Routers) != 2 {
		t.Fatalf("landmarks=%v", lms.Routers)
	}
	for i, r := range lms.Routers {
		if lms.Addrs[i] != lmAddrs[topology.NodeID(r)] {
			t.Fatalf("landmark %d addr %q want %q", r, lms.Addrs[i], lmAddrs[topology.NodeID(r)])
		}
	}
}

func TestJoinLookupLeaveOverTCP(t *testing.T) {
	ns, _ := startServer(t)
	c := dial(t, ns)
	got, err := c.Join(1, "127.0.0.1:9001", []int32{10, 11, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("first joiner neighbours=%v", got)
	}
	got, err = c.Join(2, "127.0.0.1:9002", []int32{12, 11, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Peer != 1 || got[0].Addr != "127.0.0.1:9001" {
		t.Fatalf("second joiner neighbours=%+v", got)
	}
	look, err := c.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(look) != 1 || look[0].Peer != 2 || look[0].Addr != "127.0.0.1:9002" {
		t.Fatalf("lookup=%+v", look)
	}
	if err := c.Refresh(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(2); err != nil {
		t.Fatal(err)
	}
	look, err = c.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(look) != 0 {
		t.Fatalf("departed peer still answered: %+v", look)
	}
	var werr *proto.Error
	if _, err := c.Lookup(2); !errors.As(err, &werr) || werr.Code != proto.CodeUnknownPeer {
		t.Fatalf("departed peer lookup err=%v", err)
	}
}

func TestWireErrors(t *testing.T) {
	ns, _ := startServer(t)
	c := dial(t, ns)
	// Join with a path to an unregistered landmark.
	_, err := c.Join(1, "x", []int32{5, 99})
	var werr *proto.Error
	if !errors.As(err, &werr) || werr.Code != proto.CodeUnknownLandmark {
		t.Fatalf("err=%v", err)
	}
	// Lookup of an unknown peer.
	_, err = c.Lookup(42)
	if !errors.As(err, &werr) || werr.Code != proto.CodeUnknownPeer {
		t.Fatalf("err=%v", err)
	}
	// Refresh of an unknown peer.
	err = c.Refresh(42)
	if !errors.As(err, &werr) || werr.Code != proto.CodeUnknownPeer {
		t.Fatalf("err=%v", err)
	}
	// The connection must survive error responses.
	if _, err := c.Join(1, "x", []int32{5, 0}); err != nil {
		t.Fatalf("connection broken after errors: %v", err)
	}
}

// TestMalformedPathIsBadRequest: a join whose path repeats a router, holds
// an anonymous one or is empty is the client's fault, so it is answered
// CodeBadRequest, as a single join and as a batch entry, and registers
// nothing.
func TestMalformedPathIsBadRequest(t *testing.T) {
	ns, _ := startServer(t)
	c := dial(t, ns)
	for i, path := range [][]int32{{5, 5, 0}, {-1, 0}, {}} {
		peer := int64(10 + i)
		var werr *proto.Error
		if _, err := c.Join(peer, "x", path); !errors.As(err, &werr) || werr.Code != proto.CodeBadRequest {
			t.Fatalf("join with path %v: err=%v, want CodeBadRequest", path, err)
		}
		res, err := c.JoinBatch([]client.BatchItem{
			{Peer: 1, Addr: "a", Path: []int32{7, 0}},
			{Peer: peer, Addr: "x", Path: path},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err != nil {
			t.Fatalf("batch with path %v: good entry refused: %v", path, res[0].Err)
		}
		if !errors.As(res[1].Err, &werr) || werr.Code != proto.CodeBadRequest {
			t.Fatalf("batch entry with path %v: err=%v, want CodeBadRequest", path, res[1].Err)
		}
		if _, err := c.Lookup(peer); !errors.As(err, &werr) || werr.Code != proto.CodeUnknownPeer {
			t.Fatalf("peer %d with path %v registered: lookup err=%v", peer, path, err)
		}
	}
}

func TestUnknownMessageType(t *testing.T) {
	ns, _ := startServer(t)
	conn := rawV2(t, ns.Addr())
	if err := proto.WriteFrameID(conn, proto.MsgType(200), 9, nil); err != nil {
		t.Fatal(err)
	}
	typ, id, payload, err := proto.ReadFrameID(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != proto.MsgError || id != 9 {
		t.Fatalf("type=%d id=%d", typ, id)
	}
	werr, err := proto.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if werr.Code != proto.CodeBadRequest {
		t.Fatalf("code=%d", werr.Code)
	}
}

func TestProbeRTT(t *testing.T) {
	resp, err := ListenLandmark("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Close()
	rtt, err := client.ProbeRTT(resp.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Fatalf("rtt=%v", rtt)
	}
}

func TestProbeLandmarksOrdering(t *testing.T) {
	ns, _ := startServer(t, 0, 5)
	c := dial(t, ns)
	lms, err := c.Landmarks()
	if err != nil {
		t.Fatal(err)
	}
	measured := client.ProbeLandmarks(lms, 2, time.Second)
	if len(measured) != 2 {
		t.Fatalf("measured=%v", measured)
	}
	if measured[0].RTT > measured[1].RTT {
		t.Fatal("not sorted by RTT")
	}
}

func TestAgentJoin(t *testing.T) {
	ns, _ := startServer(t, 0)
	// Seed an existing peer so the agent gets an answer.
	seed := dial(t, ns)
	if _, err := seed.Join(100, "127.0.0.1:9100", []int32{20, 21, 0}); err != nil {
		t.Fatal(err)
	}
	c := dial(t, ns)
	agent := &client.Agent{
		Client: c,
		Provider: client.PathProviderFunc(func(lm int32) ([]int32, error) {
			return []int32{30, 21, lm}, nil
		}),
		OverlayAddr:  "127.0.0.1:9200",
		ProbeTries:   1,
		ProbeTimeout: time.Second,
	}
	cands, err := agent.Join(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Peer != 100 {
		t.Fatalf("agent answer=%+v", cands)
	}
}

func TestAgentJoinProviderFailure(t *testing.T) {
	ns, _ := startServer(t, 0)
	c := dial(t, ns)
	agent := &client.Agent{
		Client: c,
		Provider: client.PathProviderFunc(func(lm int32) ([]int32, error) {
			return nil, errors.New("traceroute unavailable")
		}),
		ProbeTries:   1,
		ProbeTimeout: time.Second,
	}
	if _, err := agent.Join(1); err == nil {
		t.Fatal("join succeeded without paths")
	}
}

func TestConcurrentClients(t *testing.T) {
	ns, _ := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(ns.Addr(), 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				p := int64(w*1000 + i)
				path := []int32{int32(1000 + p), int32(1 + i%10), 0}
				if _, err := c.Join(p, "127.0.0.1:1", path); err != nil {
					errs <- err
					return
				}
				if _, err := c.Lookup(p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// startNode spins up one node: a management server holding the given
// landmarks.
func startNode(t *testing.T, landmarks []topology.NodeID) (*NetServer, *cluster.Cluster) {
	t.Helper()
	logic := newCluster(t, cluster.Config{Landmarks: landmarks})
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return ns, logic
}

// rawRoundTrip sends one ID-framed request on a raw session (see rawV2)
// and reads its answer, which must echo the request's ID.
func rawRoundTrip(t *testing.T, conn net.Conn, typ proto.MsgType, payload []byte) (proto.MsgType, []byte) {
	t.Helper()
	if err := proto.WriteFrameID(conn, typ, 1, payload); err != nil {
		t.Fatal(err)
	}
	rtyp, id, resp, err := proto.ReadFrameID(conn)
	if err != nil || id != 1 {
		t.Fatalf("answer: typ=%v id=%d err=%v", rtyp, id, err)
	}
	return rtyp, resp
}

// TestRetiredForwardedTypesRefused pins what a node does with the two
// node-to-node forwarded join types, whose receivers are gone and whose
// numbers stay reserved: on a version-2 session a frame of either is answered
// CodeBadRequest and applies nothing, and the session goes on serving.
func TestRetiredForwardedTypesRefused(t *testing.T) {
	node, logic := startNode(t, []topology.NodeID{0})
	conn := rawV2(t, node.Addr())
	join, err := proto.AppendJoinRequest(nil, &proto.JoinRequest{Peer: 1, Addr: "a", Path: []int32{10, 0}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := proto.EncodeBatchJoinRequest(&proto.BatchJoinRequest{Joins: []proto.JoinRequest{{Peer: 2, Addr: "b", Path: []int32{20, 0}}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		typ     proto.MsgType
		payload []byte
	}{{proto.MsgForwardedJoinRequest, join}, {proto.MsgForwardedBatchJoinRequest, batch}} {
		typ, resp := rawRoundTrip(t, conn, tc.typ, tc.payload)
		if typ != proto.MsgError {
			t.Fatalf("type %d answered with type %v, want an error", tc.typ, typ)
		}
		if werr, err := proto.DecodeError(resp); err != nil || werr.Code != proto.CodeBadRequest {
			t.Fatalf("type %d: err=%v (%v), want CodeBadRequest", tc.typ, werr, err)
		}
		if n := logic.NumPeers(); n != 0 {
			t.Fatalf("type %d applied: %d peers", tc.typ, n)
		}
		if typ, _ := rawRoundTrip(t, conn, proto.MsgStatusRequest, nil); typ != proto.MsgStatusResponse {
			t.Fatalf("after type %d the session answered a status request with type %v", tc.typ, typ)
		}
	}
	if typ, _ := rawRoundTrip(t, conn, proto.MsgJoinRequest, join); typ != proto.MsgJoinResponse {
		t.Fatalf("a join after the refused frames answered with type %v", typ)
	}
}

func TestClusterBackend(t *testing.T) {
	logic, err := cluster.New(cluster.Config{
		Landmarks: []topology.NodeID{0, 100, 200, 300},
		Shards:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	c := dial(t, ns)
	// Joins to different landmarks land on different shards behind one
	// front end; answers and follow-up requests behave as with one server.
	if _, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(2, "127.0.0.1:9002", []int32{20, 100}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Join(3, "127.0.0.1:9003", []int32{11, 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Peer != 1 || got[0].Addr != "127.0.0.1:9001" {
		t.Fatalf("answer=%+v", got)
	}
	if _, err := c.Lookup(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Refresh(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(2); err != nil {
		t.Fatal(err)
	}
	if logic.NumPeers() != 2 {
		t.Fatalf("peers=%d", logic.NumPeers())
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	ns, _ := startServer(t)
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ns.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
}

func TestListenRejectsNilServer(t *testing.T) {
	if _, err := Listen(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("accepted nil server")
	}
}

func TestHelloNegotiation(t *testing.T) {
	ns, _ := startServer(t)
	c := dial(t, ns)
	if c.ServerMaxBatch() != proto.MaxBatch {
		t.Fatalf("server max batch=%d want %d", c.ServerMaxBatch(), proto.MaxBatch)
	}
}

// TestConcurrentPipelinedOneConnection drives 32 goroutines of mixed
// Join/Lookup traffic through ONE client over ONE TCP connection.
func TestConcurrentPipelinedOneConnection(t *testing.T) {
	ns, _ := startServer(t)
	c := dial(t, ns)
	const workers = 32
	const opsPer = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				p := int64(w*1000 + i)
				path := []int32{int32(1000 + p), int32(1 + i%10), 0}
				got, err := c.Join(p, "127.0.0.1:1", path)
				if err != nil {
					errs <- err
					return
				}
				for _, cand := range got {
					if cand.Peer == p {
						errs <- errors.New("peer returned as its own neighbour")
						return
					}
				}
				if _, err := c.Lookup(p); err != nil {
					errs <- err
					return
				}
				if err := c.Refresh(p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBatchJoinOverTCP(t *testing.T) {
	ns, _ := startServer(t)
	c := dial(t, ns)
	items := []client.BatchItem{
		{Peer: 1, Addr: "127.0.0.1:9001", Path: []int32{10, 5, 0}},
		{Peer: 2, Addr: "127.0.0.1:9002", Path: []int32{11, 5, 0}},
		{Peer: 3, Addr: "127.0.0.1:9003", Path: []int32{12, 99}}, // unknown landmark
		{Peer: 4, Addr: "127.0.0.1:9004", Path: []int32{10, 5, 0}},
	}
	res, err := c.JoinBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(items) {
		t.Fatalf("results=%d", len(res))
	}
	if res[0].Err != nil || res[1].Err != nil || res[3].Err != nil {
		t.Fatalf("good entries failed: %v %v %v", res[0].Err, res[1].Err, res[3].Err)
	}
	var werr *proto.Error
	if !errors.As(res[2].Err, &werr) || werr.Code != proto.CodeUnknownLandmark {
		t.Fatalf("entry 2 err=%v", res[2].Err)
	}
	// Within-batch ordering: entry 1 must see entry 0 as a neighbour with
	// its overlay address, and entry 3 both earlier ones.
	if len(res[1].Neighbors) != 1 || res[1].Neighbors[0].Peer != 1 || res[1].Neighbors[0].Addr != "127.0.0.1:9001" {
		t.Fatalf("entry 1 neighbours=%+v", res[1].Neighbors)
	}
	if len(res[3].Neighbors) != 2 {
		t.Fatalf("entry 3 neighbours=%+v", res[3].Neighbors)
	}
	// Batched peers are fully registered: follow-ups work.
	if _, err := c.Lookup(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(2); err != nil {
		t.Fatal(err)
	}
}

// TestBatchJoinSpillsOverServerLimit sends more joins than one frame may
// carry, spanning both of the server's landmarks, and checks the client
// chunks transparently.
func TestBatchJoinSpillsOverServerLimit(t *testing.T) {
	ns, _ := startServer(t, 0, 100)
	c := dial(t, ns)
	n := proto.MaxBatch + 5
	items := make([]client.BatchItem, n)
	for i := range items {
		items[i] = client.BatchItem{
			Peer: int64(i + 1),
			Addr: "127.0.0.1:1",
			Path: []int32{int32(1000 + i), 5, int32(100 * (i % 2))},
		}
	}
	res, err := c.JoinBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("entry %d: %v", i, r.Err)
		}
	}
	if _, err := c.Lookup(int64(n)); err != nil {
		t.Fatalf("last batched peer not registered: %v", err)
	}
}

// TestSlowConsumerDoesNotWedgePool opens a pipelined connection that
// floods pool-served requests without ever reading responses. The server
// must drop THAT connection once its response queue fills — and must keep
// serving other clients normally the whole time, proving one stalled
// reader cannot wedge the shared worker pool. (Requests served inline on
// the reader goroutine never reach the queue; TestInlineSlowReaderIsolated
// covers that road.)
func TestSlowConsumerDoesNotWedgePool(t *testing.T) {
	ns, _ := startServer(t)

	// Hand-rolled v2 session that never reads after the hello ack.
	conn := rawV2(t, ns.Addr())
	// Flood refreshes of an unknown peer (answered with an error by a pool
	// worker) and never read a single response. Once the kernel buffers
	// and the 256-frame response queue fill, the server must drop the
	// connection, which surfaces here as a write error.
	conn.SetWriteDeadline(time.Now().Add(20 * time.Second))
	refresh := proto.EncodeRefreshRequest(&proto.RefreshRequest{Peer: 404})
	dropped := false
	for i := 0; i < 500_000; i++ {
		if err := proto.WriteFrameID(conn, proto.MsgRefreshRequest, uint64(i+1), refresh); err != nil {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("server never dropped the non-reading connection")
	}

	// A healthy client on the same server must be unaffected.
	c := dial(t, ns)
	done := make(chan error, 1)
	go func() {
		_, err := c.Join(1, "127.0.0.1:9001", []int32{10, 0})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy client failed alongside slow consumer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy client blocked: pool wedged by slow consumer")
	}
}

// TestBatchLimitDeratedByNeighborCount pins the frame-budget math: a
// server configured with a large answer size must advertise a batch limit
// small enough that a full batch response always fits one frame — and
// client batches above it must chunk transparently and succeed.
func TestBatchLimitDeratedByNeighborCount(t *testing.T) {
	logic := newCluster(t, cluster.Config{Landmarks: []topology.NodeID{0}, NeighborCount: 64})
	ns, err := Listen(Config{Addr: "127.0.0.1:0", Server: logic})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	c := dial(t, ns)
	adv := c.ServerMaxBatch()
	if adv < 1 || adv >= proto.MaxBatch {
		t.Fatalf("advertised batch=%d, want derated below %d", adv, proto.MaxBatch)
	}
	// Worst-case response for the advertised batch must fit a frame.
	perCand := 8 + 4 + 2 + proto.MaxAddrLen
	if worst := adv * (6 + 64*perCand); worst+16 > proto.MaxFrameSize {
		t.Fatalf("advertised batch %d can still overflow: %d bytes", adv, worst)
	}
	// A populated server answering full 64-candidate lists per entry must
	// serve a 32-item client batch without frame overflow errors.
	items := make([]client.BatchItem, 100)
	for i := range items {
		items[i] = client.BatchItem{
			Peer: int64(i + 1),
			Addr: strings.Repeat("a", proto.MaxAddrLen), // worst-case addresses
			Path: []int32{int32(1000 + i), int32(1 + i%7), 0},
		}
	}
	res, err := c.JoinBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("entry %d: %v", i, r.Err)
		}
	}
	// Later entries receive full 64-candidate answers; none may error.
	if n := len(res[99].Neighbors); n != 64 {
		t.Fatalf("last entry got %d neighbours, want 64", n)
	}
}
