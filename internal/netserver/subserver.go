package netserver

import (
	"errors"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/proto"
	"proxdisc/internal/server"
	"proxdisc/internal/sub"
	"proxdisc/internal/topology"
)

// This file serves the push-based read plane: MsgSubscribeRequest
// registers a live query with the server's sub.Plane, a dedicated sender
// goroutine per subscription drains its bounded queue onto the
// connection's multiplexed writer, and MsgUnsubscribe (or the connection
// dying) tears it down.
//
// The plane's feed depends on the node's role. A durable primary feeds it
// from the commit tap (shared with the follow hub — see commitTap). A
// replica feeds it from its Follower's applied stream
// (Config.Replication), so subscriptions scale out with the replication
// tree. A non-durable primary has no op stream at all and answers
// CodeBadRequest.

// commitTap is the single consumer of the backend's commit stream,
// fanning each committed record out to the follow hub and the
// subscription plane. Called under the WAL's append lock in sequence
// order; it copies the record once (both consumers only read) and only
// when someone is listening, so an idle node's commit path stays
// copy-free.
func (s *NetServer) commitTap(seq uint64, rec []byte) {
	wantHub := s.hub != nil && s.hub.numFollowers() > 0
	wantSub := s.plane != nil && s.plane.Active()
	if !wantHub && !wantSub {
		if s.plane != nil {
			s.plane.FeedRecord(seq, nil) // keep the covering-seq watermark fresh
		}
		return
	}
	data := append([]byte(nil), rec...)
	if wantHub {
		s.hub.offerAll(seq, data)
	}
	if s.plane != nil {
		s.plane.FeedRecord(seq, data)
	}
}

// serveSubscribe answers a MsgSubscribeRequest: register the filter,
// ack with the covering sequence and initial snapshot, and hand the
// subscription to a dedicated sender.
func (s *NetServer) serveSubscribe(wc *wireConn, id uint64, payload []byte) {
	req, err := proto.DecodeSubscribeRequest(payload)
	if err != nil {
		t, resp := errResp(proto.CodeBadRequest, err)
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
		return
	}
	if s.plane == nil {
		t, resp := errResp(proto.CodeBadRequest,
			errors.New("this node has no op stream to serve subscriptions from (no DataDir)"))
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
		return
	}
	q := sub.Query{
		Kind:     req.Kind,
		Peer:     pathtree.PeerID(req.Peer),
		Landmark: topology.NodeID(req.Landmark),
		K:        int(req.K),
	}
	sb, snapshot, seq, err := s.plane.Add(q)
	if err != nil {
		t, resp := errResp(subErrCode(err), err)
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
		return
	}
	s.subMu.Lock()
	if s.subsByConn == nil {
		s.subsByConn = make(map[*wireConn]map[uint64]*sub.Subscriber)
	}
	m := s.subsByConn[wc]
	if m == nil {
		m = make(map[uint64]*sub.Subscriber)
		s.subsByConn[wc] = m
	}
	old := m[id]
	m[id] = sb
	s.subMu.Unlock()
	if old != nil {
		// The client reused a request ID; the old subscription's sender
		// winds down through its Done channel.
		s.plane.Remove(old)
	}
	ack, err := proto.EncodeSubscribeAckAnswer(seq, snapshot)
	if err != nil {
		s.plane.Remove(sb)
		t, resp := errResp(proto.CodeInternal, err)
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
		return
	}
	// The ack enqueues before the sender starts, so the connection's
	// single writer emits it ahead of every event frame.
	s.respond(wc, outFrame{typ: proto.MsgSubscribeAck, id: id, payload: ack})
	s.wg.Add(1)
	go s.subSender(wc, id, sb)
}

func subErrCode(err error) uint16 {
	switch {
	case errors.Is(err, sub.ErrUnknownLandmark):
		return proto.CodeUnknownLandmark
	case errors.Is(err, server.ErrUnknownPeer):
		return proto.CodeUnknownPeer
	default:
		return proto.CodeBadRequest
	}
}

// serveUnsubscribe cancels a subscription registered on this connection
// and acks. An unknown ID still acks: the subscription is equally gone.
func (s *NetServer) serveUnsubscribe(wc *wireConn, id uint64, payload []byte) {
	req, err := proto.DecodeUnsubscribe(payload)
	if err != nil {
		t, resp := errResp(proto.CodeBadRequest, err)
		s.respond(wc, outFrame{typ: t, id: id, payload: resp})
		return
	}
	var sb *sub.Subscriber
	s.subMu.Lock()
	if m := s.subsByConn[wc]; m != nil {
		sb = m[req.SubID]
		delete(m, req.SubID)
	}
	s.subMu.Unlock()
	if sb != nil {
		s.plane.Remove(sb)
	}
	s.respond(wc, outFrame{typ: proto.MsgAck, id: id, payload: nil})
}

// dropSubs removes every subscription registered on a dying connection.
func (s *NetServer) dropSubs(wc *wireConn) {
	s.subMu.Lock()
	m := s.subsByConn[wc]
	delete(s.subsByConn, wc)
	s.subMu.Unlock()
	for _, sb := range m {
		s.plane.Remove(sb)
	}
}

// subSender is a subscription's dedicated sender: it drains the bounded
// event queue onto the connection's writer. The queue (not this sender)
// implements the slow-consumer policy, so blocking on a full connection
// writer here never backs up into the plane or the commit path.
func (s *NetServer) subSender(wc *wireConn, id uint64, sb *sub.Subscriber) {
	defer s.wg.Done()
	for {
		ev, ok := sb.Take()
		if !ok {
			select {
			case <-sb.Ready():
				continue
			case <-sb.Done():
				return
			case <-wc.dead:
				s.plane.Remove(sb)
				return
			case <-s.closed:
				return
			}
		}
		payload, err := s.encodeSubEvent(&ev)
		if err != nil {
			s.cfg.Logger("netserver: encode sub event: %v", err)
			continue
		}
		select {
		case wc.out <- outFrame{typ: proto.MsgSubEvent, id: id, payload: payload}:
		case <-wc.dead:
			s.plane.Remove(sb)
			return
		case <-sb.Done():
			return
		case <-s.closed:
			return
		}
	}
}

// encodeSubEvent resolves a plane event to its wire form. A resync carries
// a backend answer, addresses included; a single-peer event names only a
// peer and a distance, so its address is read from the peer's record here —
// a pushed candidate is byte-identical to the one a fresh lookup would
// return.
func (s *NetServer) encodeSubEvent(ev *sub.Event) ([]byte, error) {
	if ev.Kind == proto.EventResync {
		return proto.EncodeResyncAnswer(ev.Seq, ev.Neighbors)
	}
	m := proto.SubEvent{Seq: ev.Seq, Kind: ev.Kind}
	switch ev.Kind {
	case proto.EventEnter, proto.EventUpdate:
		m.Cand = proto.Candidate{Peer: int64(ev.Peer), DTree: int32(ev.DTree)}
		if info, err := s.cfg.Server.PeerInfo(ev.Peer); err == nil {
			m.Cand.Addr = info.Addr
		}
	case proto.EventLeave:
		m.Cand = proto.Candidate{Peer: int64(ev.Peer)}
	}
	return proto.EncodeSubEvent(&m)
}
