// Package overlay maintains the peer-to-peer mesh built from the management
// server's closest-peer answers.
//
// The paper's motivating application is mesh-based live streaming: a
// newcomer asks the server for its closest peers and connects to them. This
// package keeps the resulting undirected neighbour graph.
package overlay

import (
	"fmt"
	"sort"
	"sync"

	"proxdisc/internal/pathtree"
)

// Overlay is an undirected neighbour graph over peers. It is safe for
// concurrent use.
type Overlay struct {
	mu    sync.RWMutex
	links map[pathtree.PeerID]map[pathtree.PeerID]bool // every registered peer has an entry
}

// New returns an empty overlay.
func New() *Overlay {
	return &Overlay{links: make(map[pathtree.PeerID]map[pathtree.PeerID]bool)}
}

// AddPeer registers a peer. Re-adding an existing ID is an error.
func (o *Overlay) AddPeer(id pathtree.PeerID) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.links[id]; ok {
		return fmt.Errorf("overlay: peer %d already present", id)
	}
	o.links[id] = make(map[pathtree.PeerID]bool)
	return nil
}

// Connect links two distinct registered peers. Connecting an existing link
// is a no-op.
func (o *Overlay) Connect(a, b pathtree.PeerID) error {
	if a == b {
		return fmt.Errorf("overlay: self link on peer %d", a)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.links[a]; !ok {
		return fmt.Errorf("overlay: unknown peer %d", a)
	}
	if _, ok := o.links[b]; !ok {
		return fmt.Errorf("overlay: unknown peer %d", b)
	}
	o.links[a][b] = true
	o.links[b][a] = true
	return nil
}

// Neighbors returns a peer's neighbour IDs in ascending order.
func (o *Overlay) Neighbors(id pathtree.PeerID) []pathtree.PeerID {
	o.mu.RLock()
	defer o.mu.RUnlock()
	m, ok := o.links[id]
	if !ok {
		return nil
	}
	out := make([]pathtree.PeerID, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree reports a peer's current neighbour count.
func (o *Overlay) Degree(id pathtree.PeerID) int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.links[id])
}

// Contains reports whether the peer is registered.
func (o *Overlay) Contains(id pathtree.PeerID) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.links[id]
	return ok
}

// Peers returns all registered peer IDs in ascending order.
func (o *Overlay) Peers() []pathtree.PeerID {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]pathtree.PeerID, 0, len(o.links))
	for id := range o.links {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConnectedComponentOf returns all peers reachable from start, including
// start itself (used by streaming to check mesh connectivity).
func (o *Overlay) ConnectedComponentOf(start pathtree.PeerID) []pathtree.PeerID {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if _, ok := o.links[start]; !ok {
		return nil
	}
	visited := map[pathtree.PeerID]bool{start: true}
	queue := []pathtree.PeerID{start}
	var out []pathtree.PeerID
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		out = append(out, p)
		for q := range o.links[p] {
			if !visited[q] {
				visited[q] = true
				queue = append(queue, q)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
