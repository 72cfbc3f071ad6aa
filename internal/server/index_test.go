package server

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// check verifies every stripe's table: each entry sits in its peer's stripe
// and is the slot probe finds for the peer, so it is reachable from its home
// slot and no peer is in the table twice; an entry past its home follows an
// entry at most one slot less far past its own, the Robin Hood order, and
// one of the same home only if that one's key is smaller; the stripe's count
// is its occupied slots; and the load is at most 0.9.
func (x *Index) check() error {
	for si := range x.stripes {
		s := &x.stripes[si]
		s.mu.RLock()
		err := s.check(x)
		s.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("stripe %d: %w", si, err)
		}
	}
	return nil
}

func (s *indexStripe) check(x *Index) error {
	n, used := len(s.slots), 0
	for i, e := range s.slots {
		if e.lm == noRef.lm {
			continue
		}
		used++
		d, prev := s.dist(e.key, i), (i+n-1)%n
		switch {
		case x.stripe(e.key) != s:
			return fmt.Errorf("key %#x outside its own stripe", e.key)
		case d > 0 && (s.slots[prev].lm == noRef.lm || s.dist(s.slots[prev].key, prev) < d-1):
			return fmt.Errorf("key %#x at slot %d, %d past its home, after %+v: out of Robin Hood order", e.key, i, d, s.slots[prev])
		case d > 0 && s.dist(s.slots[prev].key, prev) == d-1 && s.slots[prev].key > e.key:
			return fmt.Errorf("key %#x at slot %d after %+v of the same home: out of key order", e.key, i, s.slots[prev])
		}
		if j, ok := s.probe(e.key); !ok || j != i {
			return fmt.Errorf("key %#x at slot %d, but probe finds slot %d (%v)", e.key, i, j, ok)
		}
	}
	switch {
	case used != s.used:
		return fmt.Errorf("count %d, %d slots occupied", s.used, used)
	case used*10 > n*maxLoadTenths:
		return fmt.Errorf("%d of %d slots occupied, load above 0.9", used, n)
	}
	return nil
}

// TestIndexMatchesModel runs seeded random get, swap, deleteIf, Place and Len
// against a Go map and checks the tables after every step. The keys come from
// a range that holds every stripe's table near its 0.9 load once it is full,
// where runs are long, so they wrap past a table's end and deletes land
// inside them, while each table grows several times on the way. The test
// counts all three to show they happened.
func TestIndexMatchesModel(t *testing.T) {
	const keys, steps = 3072, 9000
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x, model := NewIndex(), make(map[pathtree.PeerID]ref)
		var sizes, growths [indexStripes]int
		wraps, midRun := 0, 0
		for step := 0; step < steps; step++ {
			p := pathtree.PeerID(1 + rng.Intn(keys))
			r := ref{lm: topology.NodeID(rng.Intn(4)), slot: int32(rng.Intn(1 << 20))}
			want, had := model[p]
			var err error
			switch k := rng.Intn(20); {
			case k < 9:
				if old, ok := x.swap(p, r); ok != had || old != want {
					err = fmt.Errorf("swap(%d) = %v, %v; model %v, %v", p, old, ok, want, had)
				}
				model[p] = r
			case k < 15:
				if had && k < 13 {
					r = want // mostly the entry's own place; else likely a stale one
				}
				s := x.stripe(x.key(p))
				if i, ok := s.probe(x.key(p)); ok {
					j := (i + 1) % len(s.slots)
					if s.slots[j].lm != noRef.lm && s.dist(s.slots[j].key, j) > 0 {
						midRun++
					}
				}
				if ok := x.deleteIf(p, r); ok != (had && r == want) {
					err = fmt.Errorf("deleteIf(%d, %v) = %v; model %v, %v", p, r, ok, want, had)
				} else if ok {
					delete(model, p)
				}
			case k < 18:
				if got, ok := x.get(p); ok != had || got != want {
					err = fmt.Errorf("get(%d) = %v, %v; model %v, %v", p, got, ok, want, had)
				}
			case k < 19:
				if lm, slot, ok := x.Place(p); ok != had || lm != want.lm || slot != want.slot {
					err = fmt.Errorf("Place(%d) = %d, %d, %v; model %v, %v", p, lm, slot, ok, want, had)
				}
			default:
				if n := x.Len(); n != len(model) {
					err = fmt.Errorf("Len() = %d; model %d", n, len(model))
				}
			}
			if err == nil {
				err = x.check()
			}
			if err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, step, err)
			}
			for i := range x.stripes {
				s := &x.stripes[i]
				if len(s.slots) != sizes[i] {
					sizes[i] = len(s.slots)
					growths[i]++
				}
				for j, e := range s.slots {
					if e.lm != noRef.lm && j < s.home(e.key) {
						wraps++
					}
				}
			}
		}
		least := growths[0]
		for _, g := range growths {
			least = min(least, g)
		}
		t.Logf("seed %d: %d entries, every table grown at least %d times, %d wrapped entries seen, %d deletes mid-run", seed, len(model), least, wraps, midRun)
		if least < 3 || wraps == 0 || midRun == 0 {
			t.Errorf("seed %d did not exercise the table: least growths %d, wrapped entries %d, deletes mid-run %d", seed, least, wraps, midRun)
		}
	}
}

// TestIndexGrowPlacesEveryRun rebuilds tables whose runs are as long as a 0.9
// load lets them be: keys, placed in stripe 0 directly rather than mixed,
// are drawn from narrow bands, one of them at the table's end, so that runs
// share home slots and wrap. Every rebuilt table is checked.
func TestIndexGrowPlacesEveryRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := NewIndex()
	s := &x.stripes[0]
	grown := 0
	for trial := 0; trial < 300; trial++ {
		s.slots, s.used = nil, 0
		bands := []float64{0.99, rng.Float64(), rng.Float64()}[:1+rng.Intn(3)]
		for s.used < 400 {
			pos := bands[rng.Intn(len(bands))] + 0.03*rng.Float64()
			k := uint64((pos - float64(int(pos))) * (1 << 58)) // top 6 bits 0: stripe 0
			i, found := s.probe(k)
			if found {
				continue
			}
			if (s.used+1)*10 > len(s.slots)*maxLoadTenths {
				s.grow()
				if err := s.check(x); err != nil {
					t.Fatalf("trial %d, after growing to %d slots: %v", trial, len(s.slots), err)
				}
				grown++
				i, _ = s.probe(k)
			}
			s.insert(i, entry{key: k, ref: ref{lm: 1}})
		}
	}
	t.Logf("%d rebuilds checked", grown)
}

// TestIndexReadersDuringGrowth runs four readers, through Place and get, over
// keys that are never deleted, while one writer re-points those keys and
// swaps and deletes others until every stripe's table has been rebuilt at
// least three times. A rebuild happens under the stripe's write lock, so no
// reader may ever find a known key missing. Run it under -race.
func TestIndexReadersDuringGrowth(t *testing.T) {
	const known, churn = 2_000, 40_000
	x := NewIndex()
	for p := 1; p <= known; p++ {
		x.swap(pathtree.PeerID(p), ref{slot: int32(p)})
	}
	sizes, growths := make(map[*indexStripe]int), make(map[*indexStripe]int)
	for i := range x.stripes {
		sizes[&x.stripes[i]] = len(x.stripes[i].slots)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				p := pathtree.PeerID(1 + rng.Intn(known))
				ok := false
				if g%2 == 0 {
					_, _, ok = x.Place(p)
				} else {
					_, ok = x.get(p)
				}
				if !ok {
					t.Errorf("known peer %d reported missing", p)
					return
				}
			}
		}()
	}
	// Only this goroutine writes, so it reads the table sizes without a lock.
	for i := 0; i < churn; i++ {
		p := pathtree.PeerID(known + 1 + i)
		x.swap(p, ref{lm: 1, slot: int32(i)})
		x.swap(pathtree.PeerID(1+i%known), ref{lm: 2, slot: int32(i)})
		if i%3 == 2 {
			x.deleteIf(p-1, ref{lm: 1, slot: int32(i - 1)})
		}
		if s := x.stripe(x.key(p)); len(s.slots) != sizes[s] {
			sizes[s] = len(s.slots)
			growths[s]++
		}
	}
	stop.Store(true)
	wg.Wait()
	for i := range x.stripes {
		if g := growths[&x.stripes[i]]; g < 3 {
			t.Errorf("stripe %d grew %d times under the readers, want ≥ 3", i, g)
		}
	}
	if err := x.check(); err != nil {
		t.Fatal(err)
	}
	if want := known + churn - churn/3; x.Len() != want {
		t.Errorf("Len() = %d, want %d", x.Len(), want)
	}
}

// TestIndexCraftedIDs fills indexes with IDs a client could pick against a
// mix it knows, so that their keys run h0, h0+1, …: all in one stripe at
// nearly one home slot, one run as long as the fill, which every probe,
// insert and rebuild would walk. It crafts them against a fixed
// multiplicative hash, p = C⁻¹·(h0+k) for the odd C = 0x9e3779b97f4a7c15,
// and against the index's own mix with a zero seed, undone step by step.
// Under the seed an index draws they spread like any IDs: the test bounds
// the fullest stripe and the furthest any entry sits past its home slot.
func TestIndexCraftedIDs(t *testing.T) {
	const n = 20_000
	h0 := uint64(0x5bd1e995) << 32
	inverse := func(c uint64) uint64 { // of an odd c, mod 2⁶⁴
		v := c // right in the low 3 bits; each step doubles that
		for i := 0; i < 5; i++ {
			v *= 2 - c*v
		}
		return v
	}
	unshift := func(v uint64, s uint) uint64 { // undoes v ^= v >> s
		for r := v >> s; r != 0; r >>= s {
			v ^= r
		}
		return v
	}
	unmix := func(k uint64) uint64 { // undoes Index.key with a zero seed
		k = unshift(k, 31) * inverse(0x94d049bb133111eb)
		k = unshift(k, 27) * inverse(0xbf58476d1ce4e5b9)
		return unshift(k, 30)
	}
	if got := (&Index{}).key(pathtree.PeerID(unmix(h0))); got != h0 {
		t.Fatalf("undoing the mix gives key %#x, want %#x", got, h0)
	}
	crafts := []struct {
		name  string
		craft func(k uint64) uint64
	}{
		{"p·C", func(k uint64) uint64 { return k * inverse(0x9e3779b97f4a7c15) }},
		{"the mix, seed 0", unmix},
	}
	for _, c := range crafts {
		x := NewIndex()
		for k := uint64(0); k < n; k++ {
			x.swap(pathtree.PeerID(c.craft(h0+k)), ref{slot: int32(k)})
		}
		if err := x.check(); err != nil {
			t.Fatal(err)
		}
		fullest, furthest := 0, 0
		for i := range x.stripes {
			s := &x.stripes[i]
			fullest = max(fullest, s.used)
			for j, e := range s.slots {
				if e.lm != noRef.lm {
					furthest = max(furthest, s.dist(e.key, j))
				}
			}
		}
		t.Logf("%d IDs crafted against %s: fullest stripe %d entries, furthest entry %d slots past its home", n, c.name, fullest, furthest)
		if fullest > 2*n/indexStripes || furthest > 64 {
			t.Errorf("%s: fullest stripe %d entries, want ≤ %d; furthest entry %d slots past its home, want ≤ 64", c.name, fullest, 2*n/indexStripes, furthest)
		}
	}
}
