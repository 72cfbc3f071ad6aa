package main

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark was written on is a two-CPU guest on a shared
// host, and the same code runs at very different speeds on it from one
// minute to the next: code that touches memory — and everything the program
// under test does touches memory — takes up to 1.7 times longer when the
// neighbours are busy, while a purely arithmetic loop does not change at
// all. A virtual CPU that was idle for a second also needs a second or two
// of work to come back to full speed. Ten runs of one commit scattered by a
// third of their median for these reasons alone.
//
// So every timed unit is preceded by speedProbe: a fixed piece of ordinary
// work run on every CPU for a fixed time, which both brings the CPUs up to
// speed and says how fast the machine is at that moment. The
// benchmark divides what it then measures by that slowdown (see corrected).

const (
	// nominalPassUS is the probe's pass time on this class of machine when
	// the host is quiet. Only ratios to it are used: it fixes the scale of
	// the corrected metrics and nothing else.
	nominalPassUS = 3000

	// A probe runs for probeRun on every CPU and reports the passes that
	// ended within its last probeTail: the time before that is the warm-up.
	probeRun  = 600 * time.Millisecond
	probeTail = 300 * time.Millisecond

	probeTableEntries = 1 << 24 // 64 MiB of uint32, far beyond any cache
	probeKeys         = 20000
)

// probeTable is what the probe's random reads go through. It lives outside
// the Go heap so that the collector's pacing never sees it.
var probeTable = func() []uint32 {
	raw, err := syscall.Mmap(-1, 0, probeTableEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, probeTableEntries)
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), probeTableEntries)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

// probeState is one CPU's scratch space; a pass allocates nothing, so the
// probe never starts a collection cycle and never pays for the program's
// heap.
type probeState struct {
	m    map[int64]int32
	keys []int64
	buf  []byte
	x    uint64
	sink uint64
}

func newProbeState(cpu int) *probeState {
	return &probeState{
		m:    make(map[int64]int32, probeKeys),
		keys: make([]int64, 0, probeKeys),
		buf:  make([]byte, 0, 64),
		x:    uint64(cpu+1) * 0x9E3779B97F4A7C15,
	}
}

func (p *probeState) next() uint64 {
	p.x ^= p.x << 13
	p.x ^= p.x >> 7
	p.x ^= p.x << 17
	return p.x
}

// pass is the unit of reference work: the instruction mix of a server —
// hashing into a map, sorting, formatting, and reads scattered over a table
// larger than the caches. It returns its own duration.
func (p *probeState) pass() time.Duration {
	t0 := time.Now()
	clear(p.m)
	p.keys = p.keys[:0]
	for i := 0; i < probeKeys; i++ {
		k := int64(p.next() % 1_000_003)
		p.m[k] += int32(i)
		p.keys = append(p.keys, k)
	}
	slices.Sort(p.keys)
	for _, k := range p.keys[:probeKeys/4] {
		b := append(p.buf[:0], "10."...)
		b = strconv.AppendInt(b, k>>16&255, 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, k>>8&255, 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, k&255, 10)
		p.sink += uint64(len(b))
	}
	for i := 0; i < 2*probeKeys; i++ {
		p.sink += uint64(probeTable[p.next()%probeTableEntries])
	}
	return time.Since(t0)
}

var probeStates []*probeState

// speedProbe keeps every CPU busy with passes for probeRun and returns the
// median pass time, in microseconds, over the last probeTail on all CPUs.
// A smoke test (short) runs a single pass.
func speedProbe(short bool) float64 {
	n := runtime.GOMAXPROCS(0)
	for len(probeStates) < n {
		probeStates = append(probeStates, newProbeState(len(probeStates)))
	}
	tails := make([][]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := probeStates[c]
			if short {
				tails[c] = []float64{float64(p.pass()) / 1e3}
				return
			}
			for time.Since(start) < probeRun {
				d := p.pass()
				if time.Since(start) >= probeRun-probeTail {
					tails[c] = append(tails[c], float64(d)/1e3)
				}
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, t := range tails {
		all = append(all, t...)
	}
	return median(all)
}

// corrected scales a measurement to the nominal machine speed, given the
// probe's pass time around it: a duration shrinks by the slowdown the probe
// saw, a rate grows by it.
func corrected(v, passUS float64, isRate bool) float64 {
	slowdown := passUS / nominalPassUS
	if isRate {
		return v * slowdown
	}
	return v / slowdown
}
