// Package sim is a small deterministic discrete-event simulation engine —
// the role PeerSim plays in the paper's evaluation.
//
// Events carry a virtual timestamp in milliseconds; equal-time events run in
// scheduling order. The engine is single-goroutine by design: experiments
// that need concurrency model it as interleaved events, which keeps every
// run exactly reproducible from its seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
type Engine struct {
	pq  eventHeap
	now int64
	seq int64
	ran int64
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in milliseconds.
func (e *Engine) Now() int64 { return e.now }

// Schedule runs fn after delay milliseconds of virtual time. Negative delays
// are an error (the past is immutable).
func (e *Engine) Schedule(delay int64, fn func()) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %d", delay)
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (>= Now).
func (e *Engine) At(t int64, fn func()) error {
	if t < e.now {
		return fmt.Errorf("sim: time %d is in the past (now %d)", t, e.now)
	}
	e.seq++
	heap.Push(&e.pq, event{at: t, seq: e.seq, fn: fn})
	return nil
}

// Step executes the next event; it reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(event)
	e.now = ev.at
	e.ran++
	ev.fn()
	return true
}

// Run executes events until the queue empties or virtual time would exceed
// `until`. It returns the number of events executed by this call.
func (e *Engine) Run(until int64) int64 {
	start := e.ran
	for len(e.pq) > 0 && e.pq[0].at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
	return e.ran - start
}

// RunAll drains the queue completely, returning the number of events run.
func (e *Engine) RunAll() int64 {
	start := e.ran
	for e.Step() {
	}
	return e.ran - start
}

type event struct {
	at  int64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// ChurnConfig drives a Poisson churn process: peers arrive with
// exponentially distributed inter-arrival times and stay for exponentially
// distributed lifetimes — the standard model for "faulty peers and handover"
// studies the paper lists as future work.
type ChurnConfig struct {
	// MeanInterarrival is the mean gap between arrivals in ms (> 0).
	MeanInterarrival float64
	// MeanLifetime is the mean session length in ms (> 0).
	MeanLifetime float64
	// Arrivals bounds the total number of arrivals.
	Arrivals int
	// Seed seeds the churn RNG.
	Seed int64
}

// Churn schedules the configured arrival/departure process on the engine.
// join is invoked at each arrival with a fresh peer number (1,2,3,…);
// leave is invoked when that peer's lifetime expires.
func Churn(e *Engine, cfg ChurnConfig, join func(id int64), leave func(id int64)) error {
	if cfg.MeanInterarrival <= 0 || cfg.MeanLifetime <= 0 {
		return fmt.Errorf("sim: churn means must be positive (got %g, %g)",
			cfg.MeanInterarrival, cfg.MeanLifetime)
	}
	if cfg.Arrivals <= 0 {
		return fmt.Errorf("sim: churn needs a positive arrival budget, got %d", cfg.Arrivals)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var next func(id int64, at int64)
	next = func(id int64, at int64) {
		_ = e.At(at, func() {
			join(id)
			life := int64(rng.ExpFloat64() * cfg.MeanLifetime)
			if life < 1 {
				life = 1
			}
			_ = e.Schedule(life, func() { leave(id) })
			if int(id) < cfg.Arrivals {
				gap := int64(rng.ExpFloat64() * cfg.MeanInterarrival)
				if gap < 1 {
					gap = 1
				}
				next(id+1, e.Now()+gap)
			}
		})
	}
	next(1, e.now)
	return nil
}
