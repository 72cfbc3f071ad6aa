// Package telemetry is proxdisc's metrics plane: a dependency-free
// registry of atomic counters, gauges computed at scrape time, and
// bucketed latency histograms, exposed in the Prometheus text format.
//
// The design splits cost between two paths. The registration path (maps,
// locks, name formatting) runs once at setup: components resolve their
// metric pointers when they are constructed and hold them directly. The
// hot path — Counter.Inc, Histogram.Observe — is a handful of atomic
// operations on those pre-resolved pointers: no map lookups, no locks, and
// no allocation, so instrumenting a request costs nanoseconds and 0
// allocs/op: one request's metrics — a counter and a latency observation —
// allocate nothing (TestHotPathAllocs).
//
// Metric names follow the Prometheus convention, and a name may carry a
// fixed label set inline: "proxdisc_requests_total{type=\"join\"}" is one
// metric whose full string is its registry identity. The exposition
// writer splits the label suffix off so histogram series compose the "le"
// label correctly.
//
// Every method on *Registry tolerates a nil receiver: registration
// becomes a no-op and the get-or-create constructors return live but
// unexported metrics. Components can therefore instrument unconditionally
// and let the caller decide whether a registry collects the numbers.
// Components take their registry in their configs (the Telemetry field of
// cluster.Config, netserver.Config and netserver.FollowerConfig): pass
// Default to aggregate one process's layers into one
// scrape, or a fresh registry to keep planes separate. Handler serves a
// registry for embedding in any HTTP mux.
package telemetry

import (
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric is one named series (or family of series, for histograms) a
// Registry exposes.
type Metric interface {
	// Name returns the metric's full name, including any inline label set.
	Name() string
	writeProm(w *promWriter)
}

// Counter is a monotonically increasing counter.
//
// The atomic word is padded out to its own cache-line neighbourhood:
// counters are typically allocated in clusters (a component resolves its
// whole metric set at construction), and without padding the hot atomics
// of unrelated series land on shared lines, so every Add bounces the line
// between cores. 128 bytes of spacing covers adjacent-line prefetchers on
// current x86/arm parts.
type Counter struct {
	v    atomic.Uint64
	_    [120]byte
	name string
}

// NewCounter returns an unregistered counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name implements Metric.
func (c *Counter) Name() string { return c.name }

// Inc adds one. A nil counter is a no-op, so components whose metrics
// were never resolved (hand-built in tests) can still run their hot
// paths.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Nil-safe, like Inc.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) writeProm(w *promWriter) {
	w.typeLine(c.name, "counter")
	w.series(c.name, "", "")
	w.uint(c.v.Load())
}

// GaugeFunc is a gauge whose value is computed at scrape time — the
// bridge for state a component already tracks (queue lengths, peer
// counts, replication offsets).
type GaugeFunc struct {
	name string
	fn   func() float64
}

// NewGaugeFunc returns an unregistered computed gauge.
func NewGaugeFunc(name string, fn func() float64) *GaugeFunc {
	return &GaugeFunc{name: name, fn: fn}
}

// Name implements Metric.
func (g *GaugeFunc) Name() string { return g.name }

func (g *GaugeFunc) writeProm(w *promWriter) {
	w.typeLine(g.name, "gauge")
	w.series(g.name, "", "")
	w.float(g.fn())
}

// Histogram buckets.
//
// Durations are assigned to power-of-two buckets: bucket i covers
// [1024<<(i-1), 1024<<i) nanoseconds (bucket 0 covers everything below
// 1024ns), computed branch-free as bits.Len64(ns>>10). The 28 buckets
// span 1µs to ~69s with the last as overflow, enough resolution for
// quantile estimates within a factor of two anywhere in that range —
// and assignment is a shift and a count-leading-zeros, not a search.
const histBuckets = 28

// Histogram is a fixed-bucket latency histogram. Observe is lock-free
// and allocation-free; quantiles are extracted at read time by linear
// interpolation inside the covering bucket.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
	name    string
}

// NewHistogram returns an unregistered histogram.
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// Name implements Metric.
func (h *Histogram) Name() string { return h.name }

// bucketUpper is bucket i's exclusive upper bound in nanoseconds; the
// last bucket is unbounded.
func bucketUpper(i int) int64 { return 1024 << i }

func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns) >> 10)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one duration. Nil-safe, like Counter.Inc.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(ns))
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of everything observed
// so far, interpolating linearly within the covering bucket. It returns
// 0 on an empty histogram. Concurrent Observe calls may skew a quantile
// read by the in-flight observations; reads are estimates, not
// snapshots.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next < rank {
			cum = next
			continue
		}
		lower := float64(0)
		if i > 0 {
			lower = float64(bucketUpper(i - 1))
		}
		upper := float64(bucketUpper(i))
		if i == histBuckets-1 {
			upper = 2 * lower // overflow bucket: assume one more octave
		}
		frac := (rank - cum) / float64(n)
		return time.Duration(lower + (upper-lower)*frac)
	}
	return time.Duration(bucketUpper(histBuckets - 1))
}

func (h *Histogram) writeProm(w *promWriter) {
	w.typeLine(h.name, "histogram")
	var cum uint64
	for i := 0; i < histBuckets-1; i++ {
		cum += h.buckets[i].Load()
		w.series(h.name, "_bucket", "le=\""+formatSeconds(bucketUpper(i))+"\"")
		w.uint(cum)
	}
	cum += h.buckets[histBuckets-1].Load()
	w.series(h.name, "_bucket", `le="+Inf"`)
	w.uint(cum)
	w.series(h.name, "_sum", "")
	w.float(float64(h.sum.Load()) / 1e9)
	w.series(h.name, "_count", "")
	w.uint(h.count.Load())
}

// formatSeconds renders a nanosecond bound as seconds for the "le" label.
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// Registry is a named collection of metrics. Registration and exposition
// take a lock; the metrics themselves are independent of the registry
// once resolved, so holding a *Counter never touches it again.
type Registry struct {
	mu     sync.Mutex
	byName map[string]Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Metric)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry, the one proxdisc-server exports and
// the natural choice for every config's Telemetry field when one process
// hosts one node.
func Default() *Registry { return defaultRegistry }

// Register adds metrics to the registry, replacing any existing metric
// with the same name (last registration wins — a node restarts its
// components in-process during tests; in production each process
// registers once). Register on a nil registry is a no-op, so components
// can register unconditionally.
func (r *Registry) Register(ms ...Metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		r.byName[m.Name()] = m
	}
}

// Unregister removes metrics by name (for series keyed by a dynamic
// label, like per-follower gauges, when their subject goes away). A nil
// registry or an unknown name is a no-op.
func (r *Registry) Unregister(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		delete(r.byName, n)
	}
}

// Counter returns the registered counter with the given name, creating
// and registering it if absent. If the name is held by a different
// metric type, a fresh counter replaces it. On a nil registry it returns
// a live, unregistered counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return NewCounter(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.byName[name].(*Counter); ok {
		return c
	}
	c := NewCounter(name)
	r.byName[name] = c
	return c
}

// GaugeFunc registers a computed gauge under the given name, replacing
// any previous metric with that name.
func (r *Registry) GaugeFunc(name string, fn func() float64) *GaugeFunc {
	g := NewGaugeFunc(name, fn)
	r.Register(g)
	return g
}

// Histogram is Counter's get-or-create for histograms.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return NewHistogram(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.byName[name].(*Histogram); ok {
		return h
	}
	h := NewHistogram(name)
	r.byName[name] = h
	return h
}

// snapshot returns the registered metrics sorted by name, so series of
// one family stay adjacent in the exposition and output is stable.
func (r *Registry) snapshot() []Metric {
	r.mu.Lock()
	ms := make([]Metric, 0, len(r.byName))
	for _, m := range r.byName {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
	return ms
}

// promWriter accumulates Prometheus text exposition, emitting each
// family's # TYPE line once and splicing histogram suffixes and the "le"
// label inside any inline label set.
type promWriter struct {
	b        strings.Builder
	lastType string // base name of the last TYPE line emitted
}

// typeLine writes "# TYPE <base> <kind>" if not already written for this
// family (metrics arrive sorted, so label variants of one base name are
// adjacent).
func (w *promWriter) typeLine(name, kind string) {
	base, _ := splitName(name)
	if base == w.lastType {
		return
	}
	w.lastType = base
	w.b.WriteString("# TYPE ")
	w.b.WriteString(base)
	w.b.WriteByte(' ')
	w.b.WriteString(kind)
	w.b.WriteByte('\n')
}

// series writes "<base><suffix>{labels[,extra]} " ready for a value.
func (w *promWriter) series(name, suffix, extra string) {
	base, labels := splitName(name)
	w.b.WriteString(base)
	w.b.WriteString(suffix)
	if labels != "" || extra != "" {
		w.b.WriteByte('{')
		w.b.WriteString(labels)
		if labels != "" && extra != "" {
			w.b.WriteByte(',')
		}
		w.b.WriteString(extra)
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
}

func (w *promWriter) uint(v uint64) {
	w.b.WriteString(strconv.FormatUint(v, 10))
	w.b.WriteByte('\n')
}

func (w *promWriter) float(v float64) {
	w.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	w.b.WriteByte('\n')
}

// splitName separates a metric name from its inline label set:
// `foo{a="b"}` → (`foo`, `a="b"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := io.WriteString(w, r.Exposition())
	return err
}

// Exposition renders the registry as a Prometheus text exposition string.
func (r *Registry) Exposition() string {
	if r == nil {
		return ""
	}
	pw := &promWriter{}
	for _, m := range r.snapshot() {
		m.writeProm(pw)
	}
	return pw.b.String()
}
