package telemetry

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// registered returns the metric r holds under the full name, or nil.
func registered(r *Registry, name string) Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("c_total"); again != c {
		t.Fatalf("get-or-create returned a different counter")
	}
	r.GaugeFunc("gf", func() float64 { return 2.5 })
	if _, ok := registered(r, "gf").(*GaugeFunc); !ok {
		t.Fatalf("gauge func lookup failed")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc() // live but unregistered
	if c.Value() != 1 {
		t.Fatalf("nil-registry counter not live")
	}
	r.Histogram("h").Observe(time.Millisecond)
	r.Register(NewCounter("y"))
	r.Unregister("y")
	if got := r.Exposition(); got != "" {
		t.Fatalf("nil registry exposition = %q, want empty", got)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry write: %v", err)
	}
}

func TestRegisterLastWins(t *testing.T) {
	r := NewRegistry()
	a := NewCounter("dup")
	b := NewCounter("dup")
	r.Register(a)
	r.Register(b)
	b.Add(5)
	if got := registered(r, "dup").(*Counter).Value(); got != 5 {
		t.Fatalf("last registration did not win: got %d", got)
	}
	r.Unregister("dup")
	if registered(r, "dup") != nil {
		t.Fatalf("unregister left the metric behind")
	}
	// A histogram replacing a counter under the same name.
	h := r.Histogram("dup")
	if _, ok := registered(r, "dup").(*Histogram); !ok || h == nil {
		t.Fatalf("type-mismatched get-or-create did not replace")
	}
}

// TestConcurrentRegistry hammers registration and the hot-path ops from
// many goroutines at once; run with -race this is the registry's
// thread-safety proof.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_seconds")
			for j := 0; j < iters; j++ {
				c.Inc()
				h.Observe(time.Duration(j) * time.Microsecond)
				if j%100 == 0 {
					// Exercise the registration path concurrently too.
					r.Counter("shared_total").Inc()
					_ = r.Exposition()
				}
			}
		}(i)
	}
	wg.Wait()
	c := registered(r, "shared_total").(*Counter)
	want := uint64(goroutines * (iters + iters/100))
	if got := c.Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	h := registered(r, "shared_seconds").(*Histogram)
	if got := h.count.Load(); got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {1023, 0},
		{1024, 1}, {2047, 1},
		{2048, 2},
		{1 << 20, 11}, // ~1ms
		{1 << 30, 21}, // ~1s
		{1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bucket's values must fall below its upper bound and at or
	// above the previous bound.
	for i := 0; i < histBuckets-1; i++ {
		upper := bucketUpper(i)
		if got := bucketIndex(upper - 1); got != i {
			t.Errorf("bucketIndex(%d) = %d, want %d", upper-1, got, i)
		}
		if got := bucketIndex(upper); got != i+1 {
			t.Errorf("bucketIndex(%d) = %d, want %d", upper, got, i+1)
		}
	}
}

// TestHistogramQuantileAccuracy checks extracted quantiles against the
// exact values for a known distribution: with power-of-two buckets and
// in-bucket interpolation, an estimate can be off by at most one bucket
// width (a factor of two), and for a uniform distribution it should do
// much better.
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram("lat")
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		// Uniform in [0, 10ms): dense enough that every populated bucket
		// holds many samples.
		v := rng.Int63n(int64(10 * time.Millisecond))
		vals = append(vals, v)
		h.Observe(time.Duration(v))
	}
	if h.count.Load() != n {
		t.Fatalf("count = %d, want %d", h.count.Load(), n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := float64(q) * float64(10*time.Millisecond) // uniform quantile
		got := float64(h.Quantile(q))
		// A bucket spans a factor of two, so the estimate must be within
		// [exact/2, exact*2]; interpolation should land far closer.
		if got < exact/2 || got > exact*2 {
			t.Errorf("q%.2f = %v, exact %v: outside one-bucket error bound",
				q, time.Duration(got), time.Duration(exact))
		}
	}
	// Order sanity: p50 ≤ p90 ≤ p99.
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("quantiles out of order: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram("lat")
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(5 * time.Microsecond)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := h.Quantile(q)
		if got < 0 || got > 8192*time.Nanosecond { // the 5µs sample's bucket is [4096ns, 8192ns)
			t.Errorf("single-sample q=%v = %v, outside its bucket", q, got)
		}
	}
	r := NewRegistry()
	r.Register(h)
	if want := "lat_sum 5e-06\n"; !strings.Contains(r.Exposition(), want) {
		t.Fatalf("exposition lacks %q, the 5µs sum", want)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`reqs_total{type="join"}`).Add(3)
	r.Counter(`reqs_total{type="lookup"}`).Add(1)
	r.GaugeFunc("peers", func() float64 { return 12 })
	h := r.Histogram(`lat_seconds{type="join"}`)
	h.Observe(1500 * time.Nanosecond) // bucket 1 (le 2.048e-06)
	h.Observe(3 * time.Millisecond)

	out := r.Exposition()
	for _, want := range []string{
		"# TYPE reqs_total counter\n",
		`reqs_total{type="join"} 3` + "\n",
		`reqs_total{type="lookup"} 1` + "\n",
		"# TYPE peers gauge\npeers 12\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{type="join",le="+Inf"} 2` + "\n",
		`lat_seconds_count{type="join"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// The TYPE line for a family with several label variants must appear
	// exactly once.
	if n := strings.Count(out, "# TYPE reqs_total counter"); n != 1 {
		t.Errorf("reqs_total TYPE line appears %d times, want 1", n)
	}
	// Cumulative bucket counts: the le="2.048e-06" bucket holds the 1.5µs
	// sample only; +Inf holds both.
	if !strings.Contains(out, `lat_seconds_bucket{type="join",le="2.048e-06"} 1`+"\n") {
		t.Errorf("cumulative bucket line wrong\n---\n%s", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("exposition must end in a newline")
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(9)
	RegisterGoMetrics(r)
	srv := httptest.NewServer(NewOpsMux(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{"hits_total 9\n", "go_goroutines ", "go_memstats_heap_alloc_bytes "} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}

	// The debug endpoints must be mounted.
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Errorf("%s: status %d", path, res.StatusCode)
		}
	}
}
