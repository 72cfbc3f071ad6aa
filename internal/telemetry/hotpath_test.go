package telemetry

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestHotPathAllocs: what one served request adds to the metrics plane — a
// counter increment and a latency observation on handles resolved once, at
// setup — allocates nothing.
func TestHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter(`proxdisc_requests_total{type="join_request"}`)
	lat := reg.Histogram(`proxdisc_request_duration_seconds{type="join_request"}`)
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		reqs.Inc()
		lat.Observe(time.Duration(i) * time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("one request's counter and observation allocate %v times, want 0", allocs)
	}
}

// BenchmarkTelemetryHotPath measures exactly what one served request adds:
// a counter increment plus a latency observation on pre-resolved handles.
func BenchmarkTelemetryHotPath(b *testing.B) {
	reg := NewRegistry()
	reqs := reg.Counter(`proxdisc_requests_total{type="join_request"}`)
	lat := reg.Histogram(`proxdisc_request_duration_seconds{type="join_request"}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reqs.Inc()
		lat.Observe(time.Duration(i) * time.Nanosecond)
	}
}

// BenchmarkTelemetryHotPathParallel is the false-sharing probe for the
// padded Counter cells: goroutines hammer DISTINCT metrics that were
// allocated back to back, the layout every component's metric set has in
// practice. Without the cache-line padding the adjacent atomic words share
// lines and a -cpu 4 run collapses to coherence traffic; with it, per-cell
// updates scale. Compare against BenchmarkTelemetryHotPath at the same -cpu.
func BenchmarkTelemetryHotPathParallel(b *testing.B) {
	reg := NewRegistry()
	const cells = 16
	counters := make([]*Counter, cells)
	for i := range counters {
		counters[i] = reg.Counter(fmt.Sprintf(`proxdisc_bench_cell_total{cell="%d"}`, i))
	}
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		ctr := counters[int(next.Add(1)-1)%cells]
		for pb.Next() {
			ctr.Inc()
		}
	})
}
