package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"proxdisc/internal/cluster"
	"proxdisc/internal/wal"
)

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOptions selects one run.
type runOptions struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	short    bool // op counts ÷50, for tests
	conns    int
	dataDir  string // parent of the node's data directories
	outDir   string // span files land here
	log      io.Writer
}

func (o *runOptions) div() int {
	if o.short {
		return 50
	}
	return 1
}

// record is one run's full outcome; the result files hold these.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Short     bool                   `json:"short,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Invalid   string                 `json:"invalid,omitempty"` // set when the generator could not keep its schedule
	OpCounts  map[string]int         `json:"op_counts"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Rounds    map[string][]float64   `json:"rounds,omitempty"` // the per-round values behind the medians
	Errors    []string               `json:"errors,omitempty"`
	Stamp     stamp                  `json:"stamp"`
}

func (r *record) e2e(name string, v float64)   { r.EndToEnd[name] = metricValue{Value: v} }
func (r *record) layer(name string, v float64) { r.PerLayer[name] = metricValue{Value: v} }

// counters is a snapshot of the exported stats the live per-layer
// metrics are deltas of.
type counters struct {
	dur   wal.DurabilityStats
	mem   runtime.MemStats
	cpuNS int64
}

// liveDelta sums, over the rounds' closed loops, what the counters moved by.
type liveDelta struct {
	fsyncs, synced                          float64
	cpuNS, mallocs, allocBytes, pauseNS, gc float64
}

func (d *liveDelta) add(before, after *counters) {
	d.fsyncs += float64(after.dur.Log.Fsyncs - before.dur.Log.Fsyncs)
	d.synced += float64(after.dur.Log.SyncedRecords - before.dur.Log.SyncedRecords)
	d.cpuNS += float64(after.cpuNS - before.cpuNS)
	d.mallocs += float64(after.mem.Mallocs - before.mem.Mallocs)
	d.allocBytes += float64(after.mem.TotalAlloc - before.mem.TotalAlloc)
	d.pauseNS += float64(after.mem.PauseTotalNs - before.mem.PauseTotalNs)
	d.gc += float64(after.mem.NumGC - before.mem.NumGC)
}

func (d *liveDelta) addDelta(o *liveDelta) {
	d.fsyncs += o.fsyncs
	d.synced += o.synced
	d.cpuNS += o.cpuNS
	d.mallocs += o.mallocs
	d.allocBytes += o.allocBytes
	d.pauseNS += o.pauseNS
	d.gc += o.gc
}

func readCounters(clu *cluster.Cluster) counters {
	c := counters{dur: clu.DurabilityStats()}
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return c
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func snapshotBytes(dir string) float64 {
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	var size int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil && fi.Size() > size {
			size = fi.Size()
		}
	}
	return float64(size)
}

// roundResult is what one round measured: one value per metric. The
// run reports the median over its rounds.
type roundResult struct {
	setupSecs    float64
	ckptSecs     float64 // Checkpoint() at rest, right after setup
	snapBytes    float64
	loop         loopSummary
	bytesPerPeer float64
	recoverySecs float64
	replaySecs   float64
	// passUS are the speed probe's pass times in µs: before setup, before
	// the closed loop, after it, before recovery.
	passUS [4]float64
}

// loopSummary is one closed loop reduced to numbers, so that a round's
// samples need not outlive it.
type loopSummary struct {
	opsPerSec   float64    // peer operations ÷ wall time, after the warm-up chunks
	chunkMedian float64    // median over chunks of the same, a diagnostic
	rttUS       [4]float64 // p50, p90, p99, max of the round trips after warm-up
	ops, writes float64    // peer operations completed, for the live ratios
	cpuShare    float64    // processor time the process used ÷ what the CPUs offered, over the loop
	live        liveDelta
}

// tally counts operations over a whole run.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) add(r *runner) {
	t.attempted += r.attempted.Load()
	t.failed += r.failed.Load()
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// runWorkload executes one run of one workload: rounds, each on a fresh
// node, that yield the end-to-end metrics and the live per-layer ones and,
// when opts.trace is set, the diagnostic pass and the traced ladder
// afterwards in the same process.
func runWorkload(opts runOptions) (*record, error) {
	sp, ok := specByName(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	rec := &record{
		Workload: sp.name, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace, Short: opts.short,
		OpCounts: map[string]int{"rounds": rounds, "batch": sp.batch, "conns": opts.conns, "in_flight": sp.inFlight},
		EndToEnd: map[string]metricValue{},
		PerLayer: map[string]metricValue{},
	}
	var tl tally
	results := make([]roundResult, 0, rounds)
	for i := 0; i < rounds; i++ {
		st, sz, err := generate(sp, roundSeed(opts.seed, i), opts.seconds, opts.conns, opts.div(), false)
		if err != nil {
			return nil, err
		}
		rec.OpCounts["prefill_peers"], rec.OpCounts["closed_requests"], rec.OpCounts["chunk_requests"] = sz.n0, len(st.closed), sz.chunkReqs
		res, err := runRound(opts, sp, st, sz, i, rec, &tl)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		results = append(results, res)
	}
	reportRounds(rec, results)

	if opts.trace {
		st, sz, err := generate(sp, roundSeed(opts.seed, rounds), opts.seconds, opts.conns, opts.div(), true)
		if err != nil {
			return nil, err
		}
		rec.OpCounts["open_requests"] = len(st.open)
		if err := diagnosticPass(opts, sp, st, sz, rec, &tl); err != nil {
			return nil, fmt.Errorf("diagnostic pass: %w", err)
		}
		if err := runLadder(opts, sp, st, sz, ladderStream(st, sz), rec); err != nil {
			return nil, err
		}
	}

	rec.Attempted, rec.Failed, rec.Errors = tl.attempted, tl.failed, tl.errs
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	setUnits(rec.EndToEnd, endToEnd)
	setUnits(rec.PerLayer, perLayer)
	return rec, nil
}

// runRound is one complete small run on a node of its own: timed setup, a
// checkpoint at rest, the closed loop, memory, the oracle, and a crash copy
// reopened under the clock. The oracle's exhaustive checks, and those of
// the recovered state, run in round 0 only.
func runRound(opts runOptions, sp spec, st *streams, sz sizes, round int, rec *record, tl *tally) (res roundResult, err error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(opts.log, "round %d: "+format+"\n", append([]any{round}, args...)...)
	}
	runtime.GC()
	res.passUS[0] = speedProbe(opts.short)
	n, secs, err := setup(opts.dataDir, opts.conns, st)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := n.close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing node: %w", cerr)
		}
	}()
	res.setupSecs = secs
	if round == 0 {
		rec.Stamp = makeStamp(n.dir)
	}

	// A checkpoint at rest: recovery then loads this snapshot and replays
	// the closed loop's writes as the log tail.
	runtime.GC()
	t0 := now()
	if err := n.clu.Checkpoint(); err != nil {
		return res, fmt.Errorf("checkpoint: %w", err)
	}
	res.ckptSecs = float64(now()-t0) / 1e9
	res.snapBytes = snapshotBytes(n.dir)

	r := newRunner(n, newModel(st, sz.oracleJoin))
	defer func() { tl.add(r) }()
	runtime.GC()
	res.passUS[1] = speedProbe(opts.short)
	before := readCounters(n.clu)
	closed := r.closedLoop(st.closed, sp.inFlight, sz.chunkReqs, nil, st.closedBg)
	after := readCounters(n.clu)
	res.loop = summarise(closed, sz.chunkReqs, sp)
	res.loop.live.add(&before, &after)
	loopSecs := float64(closed.chunkEnds[len(closed.chunkEnds)-1]-closed.chunkEnds[0]) / 1e9
	res.loop.cpuShare = res.loop.live.cpuNS / 1e9 / loopSecs / float64(runtime.NumCPU())
	logf("setup %.3fs, checkpoint %.3fs, closed loop %d requests in %.2fs: %.0f ops/s (chunk median %.0f), rtt p50 %.1fus, %.0f GC cycles, CPUs %.0f%% busy",
		res.setupSecs, res.ckptSecs, len(st.closed), loopSecs,
		res.loop.opsPerSec, res.loop.chunkMedian, res.loop.rttUS[0], res.loop.live.gc, 100*res.loop.cpuShare)
	closed = closedResult{}

	// Memory: with the request streams dropped, what is left on the heap is
	// the node's state plus the benchmark's 4-byte-per-peer model.
	st.closed, st.closedBg = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.bytesPerPeer = float64(ms.HeapInuse) / float64(n.clu.NumPeers())
	res.passUS[2] = speedProbe(opts.short) // right after two collections: nothing of the loop is still running
	logf("heap in use %.1f MB, allocated %.1f MB", float64(ms.HeapInuse)/1e6, float64(ms.HeapAlloc)/1e6)

	// Oracle at quiescence.
	var answers []answer
	if round == 0 {
		var mismatches []error
		answers, mismatches = r.verify(rand.New(rand.NewSource(opts.seed<<8|3)), sz.oracleLook, sz.oracleJoin)
		for _, err := range mismatches {
			tl.errs = append(tl.errs, err.Error())
		}
		logf("oracle: %d lookups and %d joins checked, %d mismatches", sz.oracleLook, sz.oracleJoin, len(mismatches))
	}

	// Crash and recover: copy the directory as a kill would leave it and
	// time a fresh cluster opening it.
	dir, err := copyDataDir(n.dir, opts.dataDir)
	if err != nil {
		return res, fmt.Errorf("crash copy: %w", err)
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	res.passUS[3] = speedProbe(opts.short)
	t0 = now()
	re, err := cluster.New(clusterConfig(dir, nil))
	res.recoverySecs = float64(now()-t0) / 1e9
	if err != nil {
		return res, fmt.Errorf("recovery: %w", err)
	}
	res.replaySecs = re.DurabilityStats().ReplayTime.Seconds()
	if round == 0 {
		tl.attempted += int64(len(answers)) + 1
		for _, err := range r.verifyRecovered(re, answers) {
			tl.fail("%v", err)
		}
	} else {
		tl.attempted++
		if got, want := re.NumPeers(), int(r.m.resident.Load()); got != want {
			tl.fail("recovered node holds %d peers, acknowledged state has %d", got, want)
		}
	}
	if err := re.Close(); err != nil {
		return res, fmt.Errorf("closing recovered node: %w", err)
	}
	logf("memory %.0f B/peer for %d peers, recovery %.3fs (replay %.3fs); probe passes before setup, before and after the loop, before recovery %.0f us",
		res.bytesPerPeer, n.clu.NumPeers(), res.recoverySecs, res.replaySecs, res.passUS)
	return res, nil
}

// summarise reduces a closed loop to its numbers. An op is one peer
// operation: a batch of 32 joins counts 32.
func summarise(res closedResult, chunkReqs int, sp spec) loopSummary {
	var sum loopSummary
	units := 1.0
	if sp.batch > 0 {
		units = float64(sp.batch)
	}
	ends := res.chunkEnds
	warm := ends[min(warmupChunks, len(ends)-1)]
	if span := float64(ends[len(ends)-1] - warm); span > 0 {
		sum.opsPerSec = units * float64((len(ends)-1-warmupChunks)*chunkReqs) / (span / 1e9)
	}
	sum.chunkMedian = median(chunkRates(ends, units*float64(chunkReqs), warmupChunks))
	var rtt []int64
	for i := range res.samples {
		s := &res.samples[i]
		if !s.ok {
			continue
		}
		sum.ops += units
		if s.kind.isWrite() {
			sum.writes += units
		}
		if s.end > warm {
			rtt = append(rtt, s.end-s.start)
		}
	}
	us := sortedFloats(rtt, 1e3)
	for i, p := range [4]float64{50, 90, 99, 100} {
		sum.rttUS[i] = percentile(us, p)
	}
	return sum
}

// reportRounds turns the rounds into the end-to-end metrics — each the
// median over the rounds of the round's value, timings corrected to the
// nominal machine speed by the probe around them — and the live per-layer
// ones, which stay as measured.
func reportRounds(rec *record, results []roundResult) {
	series := map[string][]float64{}
	var live liveDelta
	var ops, writes float64
	for i := range results {
		res := &results[i]
		loopPass := (res.passUS[1] + res.passUS[2]) / 2
		for name, v := range map[string]float64{
			"setup_s":        corrected(res.setupSecs, res.passUS[0], false),
			"ops_per_s":      corrected(res.loop.opsPerSec, loopPass, true),
			"rtt_p50_us":     corrected(res.loop.rttUS[0], loopPass, false),
			"bytes_per_peer": res.bytesPerPeer,
			"recovery_s":     corrected(res.recoverySecs, res.passUS[3], false),

			"raw.setup_s": res.setupSecs, "raw.ops_per_s": res.loop.opsPerSec, "raw.rtt_p50_us": res.loop.rttUS[0], "raw.recovery_s": res.recoverySecs,
			"process.probe_pass_us": loopPass, "process.cpu_busy_share": 100 * res.loop.cpuShare,
			"probe.before_setup_us": res.passUS[0], "probe.before_loop_us": res.passUS[1], "probe.after_loop_us": res.passUS[2], "probe.before_recovery_us": res.passUS[3],
			"client.rtt_p90_us": res.loop.rttUS[1], "client.rtt_p99_us": res.loop.rttUS[2], "client.rtt_max_ms": res.loop.rttUS[3] / 1e3,
			"client.chunk_ops_per_s": res.loop.chunkMedian,
			"cluster.checkpoint_s":   res.ckptSecs, "cluster.checkpoint_bytes": res.snapBytes,
			"cluster.replay_s": res.replaySecs, "cluster.snapshot_load_s": res.recoverySecs - res.replaySecs,
		} {
			series[name] = append(series[name], v)
		}
		live.addDelta(&res.loop.live)
		ops, writes = ops+res.loop.ops, writes+res.loop.writes
	}
	for _, d := range endToEnd {
		rec.e2e(d.Name, median(series[d.Name]))
	}
	for _, d := range perLayer {
		if vals, ok := series[d.Name]; ok {
			rec.layer(d.Name, median(vals))
		}
	}
	rec.Rounds = series
	reportLive(rec, live, ops, writes)
}

// diagnosticPass is the part of a traced run that needs a live node but
// yields only per-layer numbers: an open loop with a follower and a
// subscriber attached, then a closed loop with checkpoints under load.
func diagnosticPass(opts runOptions, sp spec, st *streams, sz sizes, rec *record, tl *tally) (err error) {
	n, _, err := setup(opts.dataDir, opts.conns, st)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := n.close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing node: %w", cerr)
		}
	}()
	r := newRunner(n, newModel(st, 0))
	defer func() { tl.add(r) }()

	cons, err := attachConsumers(n)
	if err != nil {
		return fmt.Errorf("attaching consumers: %w", err)
	}
	rec.layer("netserver.follow_catchup_s", cons.catchupSecs)
	r.cons = cons
	runtime.GC()
	open := r.openLoop(st.open, openWorkers, nil)
	r.cons = nil
	lostApplies, lostPushes := cons.settle(time.Second)
	if lostApplies > 0 || lostPushes*100 > cons.wantPush {
		tl.fail("%d committed writes never reached the follower, %d of %d never the subscriber", lostApplies, lostPushes, cons.wantPush)
	}
	reportOpen(rec, open, cons, lostPushes)
	cons.detach()
	fmt.Fprintf(opts.log, "open loop: %d requests, p50 %.3fms p90 %.3fms, push p50 %.3fms, replica p50 %.3fms\n",
		len(open), rec.PerLayer["client.open_p50_ms"].Value, rec.PerLayer["client.open_p90_ms"].Value,
		rec.PerLayer["sub.push_p50_ms"].Value, rec.PerLayer["netserver.follow_lag_p50_ms"].Value)

	ckptAt := make([]int, checkpoints)
	for i := range ckptAt {
		ckptAt[i] = len(st.closed) * (4 + 5*i) / 20 // 20%, 45%, 70%
	}
	runtime.GC()
	closed := r.closedLoop(st.closed, sp.inFlight, sz.chunkReqs, ckptAt, st.closedBg)
	if closed.ckptErrs > 0 || len(closed.ckpts) != checkpoints {
		tl.fail("%d of %d checkpoints ran, %d failed", len(closed.ckpts), checkpoints, closed.ckptErrs)
	}
	reportLoaded(rec, closed)
	fmt.Fprintf(opts.log, "closed loop under checkpoints: checkpoint %.3fs, p90 of requests overlapping one %.3fms\n",
		rec.PerLayer["cluster.checkpoint_loaded_s"].Value, rec.PerLayer["client.ckpt_p90_ms"].Value)
	return nil
}

func setUnits(m map[string]metricValue, defs []metricDef) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			v.Unit = d.Unit
			m[d.Name] = v
		}
	}
}

// reportOpen turns the open loop's samples into its per-layer metrics.
func reportOpen(rec *record, samples []sample, cons *consumers, lostPushes int) {
	var lat, late []int64
	var first, last int64
	lateCount := 0
	for i := range samples {
		s := &samples[i]
		if !s.primary || s.end == 0 {
			continue
		}
		if first == 0 {
			first = s.start
		}
		last = s.start
		late = append(late, s.start-s.due)
		if s.start-s.due > int64(time.Millisecond) {
			lateCount++
		}
		if s.ok {
			lat = append(lat, s.end-s.due)
		}
	}
	ms := sortedFloats(lat, 1e6)
	rec.layer("client.open_p50_ms", percentile(ms, 50))
	rec.layer("client.open_p90_ms", percentile(ms, 90))
	rec.layer("client.open_p99_ms", percentile(ms, 99))
	rec.layer("client.open_max_ms", percentile(ms, 100))

	lateMS := sortedFloats(late, 1e6)
	share := 100 * float64(lateCount) / float64(max(len(late), 1))
	rec.layer("loadgen.late_p99_ms", percentile(lateMS, 99))
	rec.layer("loadgen.late_share", share)
	rec.layer("loadgen.achieved_rate", float64(len(late)-1)/(float64(last-first)/1e9))
	if share > maxLateShare {
		rec.Invalid = fmt.Sprintf("open-loop generator started %.1f%% of requests more than 1ms late", share)
	}

	cons.mu.Lock()
	push, repl, maxLag := sortedFloats(cons.push, 1e6), sortedFloats(cons.replica, 1e6), cons.maxLag
	cons.mu.Unlock()
	rec.layer("sub.push_p50_ms", percentile(push, 50))
	rec.layer("netserver.follow_lag_p50_ms", percentile(repl, 50))
	rec.layer("sub.push_p99_ms", percentile(push, 99))
	rec.layer("sub.dropped", float64(lostPushes))
	rec.layer("netserver.follow_lag_p99_ms", percentile(repl, 99))
	rec.layer("netserver.follow_max_lag_records", float64(maxLag))
	rec.OpCounts["push_samples"], rec.OpCounts["replica_samples"] = len(push), len(repl)
}

// reportLoaded reports what the diagnostic pass's closed loop is for: the
// checkpoint under load and the stall it causes.
func reportLoaded(rec *record, res closedResult) {
	var under []int64
	for i := range res.samples {
		if s := &res.samples[i]; s.ok && overlapsAny(res.ckpts, s.start, s.end) {
			under = append(under, s.end-s.start)
		}
	}
	rec.layer("client.ckpt_p90_ms", percentile(sortedFloats(under, 1e6), 90))
	rec.OpCounts["ckpt_samples"] = len(under)
	durs := make([]float64, len(res.ckpts))
	for i, iv := range res.ckpts {
		durs[i] = float64(iv.end-iv.start) / 1e9
	}
	rec.layer("cluster.checkpoint_loaded_s", median(durs))
}

// reportLive derives the live per-layer metrics from the counter deltas
// over the rounds' closed loops.
func reportLive(rec *record, d liveDelta, ops, writes float64) {
	set := rec.layer
	set("wal.records_per_fsync", d.synced/math.Max(d.fsyncs, 1))
	set("wal.fsyncs_per_op", d.fsyncs/math.Max(writes, 1))
	set("process.cpu_us_per_op", d.cpuNS/1e3/ops)
	set("process.allocs_per_op", d.mallocs/ops)
	set("process.alloc_bytes_per_op", d.allocBytes/ops)
	set("process.gc_pause_total_ms", d.pauseNS/1e6)
	set("process.gc_cycles", d.gc)
	set("process.rss_peak_mb", peakRSSMB())
}
