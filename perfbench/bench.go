package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tricomm"
	"tricomm/internal/obs"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration // length of each timed window
	trace    bool
	setSize  int // ops in the fixed op set; 0 means the workload's own
	setups   int // set-ups per run; setup_s is their median
	dir      string
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// phases are the named protocol phases of the interactive tester; bits
// outside them are reported as "unphased".
var phases = []string{"estimate", "candidates", "edges"}

// endToEnd are the metrics of an untraced run, as a user sees them.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"bits_per_op", "bits"},
	{"detect_rate", "ratio"},
	{"alloc_mb_per_op", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, one layer each.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"scenario.build_ms", "ms"},
		{"partition.split_ms", "ms"},
		{"engine.views_ms", "ms"},
		{"protocol.session_ms", "ms"},
		{"protocol.mallocs_per_op", "count"},
		{"runtime.gc_cycles_per_op", "count"},
		{"parwork.parallel_s_per_op", "s"},
		{"engine.rounds_per_op", "count"},
		{"engine.messages_per_op", "count"},
		{"transport.frames_per_op", "count"},
		{"transport.wire_bytes_per_op", "bytes"},
		{"transport.tcp_overhead_ms", "ms"},
		{"service.submit_ms", "ms"},
		{"service.stream_ms", "ms"},
		{"service.page_ms", "ms"},
		{"service.trial_ms", "ms"},
		{"service.wait_ms", "ms"},
		{"service.store_put_job_ms", "ms"},
		{"service.store_put_trial_ms", "ms"},
		{"service.store_fsyncs_per_op", "count"},
		{"service.rejected_per_op", "count"},
		{"trace.untraced_throughput_ops_s", "1/s"},
		{"trace.traced_throughput_ops_s", "1/s"},
		{"trace.overhead_pct", "%"},
	}
	for _, p := range phases {
		ms = append(ms, metricDef{"engine.phase_s." + p, "s"})
	}
	for _, p := range append(slices.Clone(phases), "unphased") {
		ms = append(ms, metricDef{"protocol.phase_bits." + p, "bits"})
	}
	return ms
}()

// outcome is what one invocation measured.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]float64 // every metric computed, by name
	notes     []string           // human-readable lines: sample counts and extras
}

// counters is one scrape of the process-global obs registry, by series
// identity (name{labels}).
type counters map[string]float64

func readCounters() counters {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		panic(err) // writes to a bytes.Buffer do not fail
	}
	e, err := obs.CheckExposition(&buf)
	if err != nil {
		panic(fmt.Sprintf("obs exposition: %v", err)) // the registry renders valid text
	}
	c := make(counters, len(e.Samples))
	for _, s := range e.Samples {
		id := s.Name
		if s.Labels != "" {
			id += "{" + s.Labels + "}"
		}
		c[id] = s.Value
	}
	return c
}

// delta is the change of series id from c to later.
func (c counters) delta(later counters, id string) float64 { return later[id] - c[id] }

// sumDelta is the change of every series of family name from c to later.
func (c counters) sumDelta(later counters, name string) float64 {
	var d float64
	for id, v := range later {
		if id == name || (len(id) > len(name) && id[:len(name)+1] == name+"{") {
			d += v - c[id]
		}
	}
	return d
}

// snapshot is process state at the edge of a measured phase.
type snapshot struct {
	mem runtime.MemStats
	obs counters
}

func snap() snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	s.obs = readCounters()
	return s
}

// window is the results of one closed-loop measurement.
type window struct {
	results []result
	wall    time.Duration
}

// throughput is the window's completed ops per wall second.
func (w window) throughput() float64 {
	return float64(len(latencies(w.results))) / w.wall.Seconds()
}

// measure runs ops closed loop: each of callers takes the next op of the
// fixed set, cycling, and starts another only when it completes. Callers
// stop starting ops once d has elapsed and at least minOps have started.
func measure(ctx context.Context, tgt target, callers int, ops []op, d time.Duration, minOps int, tr *tracer) window {
	var next atomic.Int64
	out := make([][]result, callers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				id := int(next.Add(1) - 1)
				if id >= minOps && time.Now().After(deadline) {
					return
				}
				root := tr.begin(id, -1, "op")
				t := time.Now()
				r := tgt.do(ctx, c, ops[id%len(ops)], tr, id, root)
				r.lat = time.Since(t)
				tr.end(root)
				r.idx, r.opID = id%len(ops), id
				out[c] = append(out[c], r)
			}
		}()
	}
	wg.Wait()
	w := window{wall: time.Since(start)}
	for _, rs := range out {
		w.results = append(w.results, rs...)
	}
	return w
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func latencies(rs []result) []time.Duration {
	ds := make([]time.Duration, 0, len(rs))
	for _, r := range rs {
		if r.err == nil {
			ds = append(ds, r.lat)
		}
	}
	return ds
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// bench runs one workload: set-up (several times), the untraced timed
// window, and with cfg.trace the traced window and the exact-count passes;
// then it checks every output.
func bench(ctx context.Context, cfg config) (outcome, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return outcome{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	n := w.setSize
	if cfg.setSize > 0 {
		n = cfg.setSize
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.makeOp(i, opSeed(cfg.seed, i))
	}
	// Warm-up ops come from a fixed seed, so every run's set-up does the
	// same work whatever its workload seed.
	warm := make([]op, w.warmup)
	for i := range warm {
		warm[i] = w.makeOp(i, opSeed(0, i))
	}
	var all, warmed []result // every result, checked at the end
	o := outcome{metrics: make(map[string]float64)}
	m := o.metrics

	// open starts a target and runs the warm-up ops on it.
	open := func() (target, error) {
		tgt, err := openTarget(w, cfg.dir)
		if err != nil {
			return nil, err
		}
		for i, op := range warm {
			r := tgt.do(ctx, 0, op, nil, -1, -1)
			r.idx = i
			warmed = append(warmed, r)
		}
		return tgt, nil
	}

	// Set-up, several times; the last target is kept for the timed window.
	var tgt target
	var setups []time.Duration
	for s := 0; s < max(cfg.setups, 1); s++ {
		if tgt != nil {
			if err := tgt.close(); err != nil {
				return o, err
			}
		}
		t0 := time.Now()
		var err error
		if tgt, err = open(); err != nil {
			return o, err
		}
		setups = append(setups, time.Since(t0))
	}

	// A traced run splits the measuring time between an untraced and a
	// traced window and takes its exact counts from a separate pass; an
	// untraced run covers the whole op set at least once.
	d, minOps := cfg.window, n
	if cfg.trace {
		d, minOps = cfg.window/2, 0
	}
	s0 := snap()
	win := measure(ctx, tgt, w.callers, ops, d, minOps, nil)
	s1 := snap()
	if err := tgt.close(); err != nil {
		return o, err
	}
	all = append(all, win.results...)
	ops64 := float64(len(win.results))
	lat := latencies(win.results)
	m["throughput_ops_s"] = win.throughput()
	m["latency_p50_ms"] = ms(quantile(lat, 0.5))
	m["latency_p90_ms"] = ms(quantile(lat, 0.9))
	m["alloc_mb_per_op"] = float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc) / 1e6 / ops64
	m["setup_s"] = quantile(setups, 0.5).Seconds()
	m["runtime.gc_cycles_per_op"] = float64(s1.mem.NumGC-s0.mem.NumGC) / ops64
	o.notes = append(o.notes, fmt.Sprintf("timed window: %d ops in %.3f s, %d callers, %d latency samples; set-up median of %d",
		len(win.results), win.wall.Seconds(), w.callers, len(lat), len(setups)))
	if len(lat) >= 1000 {
		o.notes = append(o.notes, fmt.Sprintf("latency_p99_ms %.4f ms (n=%d)", ms(quantile(lat, 0.99)), len(lat)))
	}

	if cfg.trace {
		if err := traced(ctx, cfg, w, ops, win, open, &all, m); err != nil {
			return o, err
		}
	}

	// Check every output, then derive the exact counts from the checked
	// results of the fixed op set.
	failures, facts := verify(ops, all)
	warmFailures, _ := verify(warm, warmed)
	o.attempted, o.failures = len(all)+len(warmed), append(failures, warmFailures...)
	var bits int64
	var far, found int
	for _, f := range facts {
		if f.ref == nil {
			continue // failed or never run: already counted
		}
		bits += f.ref.bits
		if f.certFar {
			far++
			if !f.ref.free {
				found++
			}
		}
	}
	m["bits_per_op"] = float64(bits) / float64(n)
	if far > 0 {
		m["detect_rate"] = float64(found) / float64(far)
	}
	o.notes = append(o.notes, fmt.Sprintf("exact counts over the fixed set of %d ops (%d certified far, %d found)", n, far, found))
	return o, nil
}

// traced measures the per-layer metrics: a traced window on a fresh target,
// a chan replay of the op set for TCP workloads, and a single-caller pass
// over the op set for the exact per-op counts (on daemon-tiny against a
// FileStore with timed writes).
func traced(ctx context.Context, cfg config, w workload, ops []op, untraced window,
	open func() (target, error), all *[]result, m map[string]float64) error {
	n := len(ops)
	spans := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
	if err := os.Remove(spans); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}

	tr := newTracer()
	tgt, err := open()
	if err != nil {
		return err
	}
	s0 := snap()
	win := measure(ctx, tgt, w.callers, ops, cfg.window/2, 0, tr)
	if err := tgt.close(); err != nil {
		return err
	}
	s1 := snap()
	*all = append(*all, win.results...)
	tr.resolve(win.results)
	if err := tr.write(spans, "traced-window"); err != nil {
		return err
	}
	perOp := float64(len(win.results))
	self := tr.selfTimes()
	for _, name := range []string{"scenario.build", "partition.split", "engine.views", "protocol.session",
		"service.submit", "service.stream", "service.page"} {
		m[name+"_ms"] = ms(self[name]) / perOp
	}
	for _, p := range phases {
		m["engine.phase_s."+p] = s0.obs.delta(s1.obs, `tricomm_engine_phase_seconds_total{phase="`+p+`"}`) / perOp
	}
	m["parwork.parallel_s_per_op"] = s0.obs.sumDelta(s1.obs, "tricomm_engine_phase_parallel_seconds_total") / perOp
	m["service.rejected_per_op"] = s0.obs.delta(s1.obs, "tricomm_service_admission_rejected_total") / perOp
	if trials := s0.obs.delta(s1.obs, "tricomm_service_trial_seconds_count"); trials > 0 {
		m["service.trial_ms"] = 1e3 * s0.obs.delta(s1.obs, "tricomm_service_trial_seconds_sum") / trials
		var latSum time.Duration
		for _, d := range latencies(win.results) {
			latSum += d
		}
		m["service.wait_ms"] = ms(latSum)/perOp - m["service.trial_ms"]
	}
	m["trace.untraced_throughput_ops_s"] = untraced.throughput()
	m["trace.traced_throughput_ops_s"] = win.throughput()
	m["trace.overhead_pct"] = 100 * (1 - win.throughput()/untraced.throughput())

	// TCP workloads: replay the op set over chan with the same callers;
	// the difference in session p50 is what the transport adds.
	if ops[0].opts.Transport == tricomm.TransportTCP {
		chanOps := slices.Clone(ops)
		for i := range chanOps {
			chanOps[i].opts.Transport = tricomm.TransportInProcess
		}
		ctr := newTracer()
		replay := measure(ctx, facade{}, w.callers, chanOps, 0, n, ctr)
		*all = append(*all, replay.results...)
		m["transport.tcp_overhead_ms"] = ms(tr.p50("protocol.session") - ctr.p50("protocol.session"))
		if err := ctr.write(spans, "chan-replay"); err != nil {
			return err
		}
	}

	// Exact counts: one caller, one pass over the op set on a fresh target;
	// the obs deltas are read after the target has closed, so every store
	// write of the pass has landed.
	etr := &tracer{t0: time.Now(), counts: !w.daemon}
	if w.daemon {
		tgt, err = openDaemon(cfg.dir, 1, true, etr)
	} else {
		tgt, err = openTarget(w, cfg.dir)
	}
	if err != nil {
		return err
	}
	e0 := snap()
	exact := measure(ctx, tgt, 1, ops, 0, n, etr)
	if err := tgt.close(); err != nil {
		return err
	}
	e1 := snap()
	*all = append(*all, exact.results...)
	fn := float64(n)
	if w.daemon {
		etr.resolve(exact.results)
		if err := etr.write(spans, "exact-pass"); err != nil {
			return err
		}
		total := etr.durations()
		m["service.store_put_job_ms"] = ms(total["service.store_put_job"]) / fn
		m["service.store_put_trial_ms"] = ms(total["service.store_put_trial"]) / fn
		// The daemon's sessions run out of reach of the spans; replay the
		// same trials through the facade to count their mallocs.
		etr = &tracer{t0: time.Now(), counts: true}
		*all = append(*all, measure(ctx, facade{}, 1, ops, 0, n, etr).results...)
	}
	m["protocol.mallocs_per_op"] = float64(etr.allocs) / fn
	m["engine.rounds_per_op"] = e0.obs.delta(e1.obs, "tricomm_engine_rounds_total") / fn
	m["engine.messages_per_op"] = e0.obs.delta(e1.obs, "tricomm_engine_messages_total") / fn
	m["transport.frames_per_op"] = e0.obs.delta(e1.obs, "tricomm_transport_frames_total") / fn
	m["transport.wire_bytes_per_op"] = e0.obs.delta(e1.obs, "tricomm_transport_wire_bytes_total") / fn
	m["service.store_fsyncs_per_op"] = e0.obs.delta(e1.obs, "tricomm_service_store_fsyncs_total") / fn
	phased := 0.0
	for _, p := range phases {
		b := e0.obs.delta(e1.obs, `tricomm_engine_phase_bits_total{phase="`+p+`"}`)
		m["protocol.phase_bits."+p] = b / fn
		phased += b
	}
	m["protocol.phase_bits.unphased"] = (e0.obs.delta(e1.obs, "tricomm_engine_bits_total") - phased) / fn
	return nil
}
