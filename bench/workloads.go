package main

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"
)

// workload is one fixed-rate, open-loop traffic mix. The engine's own
// source paces against absolute deadlines and does not slow when the
// dataflow does; the harness only sets the rate. Rates are constants
// sized for about two cores and one process.
type workload struct {
	name, why string
	cfg       sutConfig
	// migrating fills the measured window with live enactments 250 ms
	// apart. The other workloads keep the window steady and enact a short
	// series after it, so that every workload yields every metric.
	migrating bool
}

var workloads = []workload{
	{
		name: "firehose-linear",
		why:  "Linear CCR at 50k ev/s: full link batches end to end, so fabric stage/flush, queue batch ops, the executor loop and the sink's recorders do the work; acker and checkpoints idle",
		cfg:  sutConfig{dag: "linear", rate: 50000},
	},
	{
		name: "trickle-grid",
		why:  "Grid CCR at 500 ev/s: every link batch flushes on the 1 ms deadline, so timers, shard wake-ups and single queue ops dominate and latency is the headline",
		cfg:  sutConfig{dag: "grid", rate: 500},
	},
	{
		name: "acked-grid",
		why:  "Grid DSM at 800 ev/s with 2 s checkpoints: always-on acking per hop, source cache and periodic PREPARE/COMMIT waves that both CCR workloads bypass",
		// 800 ev/s stays below the 1024 roots/s that MaxSpoutPending's
		// 250 ms poll can sustain, so a stall that fills the pending cap
		// is recovered from; at 2000 ev/s it is not (README, pathologies).
		cfg: sutConfig{dag: "grid", rate: 800, acked: true, checkpoint: 2 * time.Second},
	},
	{
		name:      "migrate-grid",
		why:       "Grid CCR at 5k ev/s under back-to-back CCR and DCR enactments: checkpoint waves, state encode/restore and kill/respawn do the work, data path lightly loaded",
		cfg:       sutConfig{dag: "grid", rate: 5000},
		migrating: true,
	},
}

const (
	warmUp    = 2 * time.Second
	setupReps = 9
	// A migrating window enacts this often, this far apart.
	enactmentsPerSecond = 3
	migrateGap          = 250 * time.Millisecond
	// A steady workload enacts this many times after its window, a
	// multiple of four so both strategies see both directions equally.
	epilogueEnactments = 32
	epilogueGap        = 80 * time.Millisecond
	enactRate          = 5000 // ev/s; the highest rate enacted at
	minDelivered       = 0.99
)

// enactment is one timed ScaleWith call. at holds the instants the
// engine's phase callback fired (traced pass only).
type enactment struct {
	strategy   string
	start, end time.Time
	at         map[string]time.Time
	err        error
}

// runState is the state of one workload run.
type runState struct {
	w      workload
	tr     *tracer
	root   int // span of the whole run
	enacts []enactment
	// attempted and failed count operations over every job of the run.
	attempted, failed int64
	problems          []string
	// boundaryViolations counts sink arrivals of payloads stamped older
	// than a DCR enactment after the first one stamped with it. It is
	// reported, not failed: the engine stamps the new generation a moment
	// before it pauses the sources, and a root emitted in between is
	// "new" yet travels ahead of the drain (README, pathologies).
	boundaryViolations int
}

func (r *runState) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// enact runs n enactments on s, gap apart, cycling CCR, DCR, DCR, CCR
// while the direction alternates out/in, so each strategy is timed in
// both directions.
func (r *runState) enact(s *sut, n int, gap time.Duration) {
	strategies := [4]string{"CCR", "DCR", "DCR", "CCR"}
	for i := 0; i < n; i++ {
		wall.Sleep(gap)
		k := len(r.enacts)
		r.enacts = append(r.enacts, enactment{strategy: strategies[k%4], at: map[string]time.Time{}})
		e := &r.enacts[k]
		e.start = wall.Now()
		e.err = s.enact(e.strategy, k%2 == 0)
		e.end = wall.Now()
		r.attempted++
		if e.err != nil {
			r.fail(1, "enactment %d (%s): %v", k, e.strategy, e.err)
		}
		r.spanEnactment(e)
	}
}

// notePhase stamps a phase transition of the enactment in flight. The
// engine calls it on the migrating goroutine while enact is blocked in
// the call, and the call's return orders the write before any read.
func (r *runState) notePhase(phase string) {
	if n := len(r.enacts); n > 0 {
		r.enacts[n-1].at[phase] = wall.Now()
	}
}

// spanEnactment records an enactment and the phases inside it.
func (r *runState) spanEnactment(e *enactment) {
	id := r.tr.add("scale-"+e.strategy, "job", r.root, e.start, e.end)
	if req, ok := e.at["requested"]; ok && e.err == nil {
		r.tr.add("drain", "core", id, req, e.at["drain-end"])
		r.tr.add("rebalance", "core", id, e.at["drain-end"], e.at["rebalance-end"])
		r.tr.add("restore", "core", id, e.at["rebalance-end"], e.end)
	}
}

// spanMs is the median over one strategy's successful enactments of the
// given span, in milliseconds, and how many there were.
func (r *runState) spanMs(strategy string, span func(e enactment) time.Duration) (float64, int) {
	var xs []float64
	for _, e := range r.enacts {
		if e.strategy == strategy && e.err == nil {
			xs = append(xs, ms(span(e)))
		}
	}
	return median(xs), len(xs)
}

// whole is an enactment from request to return: the ScaleWith wall time.
func whole(e enactment) time.Duration { return e.end.Sub(e.start) }

// snapshot is what the window's rates are differences of.
type snapshot struct {
	t        time.Time
	cpu      time.Duration
	mallocs  uint64
	arrivals int
}

func take(s *sut) snapshot {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return snapshot{t: wall.Now(), cpu: cpuTime(), mallocs: m.Mallocs, arrivals: s.sinkArrivals()}
}

// heapAfterGC is the live heap once garbage is collected.
func heapAfterGC() uint64 {
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.HeapAlloc
}

// second is one second of the measured window. A run reports the median
// of its seconds, so that a stall of the host moves one sample and not
// the result.
type second struct {
	cpuPerEvent float64 // µs of process CPU per sink arrival
	latN        int
	// ms, emit→sink, over the collector's last full second
	p50, p95, p99 float64
	sampled       bool // the sampler was running (traced pass)
}

// medianOf takes the median of one field over the seconds that pass keep.
func medianOf(secs []second, keep func(second) bool, field func(second) float64) float64 {
	var xs []float64
	for _, s := range secs {
		if keep(s) {
			xs = append(xs, field(s))
		}
	}
	return median(xs)
}

func all(second) bool        { return true }
func sampled(s second) bool  { return s.sampled }
func bare(s second) bool     { return !s.sampled }
func cpuOf(s second) float64 { return s.cpuPerEvent }

// setupTimes is the cost of bringing a job up, by step, one entry per
// repetition.
type setupTimes struct {
	total, submit, start, stop []float64 // seconds, ms, ms, ms
	goroutinesAfterStop        int
}

// measureSetup deploys, starts and stops the workload's job setupReps
// times. Set-up ends at the first sink arrival: the job is then serving.
func (r *runState) measureSetup(cfg sutConfig) (setupTimes, error) {
	var st setupTimes
	for i := 0; i < setupReps; i++ {
		before := goruntime.NumGoroutine()
		t0 := wall.Now()
		s, err := submit(cfg)
		if err != nil {
			return st, err
		}
		t1 := wall.Now()
		if err := s.start(); err != nil {
			return st, err
		}
		t2 := wall.Now()
		for s.sinkArrivals() == 0 {
			if wall.Since(t2) > 10*time.Second {
				s.stop()
				return st, fmt.Errorf("no sink arrival within 10 s of start")
			}
			wall.Sleep(100 * time.Microsecond)
		}
		t3 := wall.Now()
		s.stop()
		t4 := wall.Now()
		st.total = append(st.total, t3.Sub(t0).Seconds())
		st.submit = append(st.submit, ms(t1.Sub(t0)))
		st.start = append(st.start, ms(t2.Sub(t1)))
		st.stop = append(st.stop, ms(t4.Sub(t3)))
		if leaked := goruntime.NumGoroutine() - before; leaked > st.goroutinesAfterStop {
			st.goroutinesAfterStop = leaked
		}
		id := r.tr.add("setup", "job", r.root, t0, t3)
		r.tr.add("submit", "job", id, t0, t1)
		r.tr.add("start", "job", id, t1, t2)
		r.tr.add("first-arrival", "runtime", id, t2, t3)
		r.tr.add("stop", "job", r.root, t3, t4)
	}
	return st, nil
}

// settle drains s, checks its delivery accounting exactly and stops it.
// It returns the wall time of the drain and the engine's final counters.
func (r *runState) settle(s *sut) (time.Duration, counters) {
	t0 := wall.Now()
	err := s.drain()
	drain := wall.Since(t0)
	r.tr.add("drain", "job", r.root, t0, t0.Add(drain))
	if err != nil {
		r.fail(1, "drain: %v", err)
	}
	a, c, fanout := s.audit(), s.counters(), int64(s.fanout())
	r.attempted += int64(s.emitted()) * fanout
	r.fail(int64(a.lost)*fanout, "%d payloads never reached a sink", a.lost)
	r.fail(int64(a.duplicates), "%d payloads arrived more than %d times", a.duplicates, fanout)
	r.boundaryViolations += a.boundaryViolations
	r.fail(int64(c.ackerTimedOut), "%d acker time-outs", c.ackerTimedOut)
	r.fail(int64(c.waveFailures), "%d checkpoint wave failures", c.waveFailures)
	r.tr.timed("stop", "job", r.root, s.stop)
	return drain, c
}

// window is what the measured window yielded.
type window struct {
	secs         []second
	a, c         snapshot // at its start and end
	heap0, heap1 uint64   // live heap at its start and end
	seen         extremes // traced pass only
}

func (w window) arrivals() int { return w.c.arrivals - w.a.arrivals }

// measure runs the window on s, one second at a time. A migrating
// workload enacts three times in each second, which at ~25 ms apiece
// leaves the 250 ms gaps. The traced pass samples every other second, so
// that sampled and bare seconds share whatever state the host is in and
// their difference is the tracing overhead.
func (r *runState) measure(s *sut, n int) window {
	var win window
	win.heap0 = heapAfterGC()
	win.a = take(s)
	prev := win.a
	for i := 0; i < n; i++ {
		var sm *sampler
		if r.tr != nil && i%2 == 1 {
			sm = startSampler(s, r.w.cfg.rate)
		}
		if r.w.migrating {
			r.enact(s, enactmentsPerSecond, migrateGap)
		}
		wall.Sleep(win.a.t.Add(time.Duration(i+1) * time.Second).Sub(wall.Now()))
		cur := take(s)
		latN, p50, p95, p99 := s.lastSecondLatency()
		win.secs = append(win.secs, second{
			cpuPerEvent: us(cur.cpu-prev.cpu) / float64(cur.arrivals-prev.arrivals),
			latN:        latN, p50: ms(p50), p95: ms(p95), p99: ms(p99),
			sampled: sm != nil,
		})
		prev = cur
		if sm != nil {
			win.seen.fold(sm.halt())
		}
	}
	win.c = prev
	r.tr.add("window", "bench", r.root, win.a.t, win.c.t)
	win.heap1 = heapAfterGC()
	return win
}

// runWorkload measures w over a window of n seconds and returns its
// end-to-end metrics, or with a tracer its per-layer metrics.
func runWorkload(w workload, seed int64, n int, tr *tracer) (result, error) {
	w.cfg.seed = seed
	r := &runState{w: w, tr: tr}
	if tr != nil {
		tr.workload = w.name
		r.root = tr.add(w.name, "bench", 0, wall.Now(), wall.Now())
		defer tr.close(r.root)
	}

	setup, err := r.measureSetup(w.cfg)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}

	s, err := submit(w.cfg)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	var eventCount func() int // traced pass only
	if tr != nil {
		s.onPhase(r.notePhase)
		eventCount = s.countEvents()
	}
	if err := s.start(); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	tr.timed("warm-up", "bench", r.root, func() { wall.Sleep(warmUp) })
	win := r.measure(s, n)

	expected := w.cfg.rate * win.c.t.Sub(win.a.t).Seconds() * float64(s.fanout())
	delivered := float64(win.arrivals()) / expected
	if delivered < minDelivered {
		r.fail(int64(expected)-int64(win.arrivals()), "delivered %.4f of the offered load", delivered)
	}

	// Enactments after the window, on this job if its engine can enact
	// CCR and DCR, else on a CCR twin once this one has stopped. Above
	// enactRate a task can capture more events than a starting worker's
	// transport buffer holds, and the overflow is lost.
	if !w.migrating && s.canEnact() {
		if w.cfg.rate > enactRate {
			s.setRate(enactRate)
		}
		r.enact(s, epilogueEnactments, epilogueGap)
	}
	drain, end := r.settle(s)
	if !w.migrating && !s.canEnact() {
		twinCfg := w.cfg
		twinCfg.acked, twinCfg.checkpoint = false, 0
		twin, err := submit(twinCfg)
		if err != nil {
			return result{}, fmt.Errorf("%s: twin: %w", w.name, err)
		}
		if tr != nil {
			twin.onPhase(r.notePhase)
		}
		if err := twin.start(); err != nil {
			return result{}, fmt.Errorf("%s: twin: %w", w.name, err)
		}
		wall.Sleep(warmUp / 2)
		r.enact(twin, epilogueEnactments, epilogueGap)
		r.settle(twin)
	}

	res := result{Workload: w.name, Seed: seed, Seconds: n, Traced: tr != nil,
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems, Metrics: metricSet{}}
	if r.boundaryViolations > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d arrivals crossed a DCR boundary", r.boundaryViolations))
	}
	m := res.Metrics
	if tr == nil {
		arrivals, latN := win.arrivals(), 0
		for _, sec := range win.secs {
			latN += sec.latN
		}
		m.set("setup_s", median(setup.total), len(setup.total))
		m.set("allocs_per_event", float64(win.c.mallocs-win.a.mallocs)/float64(arrivals), arrivals)
		m.set("retained_bytes_per_event", (float64(win.heap1)-float64(win.heap0))/float64(arrivals), arrivals)
		m.set("latency_p50_ms", medianOf(win.secs, all, func(s second) float64 { return s.p50 }), latN)
		m.set("latency_p95_ms", medianOf(win.secs, all, func(s second) float64 { return s.p95 }), latN)
		m.set("delivered_ratio", delivered, arrivals)
		v, k := r.spanMs("CCR", whole)
		m.set("migrate_ccr_ms_p50", v, k)
		v, k = r.spanMs("DCR", whole)
		m.set("migrate_dcr_ms_p50", v, k)
		m.set("drain_ms", ms(drain), 1)
		return res, nil
	}

	tr.timed("drivers", "bench", r.root, func() { runDrivers(m, defaultIters, tr, r.root) })
	m.set("acker.completed", float64(end.ackerCompleted), 1)
	m.set("acker.timed_out", float64(end.ackerTimedOut), 1)
	m.set("acker.pending_max", float64(win.seen.ackerPending), 1)
	m.set("statestore.ops", float64(end.storeOps), 1)
	m.set("statestore.bytes_written", float64(end.storeBytesWritten), 1)
	m.set("checkpoint.waves", float64(end.waves), 1)
	m.set("checkpoint.resends", float64(end.resends), 1)
	m.set("checkpoint.failures", float64(end.waveFailures), 1)
	for _, strat := range []string{"CCR", "DCR"} {
		prefix := "core." + strings.ToLower(strat)
		v, k := r.spanMs(strat, func(e enactment) time.Duration { return e.at["drain-end"].Sub(e.at["requested"]) })
		m.set(prefix+".drain_ms_p50", v, k)
		v, k = r.spanMs(strat, func(e enactment) time.Duration { return e.at["rebalance-end"].Sub(e.at["drain-end"]) })
		m.set(prefix+".rebalance_ms_p50", v, k)
		v, k = r.spanMs(strat, func(e enactment) time.Duration { return e.end.Sub(e.at["rebalance-end"]) })
		m.set(prefix+".restore_ms_p50", v, k)
	}
	m.set("job.submit_ms", median(setup.submit), len(setup.submit))
	m.set("job.start_ms", median(setup.start), len(setup.start))
	m.set("job.stop_ms", median(setup.stop), len(setup.stop))
	m.set("job.goroutines_after_stop", float64(setup.goroutinesAfterStop), len(setup.stop))
	m.set("job.events_dropped", float64(s.eventsDropped()), eventCount())
	cpuSampled, cpuBare, nSampled := medianOf(win.secs, sampled, cpuOf), medianOf(win.secs, bare, cpuOf), n/2
	hop := cpuSampled * 1000 / s.sendsPerSinkEvent
	m.set("runtime.cpu_us_per_event", cpuSampled, nSampled)
	m.set("runtime.hop_cpu_ns", hop, nSampled)
	m.set("runtime.self_ns_per_hop", hop-driverShare(w, m, s.sendsPerSinkEvent), nSampled)
	m.set("runtime.latency_p99_ms", medianOf(win.secs, all, func(s second) float64 { return s.p99 }), n)
	m.set("runtime.queue_depth_max", float64(win.seen.queueDepth), 1)
	m.set("runtime.source_lag_ms_max", ms(win.seen.sourceLag), 1)
	m.set("runtime.goroutines", float64(win.seen.goroutines), 1)
	var mem goruntime.MemStats
	goruntime.ReadMemStats(&mem)
	m.set("runtime.gc_cpu_fraction", mem.GCCPUFraction, 1)
	m.set("runtime.dropped_deliveries", float64(end.droppedDeliveries), 1)
	m.set("runtime.lost_at_kill", float64(end.lostAtKill), 1)
	m.set("runtime.dcr_boundary_violations", float64(r.boundaryViolations), 1)
	m.set("trace_overhead_pct", (cpuSampled/cpuBare-1)*100, n)
	return res, nil
}
