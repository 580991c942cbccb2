package main

import (
	"sort"
	"time"
)

// metricDef declares one metric the harness prints. The two tables below
// are the whole vocabulary: BENCHMARK.json repeats them (bench_test.go
// checks the two agree) and a run that fails to produce a declared metric
// is an error.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
	driver     bool    // per-layer only: measured by a tight loop in layers.go, not around the engine
}

// endToEnd is what a user of the engine sees, on every workload. Each
// bound is the issue's starting bound or twice the widest quartile spread
// seen over ten seeds on a 2-core box, whichever is larger, capped at the
// 0.25 the contract allows; README.md lists the spreads. Two numbers
// the issue asked for are not here, because on that box their spread was
// wider than any bound allowed: CPU time per event (17 to 48 %) and p99
// latency (up to 31 % on firehose-linear). They are reported per layer,
// as runtime.cpu_us_per_event and runtime.latency_p99_ms; p95 is gated.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_event", unit: "count", better: "lower", bound: 0.02},
	{name: "retained_bytes_per_event", unit: "B", better: "lower", bound: 0.15},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "delivered_ratio", unit: "ratio", better: "higher", bound: 0.01},
	{name: "migrate_ccr_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "migrate_dcr_ms_p50", unit: "ms", better: "lower", bound: 0.20},
	{name: "drain_ms", unit: "ms", better: "lower", bound: 0.05},
}

// perLayer is measured from outside each layer in the traced pass: by
// the drivers in layers.go, or by counters and samples taken around the
// running engine.
var perLayer = []metricDef{
	{name: "tuple.child_release_ns", unit: "ns", better: "lower", driver: true},
	{name: "tuple.vec_cycle_ns", unit: "ns", better: "lower", driver: true},
	{name: "queue.push_pop_ns", unit: "ns", better: "lower", driver: true},
	{name: "queue.batch64_ns_per_event", unit: "ns", better: "lower", driver: true},
	{name: "timex.real_sleep_overshoot_us_p50", unit: "us", better: "lower", driver: true},
	{name: "timex.real_sleep_overshoot_us_p99", unit: "us", better: "lower", driver: true},
	{name: "timex.afterfunc_stop_ns", unit: "ns", better: "lower", driver: true},
	{name: "timex.scaled_sleepuntil_overshoot_us_p99", unit: "us", better: "lower", driver: true},
	{name: "workload.count_process_ns", unit: "ns", better: "lower", driver: true},
	{name: "metrics.record_ns", unit: "ns", better: "lower", driver: true},
	{name: "metrics.retained_bytes_per_event", unit: "B", better: "lower", driver: true},
	{name: "metrics.compute_ms_per_million", unit: "ms", better: "lower", driver: true},
	{name: "runtime.audit_record_ns", unit: "ns", better: "lower", driver: true},
	{name: "runtime.audit_retained_bytes_per_event", unit: "B", better: "lower", driver: true},
	{name: "runtime.audit_lost_scan_ms_per_million", unit: "ms", better: "lower", driver: true},
	{name: "acker.tree6_ns", unit: "ns", better: "lower", driver: true},
	{name: "acker.completed", unit: "count", better: "higher"},
	{name: "acker.timed_out", unit: "count", better: "lower"},
	{name: "acker.pending_max", unit: "count", better: "lower"},
	{name: "statestore.encode_ns", unit: "ns", better: "lower", driver: true},
	{name: "statestore.decode_ns", unit: "ns", better: "lower", driver: true},
	{name: "statestore.blob_bytes", unit: "B", better: "lower", driver: true},
	{name: "statestore.ops", unit: "count", better: "lower"},
	{name: "statestore.bytes_written", unit: "B", better: "lower"},
	{name: "checkpoint.wave21_us", unit: "us", better: "lower", driver: true},
	{name: "checkpoint.waves", unit: "count", better: "lower"},
	{name: "checkpoint.resends", unit: "count", better: "lower"},
	{name: "checkpoint.failures", unit: "count", better: "lower"},
	{name: "scheduler.place_diff_us", unit: "us", better: "lower", driver: true},
	{name: "core.ccr.drain_ms_p50", unit: "ms", better: "lower"},
	{name: "core.ccr.rebalance_ms_p50", unit: "ms", better: "lower"},
	{name: "core.ccr.restore_ms_p50", unit: "ms", better: "lower"},
	{name: "core.dcr.drain_ms_p50", unit: "ms", better: "lower"},
	{name: "core.dcr.rebalance_ms_p50", unit: "ms", better: "lower"},
	{name: "core.dcr.restore_ms_p50", unit: "ms", better: "lower"},
	{name: "job.submit_ms", unit: "ms", better: "lower"},
	{name: "job.start_ms", unit: "ms", better: "lower"},
	{name: "job.stop_ms", unit: "ms", better: "lower"},
	{name: "job.goroutines_after_stop", unit: "count", better: "lower"},
	{name: "job.events_dropped", unit: "count", better: "lower"},
	{name: "runtime.cpu_us_per_event", unit: "us", better: "lower"},
	{name: "runtime.hop_cpu_ns", unit: "ns", better: "lower"},
	{name: "runtime.self_ns_per_hop", unit: "ns", better: "lower"},
	{name: "runtime.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "runtime.queue_depth_max", unit: "count", better: "lower"},
	{name: "runtime.source_lag_ms_max", unit: "ms", better: "lower"},
	{name: "runtime.goroutines", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_fraction", unit: "ratio", better: "lower"},
	{name: "runtime.dropped_deliveries", unit: "count", better: "lower"},
	{name: "runtime.lost_at_kill", unit: "count", better: "lower"},
	{name: "runtime.dcr_boundary_violations", unit: "count", better: "lower"},
	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}

// metric is one measured value; N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's values by name.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, n int) { m[name] = metric{Value: value, N: n} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the p-quantile (0..1) of xs by nearest rank on a
// sorted copy; 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	lo := percentile(xs, 0.5)
	if n := len(xs); n > 0 && n%2 == 0 {
		return (lo + percentile(xs, float64(n/2)/float64(n-1))) / 2
	}
	return lo
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles computed as Python's
// statistics.quantiles(xs, n=4) does — the rule the benchmark's bounds
// are judged by. It needs two values; fewer give 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	mid := q(2)
	if mid == 0 {
		return 0
	}
	spread := (q(3) - q(1)) / mid
	if spread < 0 {
		spread = -spread
	}
	return spread
}
