package metrics

import "time"

// WindowStats is a live snapshot of the dataflow's recent behavior over a
// trailing window, the observation input of closed-loop elasticity
// controllers (internal/autoscale). Unlike Metrics, which is derived once
// after a run, WindowStats can be sampled continuously while the dataflow
// executes.
type WindowStats struct {
	// Window is the trailing interval the stats cover (whole bins).
	Window time.Duration
	// InputRate is the average source emission rate over the window (ev/s,
	// replays included — they occupy capacity like any other emission).
	InputRate float64
	// OutputRate is the average sink arrival rate over the window (ev/s).
	OutputRate float64
	// Latency digests the sink latencies observed inside the window.
	Latency LatencyDigest
}

// recentHorizon bounds how long per-bin latency samples are retained for
// Window queries. Bins older than this are pruned on write.
const recentHorizon = 10 * time.Minute

// Window summarizes the last d of execution: average input/output rates
// and the sink latency distribution. The current (partially filled) bin is
// excluded so rates are not biased low. d is rounded up to whole bins; a
// zero or sub-bin d covers one bin.
func (c *Collector) Window(d time.Duration) WindowStats {
	return c.WindowEnding(c.clock.Now(), d)
}

// WindowEnding is Window over the d of execution before end (clamped to
// now): the bin holding end is the partial one excluded. Observers pass
// the instant their inputs are final up to, so emissions still being
// recorded do not read as a dip.
func (c *Collector) WindowEnding(end time.Time, d time.Duration) WindowStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mergeLocked()
	bins := int((d + BinSize - 1) / BinSize)
	if bins < 1 {
		bins = 1
	}
	if now := c.clock.Now(); end.After(now) {
		end = now
	}
	cur := c.bin(end)
	lo := cur - bins // window is [lo, cur), i.e. the last `bins` full bins
	if lo < 0 {
		lo = 0
	}
	span := cur - lo
	if span <= 0 {
		return WindowStats{Window: d}
	}
	var in, out int
	var lats []time.Duration
	for b := lo; b < cur; b++ {
		in += c.inBins[b]
		out += c.outBins[b]
		lats = append(lats, c.recentLat[b]...)
	}
	secs := (time.Duration(span) * BinSize).Seconds()
	return WindowStats{
		Window:     time.Duration(span) * BinSize,
		InputRate:  float64(in) / secs,
		OutputRate: float64(out) / secs,
		Latency:    Digest(lats),
	}
}
