package metrics

import (
	"testing"
	"time"

	"repro/internal/timex"
	"repro/internal/tuple"
)

// feed records one sink arrival with the given end-to-end latency at the
// clock's current instant.
func feed(c *Collector, clock *timex.ManualClock, latency time.Duration) {
	c.SinkReceive(&tuple.Event{RootEmit: clock.Now().Add(-latency)})
}

func TestWindowRatesAndLatency(t *testing.T) {
	clock := timex.NewManual()
	c := NewCollector(clock)

	// Three full seconds: 4 emissions and 2 arrivals (100 ms latency)
	// per second, then stand inside the fourth (partial) bin.
	for s := 0; s < 3; s++ {
		for i := 0; i < 4; i++ {
			c.SourceEmit(false)
		}
		feed(c, clock, 100*time.Millisecond)
		feed(c, clock, 300*time.Millisecond)
		clock.Advance(time.Second)
	}
	clock.Advance(200 * time.Millisecond)

	w := c.Window(3 * time.Second)
	if w.Window != 3*time.Second {
		t.Fatalf("window span %v, want 3s", w.Window)
	}
	if w.InputRate != 4 {
		t.Errorf("input rate %.2f, want 4 (partial bin must be excluded)", w.InputRate)
	}
	if w.OutputRate != 2 {
		t.Errorf("output rate %.2f, want 2", w.OutputRate)
	}
	if w.Latency.Count != 6 {
		t.Errorf("latency samples %d, want 6", w.Latency.Count)
	}
	if w.Latency.Max != 300*time.Millisecond {
		t.Errorf("latency max %v, want 300ms", w.Latency.Max)
	}
}

func TestWindowTrailsTheClock(t *testing.T) {
	clock := timex.NewManual()
	c := NewCollector(clock)

	// A burst in the first second, then silence.
	for i := 0; i < 10; i++ {
		c.SourceEmit(false)
	}
	clock.Advance(30 * time.Second)

	w := c.Window(5 * time.Second)
	if w.InputRate != 0 {
		t.Errorf("stale burst leaked into a trailing window: rate %.2f", w.InputRate)
	}
	// A window reaching back far enough still sees it.
	wide := c.Window(40 * time.Second)
	if wide.InputRate == 0 {
		t.Error("wide window missed the burst")
	}
}

func TestWindowSubBinAndEmpty(t *testing.T) {
	clock := timex.NewManual()
	c := NewCollector(clock)

	// Inside the very first bin nothing is complete yet.
	w := c.Window(10 * time.Second)
	if w.InputRate != 0 || w.OutputRate != 0 || w.Latency.Count != 0 {
		t.Errorf("first-bin window not empty: %+v", w)
	}

	c.SourceEmit(false)
	clock.Advance(time.Second)
	// A sub-bin request rounds up to one full bin.
	w = c.Window(time.Millisecond)
	if w.InputRate != 1 {
		t.Errorf("sub-bin window rate %.2f, want 1", w.InputRate)
	}
}

func TestRecentLatencyPruning(t *testing.T) {
	clock := timex.NewManual()
	c := NewCollector(clock)

	feed(c, clock, 50*time.Millisecond)
	// Push the clock far past the retention horizon and feed again: the
	// old bin's samples must be dropped from the retention buffer.
	clock.Advance(recentHorizon + 2*time.Second)
	feed(c, clock, 50*time.Millisecond)

	c.mu.Lock()
	c.mergeLocked() // recording is sharded; retention lives in the merged master state
	retained := len(c.recentLat)
	c.mu.Unlock()
	if retained != 1 {
		t.Errorf("retained %d latency bins, want 1 after pruning", retained)
	}
}

// TestWindowEndingCountsLateStampedEmissions: an emission recorded after
// the fact lands in the bin of its stamp, and a window ending at an
// observer's settled instant leaves out the bin that instant falls in —
// the one still being recorded — while an end past now clamps to now.
func TestWindowEndingCountsLateStampedEmissions(t *testing.T) {
	clock := timex.NewManual()
	c := NewCollector(clock)
	rep := c.Reporter()
	start := clock.Now()
	clock.Advance(5*time.Second + 500*time.Millisecond)

	// Recorded now, stamped back in time: b+1 emissions in bin b.
	for b := 0; b < 5; b++ {
		for i := 0; i <= b; i++ {
			rep.SourceEmitAt(start.Add(time.Duration(b)*time.Second+time.Duration(i)*100*time.Millisecond), false)
		}
	}

	// Settled at 4.2 s: bins 1-3 hold 2+3+4 emissions.
	if w := c.WindowEnding(start.Add(4200*time.Millisecond), 3*time.Second); w.InputRate != 3 {
		t.Errorf("window ending at 4.2s: input rate %.2f, want 3", w.InputRate)
	}
	// Window trails now (5.5 s): bins 2-4 hold 3+4+5.
	now := c.Window(3 * time.Second)
	if now.InputRate != 4 {
		t.Errorf("window ending now: input rate %.2f, want 4", now.InputRate)
	}
	if w := c.WindowEnding(start.Add(time.Hour), 3*time.Second); w != now {
		t.Errorf("window ending past now = %+v, want the window ending now %+v", w, now)
	}
}
