package main

// sut.go is the benchmark's adapter onto the system under test and the
// only file in this package that touches the engine's control and
// observability API (internal/job and Job.Engine()). Everything else in
// bench/ speaks to the sut type, so a change that reshapes those getters
// meets the benchmark in this one file.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/job"
	"repro/internal/runtime"
	"repro/internal/statestore"
	"repro/internal/timex"
	wl "repro/internal/workload"
)

// sutConfig is what a workload asks of the engine.
type sutConfig struct {
	dag        string  // "linear" or "grid"
	acked      bool    // ModeDSM (always-on acking) instead of ModeCCR
	rate       float64 // per-source events per second, open loop
	seed       int64
	checkpoint time.Duration // periodic checkpoint interval; 0 keeps the mode's default
}

// sut is one submitted job.
type sut struct {
	j *job.Job
	// sendsPerSinkEvent is the number of fabric sends behind one sink
	// arrival (6 for Linear, 6.25 for Grid), from Topology.InputRate.
	sendsPerSinkEvent float64
	dcrGens           []uint64 // audit generations enacted with DCR
}

// submit deploys cfg on the wall clock with every modelled delay zeroed,
// so that every duration the benchmark sees is the engine's own overhead.
func submit(cfg sutConfig) (*sut, error) {
	var spec dataflows.Spec
	switch cfg.dag {
	case "linear":
		spec = dataflows.Linear()
	case "grid":
		spec = dataflows.Grid()
	default:
		return nil, fmt.Errorf("bench: unknown dag %q", cfg.dag)
	}
	mode := runtime.ModeCCR
	if cfg.acked {
		mode = runtime.ModeDSM
	}
	keys := wl.UniformKeys(cfg.seed)
	j, err := job.Submit(context.Background(), spec,
		job.WithClock(timex.NewReal()),
		job.WithMode(mode),
		job.WithSeed(cfg.seed),
		job.WithSourceRate(cfg.rate),
		job.WithConfigOverrides(func(c *runtime.Config) {
			c.TaskLatency = 0
			c.Network = cluster.NetworkModel{}
			c.StoreLatency = statestore.LatencyModel{}
			c.RebalanceCmdTime = 0
			c.WorkerBaseDelay, c.WorkerStagger, c.WorkerJitter = 0, 0, 0
			c.SourceBurstRate = 1e9
			c.KeySelector = keys
			if cfg.checkpoint > 0 {
				c.CheckpointInterval = cfg.checkpoint
			}
		}))
	if err != nil {
		return nil, err
	}
	rates := spec.Topology.InputRate(1)
	sends, sink := 0.0, 0.0
	for _, r := range rates {
		sends += r
	}
	for _, t := range spec.Topology.Sinks() {
		sink += rates[t.Name]
	}
	return &sut{j: j, sendsPerSinkEvent: sends / sink}, nil
}

func (s *sut) start() error { return s.j.Start() }
func (s *sut) stop()        { s.j.Stop() }

func (s *sut) fanout() int           { return s.j.Engine().Fanout() }
func (s *sut) sinkArrivals() int     { return s.j.Engine().Audit().SinkArrivals() }
func (s *sut) emitted() int          { return s.j.Engine().Audit().EmittedCount() }
func (s *sut) setRate(r float64)     { s.j.SetSourceRate(r) }
func (s *sut) canEnact() bool        { return s.j.Config().Mode == runtime.ModeCCR }
func (s *sut) eventsDropped() uint64 { return s.j.Status().EventsDropped }
func (s *sut) ackerPending() int     { return s.j.Engine().Acker().Pending() }

// lastSecondLatency digests the emit→sink wall latency of the arrivals in
// the collector's last full one-second bin.
func (s *sut) lastSecondLatency() (n int, p50, p95, p99 time.Duration) {
	d := s.j.Engine().Collector().Window(time.Second).Latency
	return d.Count, d.P50, d.P95, d.P99
}

// queueDepthMax is the deepest inner input queue right now.
func (s *sut) queueDepthMax() int {
	deepest := 0
	for _, d := range s.j.Engine().QueueDepths() {
		deepest = max(deepest, d)
	}
	return deepest
}

// enact runs one live scale enactment with the named strategy ("CCR" or
// "DCR") and blocks until the sources are unpaused on the new schedule.
func (s *sut) enact(strategy string, out bool) error {
	dir := job.ScaleIn
	if out {
		dir = job.ScaleOut
	}
	var strat core.Strategy = core.CCR{}
	if strategy == "DCR" {
		strat = core.DCR{}
	}
	err := s.j.ScaleWith(context.Background(), dir, strat)
	if strategy == "DCR" && err == nil {
		s.dcrGens = append(s.dcrGens, s.j.Engine().MigrationGen())
	}
	return err
}

// onPhase reports every migration phase transition by name.
func (s *sut) onPhase(f func(phase string)) {
	s.j.OnPhase(func(p runtime.MigrationPhase) { f(string(p)) })
}

// countEvents subscribes to the job's event stream and returns a function
// reporting how many events were received; the subscription ends at stop.
func (s *sut) countEvents() func() int {
	ch := s.j.Events()
	n, done := 0, make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
			n++
		}
	}()
	return func() int { <-done; return n }
}

func (s *sut) drain() error { return s.j.Drain(context.Background()) }

// audit is the exact delivery accounting of a drained job.
type audit struct {
	lost, duplicates, boundaryViolations int
}

func (s *sut) audit() audit {
	a := s.j.Engine().Audit()
	out := audit{
		lost:       len(a.Lost(s.j.Clock().Now())),
		duplicates: a.Duplicates(s.fanout()),
	}
	for _, g := range s.dcrGens {
		out.boundaryViolations += a.BoundaryViolationsFor(g)
	}
	return out
}

// counters is a snapshot of the engine's own per-layer counts.
type counters struct {
	ackerCompleted, ackerTimedOut uint64
	waves, resends, waveFailures  int
	storeOps, storeBytesWritten   uint64
	droppedDeliveries             uint64
	lostAtKill                    int64
}

func (s *sut) counters() counters {
	e := s.j.Engine()
	ack, cp, st := e.Acker().Stats(), e.Coordinator().Stats(), e.Store().Stats()
	c := counters{
		ackerCompleted: ack.Completed, ackerTimedOut: ack.TimedOut,
		resends: cp.Resends, waveFailures: cp.Failures,
		storeOps: st.Ops, storeBytesWritten: st.BytesWritten,
		droppedDeliveries: e.DroppedDeliveries(), lostAtKill: e.LostAtKill(),
	}
	for _, n := range cp.Waves {
		c.waves += n
	}
	return c
}
