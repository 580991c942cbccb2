package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/job"
	"repro/internal/scheduler"
	"repro/internal/timex"
)

// RampStep changes the aggregate source rate at a paper-time offset from
// the run start. Steps must be sorted by After.
type RampStep struct {
	// After is the offset from the run origin.
	After time.Duration
	// Rate is the new per-source emission rate in ev/s.
	Rate float64
}

// DefaultRamp is the evaluation workload profile: steady nominal load, a
// short overload burst (queues build and latency climbs, so every
// policy's scale-out signal fires), a settle just under capacity, then a
// thinned stream that warrants consolidation.
func DefaultRamp() []RampStep {
	return []RampStep{
		{After: 60 * time.Second, Rate: 12},  // overload burst
		{After: 75 * time.Second, Rate: 9.8}, // settle hot, under capacity
		{After: 270 * time.Second, Rate: 4},  // off-peak
	}
}

// AutoscaleScenario is one cell of the policy × strategy comparison: a
// benchmark dataflow under a ramping workload, governed by a closed
// autoscale.Loop.
type AutoscaleScenario struct {
	// Spec is the benchmark dataflow.
	Spec dataflows.Spec
	// Strategy enacts the reallocations (CCR or DCR for reliability).
	Strategy core.Strategy
	// Policy decides them.
	Policy autoscale.Policy
	// Ramp is the workload profile (DefaultRamp when nil).
	Ramp []RampStep
	// Horizon bounds the run (default 480 s).
	Horizon time.Duration
	// Interval is the loop polling period (default 5 s).
	Interval time.Duration
	// Window is the trailing observation window (default 10 s).
	Window time.Duration
	// Confirm and Cooldown tune hysteresis (defaults 2 and 45 s).
	Confirm  int
	Cooldown time.Duration
	// TimeScale compresses paper time (default 0.02).
	TimeScale float64
	// Seed drives engine randomness.
	Seed int64
	// Debug, when set, observes every loop decision with its offset from
	// the run origin (tests, verbose CLIs).
	Debug func(d autoscale.Decision, offset time.Duration)
}

// AutoscaleResult is the outcome of one autoscale scenario run.
type AutoscaleResult struct {
	// DAG, Strategy and Policy identify the cell.
	DAG, Strategy, Policy string

	// ScaleOuts and ScaleIns count successful enactments by direction;
	// FailedEnactments counts migrations that errored.
	ScaleOuts, ScaleIns, FailedEnactments int
	// MeanEnactment is the average paper-time duration of successful
	// migrations (zero when none ran).
	MeanEnactment time.Duration

	// Reliability accounting across the whole run.
	Lost, Duplicates, Replayed int

	// FinalFleet is the fleet shape at the horizon, e.g. "2 x D3".
	FinalFleet string
	// RateFinal is the cluster billing rate at the horizon (per minute);
	// Cost the total accumulated bill.
	RateFinal, Cost float64

	// Decisions counts loop ticks; Holds those that took no action.
	Decisions, Holds int
}

// RunAutoscale executes one autoscale scenario: deploy the dataflow
// consolidated (the off-peak shape of Table 1), start the loop, play the
// ramp, and account reliability and billing at the horizon. The dataflow
// is submitted through the Job control plane and every loop enactment goes
// through the job's serialized control. Canceling ctx ends the loop at its
// next tick and the run reports what happened up to that point.
func RunAutoscale(ctx context.Context, s AutoscaleScenario) (*AutoscaleResult, error) {
	if s.TimeScale <= 0 {
		s.TimeScale = 0.02
	}
	if s.Horizon <= 0 {
		s.Horizon = 480 * time.Second
	}
	if s.Interval <= 0 {
		s.Interval = 5 * time.Second
	}
	if s.Window <= 0 {
		s.Window = 10 * time.Second
	}
	if s.Confirm <= 0 {
		s.Confirm = 2
	}
	if s.Cooldown <= 0 {
		s.Cooldown = 45 * time.Second
	}
	if s.Ramp == nil {
		s.Ramp = DefaultRamp()
	}
	if s.Strategy == nil {
		s.Strategy = core.CCR{} // the paper's recommended enactment
	}

	// Off-peak start: consolidated on D3, the paper's scale-in shape.
	fleet := autoscale.Fleet{Type: cluster.D3, VMs: s.Spec.ScaleInVMs}
	j, err := job.Submit(context.Background(), s.Spec,
		job.WithMode(s.Strategy.Mode()),
		job.WithStrategy(s.Strategy),
		job.WithTimeScale(s.TimeScale),
		job.WithSeed(s.Seed),
		job.WithInitialFleet(fleet.Type, fleet.VMs),
	)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer j.Stop()
	eng, clus, clock := j.Engine(), j.Cluster(), j.Clock()
	if err := j.Start(); err != nil {
		return nil, err
	}

	enactor := &autoscale.Enactor{
		Engine:    eng,
		Cluster:   clus,
		Strategy:  s.Strategy,
		Scheduler: scheduler.RoundRobin{},
		Control:   autoscale.JobControl(j),
	}
	res := &AutoscaleResult{
		DAG:      s.Spec.Topology.Name(),
		Strategy: s.Strategy.Name(),
		Policy:   s.Policy.Name(),
	}
	loop := &autoscale.Loop{
		Engine:     eng,
		Policy:     s.Policy,
		Allocator:  autoscale.DefaultAllocator(),
		Enactor:    enactor,
		Fleet:      fleet,
		Window:     s.Window,
		Hysteresis: autoscale.Hysteresis{Confirm: s.Confirm, Cooldown: s.Cooldown},
	}

	start := clock.Now()
	loop.OnDecision = func(d autoscale.Decision) {
		res.Decisions++
		if !d.Enacted {
			res.Holds++
		}
		if s.Debug != nil {
			s.Debug(d, d.Snapshot.Time.Sub(start))
		}
	}
	// The ramp plays on its own goroutine so rate steps land on schedule
	// even while the loop is blocked inside a live migration (the real
	// workload does not wait for the operator).
	ramp := append([]RampStep(nil), s.Ramp...)
	sort.Slice(ramp, func(i, j int) bool { return ramp[i].After < ramp[j].After })
	rampDone := make(chan struct{})
	go func() {
		defer close(rampDone)
		for _, step := range ramp {
			timex.SleepUntil(clock, start.Add(step.After))
			j.SetSourceRate(step.Rate)
		}
	}()

	// Poll the loop until the horizon (or cancellation). A failed
	// enactment is not fatal: the strategy rolled the dataflow back,
	// hysteresis opens a cooldown, and the loop retries once the signal
	// persists — queues that defeated a drain wave have usually emptied
	// by then.
	for clock.Since(start) < s.Horizon && ctx.Err() == nil {
		clock.Sleep(s.Interval)
		loop.Tick()
	}
	<-rampDone

	for _, h := range enactor.History() {
		switch {
		case h.Err != nil:
			res.FailedEnactments++
		case h.Target.Verdict == autoscale.ScaleOut:
			res.ScaleOuts++
			res.MeanEnactment += h.Took
		default:
			res.ScaleIns++
			res.MeanEnactment += h.Took
		}
	}
	if n := res.ScaleOuts + res.ScaleIns; n > 0 {
		res.MeanEnactment /= time.Duration(n)
	}

	now := clock.Now()
	res.Lost = len(eng.Audit().Lost(now.Add(-45 * time.Second)))
	res.Duplicates = eng.Audit().Duplicates(eng.Fanout())
	res.Replayed = eng.Collector().ReplayedCount()
	res.FinalFleet = fmt.Sprintf("%d x %s", loop.Fleet.VMs, loop.Fleet.Type.Name)
	res.RateFinal = clus.RatePerMinute()
	res.Cost = clus.Cost(now)
	return res, nil
}

// AutoscaleComparison runs the policy × strategy matrix — the three
// shipped policies against CCR and DCR on the Grid and Diamond DAGs
// under DefaultRamp — and renders the comparison table: how often each
// combination rescaled, how long enactments took, what it cost, and the
// reliability account (with CCR/DCR, always zero lost and zero
// duplicated).
func AutoscaleComparison(scale float64, seed int64) (string, error) {
	specs := []dataflows.Spec{dataflows.Grid(), dataflows.Diamond()}
	strategies := []core.Strategy{core.CCR{}, core.DCR{}}
	rows := make([][]string, 0, len(specs)*len(strategies)*3)
	for _, spec := range specs {
		for _, pol := range autoscale.All() {
			for _, strat := range strategies {
				r, err := RunAutoscale(context.Background(), AutoscaleScenario{
					Spec:      spec,
					Strategy:  strat,
					Policy:    pol,
					TimeScale: scale,
					Seed:      seed,
				})
				if err != nil {
					return "", fmt.Errorf("autoscale %s/%s/%s: %w",
						spec.Topology.Name(), pol.Name(), strat.Name(), err)
				}
				rows = append(rows, []string{
					r.DAG, r.Policy, r.Strategy,
					fmt.Sprintf("%d/%d", r.ScaleOuts, r.ScaleIns),
					r.MeanEnactment.Round(100 * time.Millisecond).String(),
					r.FinalFleet,
					fmt.Sprintf("%.4f", r.RateFinal),
					fmt.Sprint(r.Lost),
					fmt.Sprint(r.Duplicates),
					fmt.Sprint(r.Replayed),
				})
			}
		}
	}
	return Table(
		"Autoscale — closed-loop elasticity: policy x strategy under the default ramp "+
			"(8 ev/s, burst 12, settle 9.8, off-peak 4)",
		[]string{"DAG", "Policy", "Strategy", "Out/In", "Mean enact", "Final fleet", "Bill rate/min", "Lost", "Dup", "Replayed"},
		rows), nil
}
