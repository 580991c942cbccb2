// Package experiments reproduces the paper's evaluation (§5): it deploys
// each benchmark dataflow on the Table 1 cluster, runs it to steady
// state, enacts a migration with one of the three strategies, and derives
// the §4 metrics plus the figure timelines.
//
// A Scenario is one cell of the evaluation matrix (DAG × strategy ×
// scale direction). Runs execute in compressed paper time (timex.Scaled),
// so a 12-minute Azure experiment takes a few wall seconds while every
// protocol ratio is preserved.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/statestore"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Direction is the elasticity scenario (§5: the two most common on
// Clouds). It is the Job control plane's direction type; scale-in
// consolidates the default n×D2 deployment onto ⌈n/2⌉×D3 VMs, scale-out
// spreads it onto 2n×D1 VMs (Table 1).
type Direction = job.Direction

// Scale directions of §5.
const (
	ScaleIn  = job.ScaleIn
	ScaleOut = job.ScaleOut
)

// RunConfig tunes scenario execution.
type RunConfig struct {
	// TimeScale compresses paper time (0.02 ⇒ 50× faster than the paper's
	// testbed).
	TimeScale float64
	// PreMigration is the steady-state warmup before the migration
	// request (the paper uses 3 min; the dataflow stabilizes well within
	// 60 s).
	PreMigration time.Duration
	// PostHorizon bounds the run after the migration request.
	PostHorizon time.Duration
	// StopAfterMigrate ends the run as soon as the strategy returns
	// (drain-time micro-experiments don't need stabilization).
	StopAfterMigrate bool
	// NoMigration runs the dataflow at steady state for PostHorizon with
	// no migration at all (overhead ablations).
	NoMigration bool
	// Seed drives engine randomness; successive scenario runs in a matrix
	// offset it so runs are independent but reproducible.
	Seed int64
	// Overrides optionally adjusts the engine config after defaults.
	Overrides func(*runtime.Config)
}

// DefaultRunConfig returns the standard evaluation settings.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		TimeScale:    0.02,
		PreMigration: 60 * time.Second,
		PostHorizon:  660 * time.Second,
		Seed:         1,
	}
}

// Scenario is one evaluation cell.
type Scenario struct {
	// Spec is the benchmark dataflow.
	Spec dataflows.Spec
	// Strategy enacts the migration.
	Strategy core.Strategy
	// Direction selects scale-in or scale-out.
	Direction Direction
	// Run tunes execution.
	Run RunConfig
}

// Result is the outcome of one scenario run.
type Result struct {
	// DAG, Strategy and Direction identify the cell.
	DAG       string
	Strategy  string
	Direction Direction

	// Metrics are the derived §4 measurements.
	Metrics metrics.Metrics
	// RequestOffset is the migration request instant relative to the
	// run origin (timelines are origin-relative).
	RequestOffset time.Duration

	// Input, Output and Latency are the Fig. 7/9 timelines.
	Input, Output, Latency []metrics.Sample

	// Reliability accounting.
	LostCount          int
	DuplicateCount     int
	BoundaryViolations int
	// Staleness is the total task-state rollback across instances
	// (events re-counted because the restored snapshot predates the
	// kill); zero for JIT checkpointing.
	Staleness int64

	// Cluster accounting.
	VMsBefore, VMsAfter   int
	RateBefore, RateAfter float64

	// Substrate counters.
	Waves checkpoint.WaveStats
	Store statestore.Stats
	Drops uint64

	// MigrationErr records a failed enactment (nil on success).
	MigrationErr error

	// Canceled reports that the run's context was canceled: the dataflow
	// was drained gracefully and the Result snapshots the partial run.
	Canceled bool
}

// Run executes one scenario under a context: deploy the dataflow through
// the Job control plane, warm it to steady state, enact the migration
// live, and run until the output stabilizes. Canceling ctx at any point
// drains the dataflow gracefully (an in-flight migration first unwinds)
// and returns the partial Result with Canceled set.
func Run(ctx context.Context, s Scenario) (*Result, error) {
	if s.Run.TimeScale <= 0 {
		s.Run = DefaultRunConfig()
	}
	mode := runtime.ModeDCR
	if s.Strategy != nil {
		mode = s.Strategy.Mode()
	}
	opts := []job.Option{
		job.WithMode(mode),
		job.WithTimeScale(s.Run.TimeScale),
		job.WithSeed(s.Run.Seed),
		// Queued control: the graceful-cancel drain waits its turn behind
		// an abandoned in-flight migration instead of failing busy.
		job.WithQueuedControl(),
	}
	if s.Run.Overrides != nil {
		opts = append(opts, job.WithConfigOverrides(s.Run.Overrides))
	}
	j, err := job.Submit(context.Background(), s.Spec, opts...)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer j.Stop()
	eng, clus, clock := j.Engine(), j.Cluster(), j.Clock()

	res := &Result{
		DAG:       s.Spec.Topology.Name(),
		Direction: s.Direction,
		VMsBefore: s.Spec.DefaultVMs,
	}
	if s.Strategy != nil {
		res.Strategy = s.Strategy.Name()
	}
	res.RateBefore = clus.RatePerMinute()

	if err := j.Start(); err != nil {
		return nil, err
	}
	spec := metrics.DefaultStabilization(eng.ExpectedSinkRate())

	if !sleepOrCancel(ctx, clock, s.Run.PreMigration) {
		return cancelFinish(j, spec, res)
	}

	if s.Run.NoMigration {
		if !sleepOrCancel(ctx, clock, s.Run.PostHorizon) {
			return cancelFinish(j, spec, res)
		}
		finish(eng, spec, res)
		return res, nil
	}

	// Provision the migration target and compute the new schedule. The
	// old fleet is whatever is currently unpinned (the initial
	// DefaultVMs × D2 deployment).
	var targetType cluster.VMType
	var targetCount int
	switch s.Direction {
	case ScaleOut:
		targetType, targetCount = cluster.D1, s.Spec.ScaleOutVMs
	default:
		targetType, targetCount = cluster.D3, s.Spec.ScaleInVMs
	}
	res.VMsAfter = targetCount
	oldVMs := clus.UnpinnedVMs()
	targetVMs := clus.Provision(targetType, targetCount, clock.Now())
	var newSlots []cluster.SlotRef
	for _, vm := range targetVMs {
		newSlots = append(newSlots, vm.Slots()...)
	}
	inner := s.Spec.Topology.Instances(topology.RoleInner)
	newSched, err := (scheduler.RoundRobin{}).Place(inner, newSlots)
	if err != nil {
		return nil, fmt.Errorf("experiments: target placement: %w", err)
	}

	processedBefore := sumProcessed(eng)
	res.MigrationErr = j.Migrate(ctx, s.Strategy, newSched)
	if res.MigrationErr != nil && errors.Is(res.MigrationErr, ctx.Err()) {
		// Canceled mid-migration: the abandoned strategy unwinds in the
		// background; the queued drain below waits for it.
		res.MigrationErr = nil
		return cancelFinish(j, spec, res)
	}
	processedAfter := sumProcessed(eng)
	if d := processedBefore - processedAfter; d > 0 {
		res.Staleness = d
	}

	// The old VMs are released once the migration completes: the billing
	// motivation of Fig. 1.
	for _, vm := range oldVMs {
		if err := clus.Release(vm.ID); err != nil {
			return nil, err
		}
	}
	res.RateAfter = clus.RatePerMinute()

	if s.Run.StopAfterMigrate || res.MigrationErr != nil {
		finish(eng, spec, res)
		return res, nil
	}

	// Run until the output rate stabilizes (plus the detection window)
	// and nothing is pending recovery, or the horizon expires.
	request, _ := eng.Collector().MigrationRequested()
	deadline := request.Add(s.Run.PostHorizon)
	for {
		if ctx.Err() != nil {
			return cancelFinish(j, spec, res)
		}
		clock.Sleep(5 * time.Second)
		now := clock.Now()
		if now.After(deadline) {
			break
		}
		m := eng.Collector().Compute(spec, 0)
		if m.StabilizationTime >= 0 &&
			clock.Since(request) >= m.StabilizationTime+spec.Window+20*time.Second &&
			len(eng.Audit().Lost(now.Add(-45*time.Second))) == 0 {
			break
		}
	}
	finish(eng, spec, res)
	return res, nil
}

// sleepOrCancel sleeps d of paper time in 5 s slices, returning false as
// soon as ctx is canceled.
func sleepOrCancel(ctx context.Context, clock timex.Clock, d time.Duration) bool {
	deadline := clock.Now().Add(d)
	for {
		if ctx.Err() != nil {
			return false
		}
		remaining := deadline.Sub(clock.Now())
		if remaining <= 0 {
			return true
		}
		step := 5 * time.Second
		if remaining < step {
			step = remaining
		}
		clock.Sleep(step)
	}
}

// cancelFinish gracefully quiesces a canceled run — drain (queued behind
// any abandoned migration), snapshot, report — so an interrupted
// experiment still yields its partial measurements.
func cancelFinish(j *job.Job, spec metrics.StabilizationSpec, res *Result) (*Result, error) {
	res.Canceled = true
	_ = j.Drain(context.Background())
	finish(j.Engine(), spec, res)
	return res, nil
}

// finish snapshots all end-of-run accounting into res.
func finish(eng *runtime.Engine, spec metrics.StabilizationSpec, res *Result) {
	clock := eng.Clock()
	collector := eng.Collector()
	lost := eng.Audit().Lost(clock.Now().Add(-45 * time.Second))
	res.LostCount = len(lost)
	res.Metrics = collector.Compute(spec, len(lost))
	if req, ok := collector.MigrationRequested(); ok {
		res.RequestOffset = req.Sub(collector.Start())
	}
	res.Input = collector.InputTimeline()
	res.Output = collector.OutputTimeline()
	res.Latency = collector.LatencyTimeline(10 * time.Second)
	res.DuplicateCount = eng.Audit().Duplicates(eng.Fanout())
	res.BoundaryViolations = eng.Audit().BoundaryViolations()
	res.Waves = eng.Coordinator().Stats()
	res.Store = eng.Store().Stats()
	res.Drops = eng.DroppedDeliveries()
}

// sumProcessed totals the live processed counters across stateful
// executors (instances that are down contribute zero).
func sumProcessed(eng *runtime.Engine) int64 {
	var total int64
	for _, task := range eng.Topology().Inner() {
		if !task.Stateful {
			continue
		}
		for i := 0; i < task.Parallelism; i++ {
			ex := eng.Executor(topology.Instance{Task: task.Name, Index: i})
			if ex == nil {
				continue
			}
			if cl, ok := ex.Logic().(*workload.CountLogic); ok {
				total += cl.Processed()
			}
		}
	}
	return total
}
