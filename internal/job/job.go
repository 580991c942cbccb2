// Package job is the control plane of the reproduction: a long-lived
// handle over one running dataflow. Where experiments.Run is batch-shaped
// (build an engine, run one scripted migration, tear down), Submit
// deploys a dataflow and hands back a *Job that serves live operations
// over the job's whole lifetime — the shape of Storm's Nimbus client or
// Flink's JobClient:
//
//   - lifecycle: Start, Drain (quiesce), Resume, Stop, Wait, Done;
//   - live operations: Migrate (any strategy, any schedule), Scale (the
//     paper's two Cloud scenarios), SetSourceRate, Checkpoint, and fault
//     injection (CrashExecutor / RestartExecutor);
//   - observability: Status, Metrics, and Events — a stream of typed
//     transitions including per-phase migration progress;
//   - serialized control: concurrent Migrate/Scale/Drain/Checkpoint
//     calls never interleave. One wins; the others fail fast with ErrBusy
//     (or queue, with WithQueuedControl).
//
// Context plumbing: every control operation takes a context. Canceling it
// aborts a drain cleanly (sources resume) and abandons an in-flight
// migration (the strategy unwinds in the background while control stays
// held, so no later operation can interleave with it); both surface as
// events. The Submit context bounds the job's lifetime — canceling it
// hard-stops the job.
//
// The multi-migration workloads impossible to express with the one-shot
// runner — N sequential migrations on one dataflow, interactive sessions,
// closed autoscale loops — are all thin consumers of this package.
package job

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/supervisor"
	"repro/internal/timex"
	"repro/internal/topology"
)

// Typed control-plane errors.
var (
	// ErrBusy rejects a control operation because another one is in
	// flight (fail-fast mode; see WithQueuedControl).
	ErrBusy = errors.New("job: another control operation is in flight")
	// ErrStopped rejects operations on a stopped job.
	ErrStopped = errors.New("job: stopped")
	// ErrNotRunning rejects operations invalid in the current state.
	ErrNotRunning = errors.New("job: not running")
	// ErrStrategyMode rejects a migration whose strategy needs engine
	// machinery the job was not provisioned with.
	ErrStrategyMode = errors.New("job: strategy incompatible with engine mode")
)

// State is the job lifecycle state.
type State int32

// The job state machine:
//
//	Pending ─Start→ Running ─Drain→ Draining ─quiesced→ Drained
//	                   ↑                │(cancel)          │Resume
//	                   └────────────────┴──────────────────┘
//	any state ─Stop / Submit-ctx cancel→ Stopped (terminal)
const (
	StatePending State = iota + 1
	StateRunning
	StateDraining
	StateDrained
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Direction is an elasticity scenario: the paper's two most common Cloud
// reallocations (§5).
type Direction int

// Scale directions. Scale-in consolidates the inner tasks onto ⌈n/4⌉ D3
// VMs; scale-out spreads them onto one D1 VM per instance (Table 1).
const (
	ScaleIn Direction = iota + 1
	ScaleOut
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case ScaleIn:
		return "scale-in"
	case ScaleOut:
		return "scale-out"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Job is a long-lived handle on one deployed dataflow. All methods are
// safe for concurrent use; control operations are serialized (see the
// package comment).
type Job struct {
	spec     dataflows.Spec
	eng      *runtime.Engine
	clus     *cluster.Cluster
	clock    timex.Clock
	cfg      runtime.Config
	sched    scheduler.Scheduler
	strategy core.Strategy

	queueControl bool
	sup          *supervisor.Supervisor // nil without WithSupervision

	ctrl       chan struct{} // capacity-1 control token
	state      atomic.Int32
	stopOnce   sync.Once
	done       chan struct{}
	submitted  time.Time
	migrations atomic.Int64

	subMu      sync.Mutex
	subs       []chan Event
	subsClosed bool
	dropped    atomic.Uint64

	phaseMu  sync.Mutex
	phaseFns []func(runtime.MigrationPhase)
}

// Submit deploys a dataflow and returns its Job handle. The deployment
// mirrors the paper's setup: sources, sinks and the checkpoint
// coordinator pinned to a dedicated 4-slot D3 VM, the inner tasks placed
// on the initial fleet (DefaultVMs × D2 unless WithInitialFleet) by the
// configured scheduler. The job is not started — call Start.
//
// ctx bounds the job's lifetime: canceling it is equivalent to Stop
// (a hard stop; for a graceful exit, Drain first).
func Submit(ctx context.Context, spec dataflows.Spec, opts ...Option) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Topology == nil {
		return nil, errors.New("job: spec has no topology")
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	mode := o.mode
	if mode == 0 {
		if o.strategy != nil {
			mode = o.strategy.Mode()
		} else {
			mode = runtime.ModeCCR
		}
	}
	strategy := o.strategy
	if strategy == nil {
		strategy = defaultStrategyFor(mode)
	}

	cfg := runtime.DefaultConfig(mode)
	if o.seedSet {
		cfg.Seed = o.seed
	}
	if o.sourceRate > 0 {
		cfg.SourceRate = o.sourceRate
	}
	if o.overrides != nil {
		o.overrides(&cfg)
	}
	supPol := o.supPolicy.WithDefaults()
	if o.supervise {
		// The executor pulse and the detector sweep share one cadence;
		// setting it before the engine is built turns the heartbeats on.
		cfg.HeartbeatInterval = supPol.HeartbeatInterval
	}

	clock := o.clock
	if clock == nil {
		if o.timeScale <= 0 {
			return nil, fmt.Errorf("job: non-positive time scale %v", o.timeScale)
		}
		clock = timex.NewScaled(o.timeScale)
	}
	clus := cluster.New()
	topo := spec.Topology

	// The pinned boundary VM: sources and sinks on slots 0–2, the
	// checkpoint coordinator on slot 3, never migrated.
	pinnedVM := clus.ProvisionPinned(cluster.D3, clock.Now())
	pinned := make(map[topology.Instance]cluster.SlotRef)
	slotIdx := 0
	for _, inst := range topo.Instances(topology.RoleSource, topology.RoleSink) {
		if slotIdx >= 3 {
			return nil, fmt.Errorf("job: too many boundary instances for the pinned VM")
		}
		pinned[inst] = pinnedVM.Slots()[slotIdx]
		slotIdx++
	}
	coordSlot := pinnedVM.Slots()[3]

	fleetType, fleetVMs := cluster.D2, spec.DefaultVMs
	if o.fleetSet {
		fleetType, fleetVMs = o.fleetType, o.fleetVMs
	}
	clus.Provision(fleetType, fleetVMs, clock.Now())
	inner := topo.Instances(topology.RoleInner)
	sched, err := o.scheduler.Place(inner, clus.UnpinnedSlots())
	if err != nil {
		return nil, fmt.Errorf("job: initial placement: %w", err)
	}

	eng, err := runtime.New(runtime.Params{
		Topology:        topo,
		Factory:         o.factory,
		Clock:           clock,
		Config:          cfg,
		InnerSchedule:   sched,
		Pinned:          pinned,
		CoordinatorSlot: coordSlot,
	})
	if err != nil {
		return nil, fmt.Errorf("job: engine: %w", err)
	}

	j := &Job{
		spec:         spec,
		eng:          eng,
		clus:         clus,
		clock:        clock,
		cfg:          cfg,
		sched:        o.scheduler,
		strategy:     strategy,
		queueControl: o.queueControl,
		ctrl:         make(chan struct{}, 1),
		done:         make(chan struct{}),
		submitted:    clock.Now(),
	}
	j.state.Store(int32(StatePending))
	if o.supervise {
		j.attachSupervisor(supPol)
	}
	eng.SetPhaseHook(func(p runtime.MigrationPhase) {
		j.notifyPhase(p)
		j.emit(Event{Kind: EventMigrationPhase, Phase: p})
	})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				j.Stop()
			case <-j.done:
			}
		}()
	}
	return j, nil
}

// defaultStrategyFor maps an engine mode to the paper's strategy for it.
func defaultStrategyFor(mode runtime.Mode) core.Strategy {
	switch mode {
	case runtime.ModeDSM:
		return core.DSM{}
	case runtime.ModeDCR:
		return core.DCR{}
	default:
		return core.CCR{}
	}
}

// --- lifecycle ------------------------------------------------------------

// Start launches the dataflow. Idempotent; returns ErrStopped on a
// stopped job.
func (j *Job) Start() error {
	if !j.state.CompareAndSwap(int32(StatePending), int32(StateRunning)) {
		if j.State() == StateStopped {
			return ErrStopped
		}
		return nil
	}
	j.eng.Start()
	if j.sup != nil {
		j.sup.Start()
	}
	j.emit(Event{Kind: EventStarted})
	return nil
}

// Stop tears the job down: engine, executors, fabric, event stream.
// Idempotent and safe to call concurrently — every call returns only once
// the job is fully stopped, even if another goroutine did the work, and
// even while a migration or drain is in flight.
func (j *Job) Stop() {
	j.stopOnce.Do(func() {
		j.state.Store(int32(StateStopped))
		if j.sup != nil {
			// Stop supervision first: recovery loops observe the stopped
			// state (ErrHalted) and drain before the engine is torn down,
			// so no recovery races the teardown.
			j.sup.Stop()
		}
		j.eng.Stop()
		j.emit(Event{Kind: EventStopped})
		j.closeSubs()
		close(j.done)
	})
	<-j.done
}

// Done returns a channel closed once the job is fully stopped.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job stops or ctx is canceled.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State { return State(j.state.Load()) }

// Drain quiesces the dataflow: the sources pause, then Drain blocks until
// no data event is live and no respawn is pending. A live event is one
// that moves without any further control action: a root a source has
// popped, an event staged or batched in the fabric, buffered for a
// starting worker, queued at an executor, or in its hand. The engine
// counts them exactly (runtime.Engine.LiveEvents) and signals the count
// reaching zero, so Drain polls nothing and returns as soon as the last
// one has arrived or been discarded.
//
// Events parked at an executor — buffered before INIT, captured by CCR —
// are not live: only a checkpoint wave moves them, and a drain that
// waited for one could wait forever (a restarted stateful executor whose
// INIT never comes). Under DSM, a timed-out tree's replay also waits
// behind the paused source, so Drain does not wait for it either.
//
// The drained job keeps its executors and state — Resume continues it,
// Stop ends it. Canceling ctx aborts the drain and resumes the sources;
// a Stop meanwhile makes Drain return ErrStopped.
func (j *Job) Drain(ctx context.Context) error {
	if err := j.acquire(ctx, "Drain"); err != nil {
		return err
	}
	if !j.state.CompareAndSwap(int32(StateRunning), int32(StateDraining)) {
		st := j.State()
		j.release()
		if st == StateStopped {
			return ErrStopped
		}
		return fmt.Errorf("%w: cannot drain from state %s", ErrNotRunning, st)
	}
	j.eng.PauseSources()
	for {
		if err := ctx.Err(); err != nil {
			j.eng.UnpauseSources()
			j.state.CompareAndSwap(int32(StateDraining), int32(StateRunning))
			j.emit(Event{Kind: EventDrainCanceled, Err: err})
			j.release()
			return err
		}
		if j.eng.Quiescent() {
			break
		}
		select {
		case <-j.eng.Quiet():
		case <-ctx.Done():
		case <-j.done:
			j.release()
			return ErrStopped
		}
	}
	if !j.state.CompareAndSwap(int32(StateDraining), int32(StateDrained)) {
		j.release()
		return ErrStopped
	}
	j.emit(Event{Kind: EventDrained})
	j.release()
	return nil
}

// Resume unpauses a drained dataflow.
func (j *Job) Resume() error {
	if !j.state.CompareAndSwap(int32(StateDrained), int32(StateRunning)) {
		if j.State() == StateStopped {
			return ErrStopped
		}
		return fmt.Errorf("%w: cannot resume from state %s", ErrNotRunning, j.State())
	}
	j.eng.UnpauseSources()
	j.emit(Event{Kind: EventResumed})
	return nil
}

// --- control serialization ------------------------------------------------

// acquire takes the control token. In fail-fast mode (the default) it
// returns ErrBusy when another operation holds it; with queued control it
// waits, respecting ctx and job shutdown.
func (j *Job) acquire(ctx context.Context, op string) error {
	switch j.State() {
	case StateStopped:
		return ErrStopped
	case StatePending:
		return fmt.Errorf("%w: call Start before %s", ErrNotRunning, op)
	}
	if j.queueControl {
		select {
		case j.ctrl <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		case <-j.done:
			return ErrStopped
		}
	} else {
		select {
		case j.ctrl <- struct{}{}:
		default:
			return fmt.Errorf("%w (%s)", ErrBusy, op)
		}
	}
	if j.State() == StateStopped {
		j.release()
		return ErrStopped
	}
	return nil
}

func (j *Job) release() { <-j.ctrl }

// requireRunningHeld verifies the job is Running, with the control token
// already held; on failure the token is released. Migrations are refused
// on a Drained job because every strategy unpauses the sources when it
// finishes — it would silently thaw the dataflow while the state still
// said drained. Resume first.
func (j *Job) requireRunningHeld(op string) error {
	if st := j.State(); st != StateRunning {
		j.release()
		if st == StateStopped {
			return ErrStopped
		}
		return fmt.Errorf("%w: %s requires a running job (state %s) — call Resume first", ErrNotRunning, op, st)
	}
	return nil
}

// --- live operations ------------------------------------------------------

// checkStrategyMode verifies the engine is provisioned for the strategy:
// DSM needs always-on acking (ModeDSM); capture-based strategies (CCR and
// its ablations) need ModeCCR; DCR runs on ModeDCR or ModeCCR engines.
func (j *Job) checkStrategyMode(strat core.Strategy) error {
	sm := strat.Mode()
	if sm == j.cfg.Mode {
		return nil
	}
	if sm == runtime.ModeDCR && j.cfg.Mode == runtime.ModeCCR {
		return nil // a drain-based migration is safe on a capture engine
	}
	return fmt.Errorf("%w: %s needs a %s engine, job runs %s",
		ErrStrategyMode, strat.Name(), sm, j.cfg.Mode)
}

// Migrate live-migrates the dataflow onto target with the given strategy
// (nil means the job's default). It blocks until the dataflow is restored
// on the new schedule. Progress is published on the event stream, one
// EventMigrationPhase per engine phase.
//
// Canceling ctx abandons the wait: Migrate returns ctx.Err() immediately
// while the strategy unwinds in the background (checkpoint waves carry
// their own timeouts and roll back on failure). Control stays held until
// it does, so no other operation can interleave; the terminal
// Done/Failed event carries Detail "completed after cancellation".
func (j *Job) Migrate(ctx context.Context, strat core.Strategy, target *scheduler.Schedule) error {
	if strat == nil {
		strat = j.strategy
	}
	if target == nil {
		return errors.New("job: nil target schedule")
	}
	if err := j.checkStrategyMode(strat); err != nil {
		return err
	}
	if err := j.acquire(ctx, "Migrate"); err != nil {
		return err
	}
	if err := j.requireRunningHeld("Migrate"); err != nil {
		return err
	}
	return j.migrateHeld(ctx, strat, target, 0, nil)
}

// migrateHeld enacts a migration with the control token held and releases
// it when the strategy returns. after, when set, runs right after the
// strategy returns (token still held) with the migration error — Scale
// uses it to retire the old fleet exactly once, serialized with control.
func (j *Job) migrateHeld(ctx context.Context, strat core.Strategy, target *scheduler.Schedule, dir Direction, after func(error)) error {
	j.emit(Event{Kind: EventMigrationBegun, Strategy: strat.Name(), Direction: dir})
	errc := make(chan error, 1)
	go func() { errc <- strat.Migrate(j.eng, target) }()

	finish := func(err error, abandoned bool) {
		if after != nil {
			after(err)
		}
		detail := ""
		if abandoned {
			detail = "completed after cancellation"
		}
		if err != nil {
			j.emit(Event{Kind: EventMigrationFailed, Strategy: strat.Name(), Direction: dir, Err: err, Detail: detail})
		} else {
			j.migrations.Add(1)
			j.emit(Event{Kind: EventMigrationDone, Strategy: strat.Name(), Direction: dir, Detail: detail})
		}
		j.release()
	}

	select {
	case err := <-errc:
		finish(err, false)
		return err
	case <-ctx.Done():
		j.emit(Event{Kind: EventMigrationCanceled, Strategy: strat.Name(), Direction: dir, Err: ctx.Err()})
		go func() { finish(<-errc, true) }()
		return ctx.Err()
	}
}

// Scale enacts one of the paper's two Cloud scenarios with the job's
// default strategy: scale-out spreads the inner tasks onto ScaleOutVMs ×
// D1, scale-in consolidates them onto ScaleInVMs × D3 (Table 1). On
// success the old unpinned fleet is released — the billing motivation of
// Fig. 1. On failure both fleets stay provisioned (a failed checkpoint
// rolled the dataflow back onto the old one; a failed restore leaves it
// half-moved — the operator or a retry decides).
func (j *Job) Scale(ctx context.Context, dir Direction) error {
	return j.ScaleWith(ctx, dir, nil)
}

// ScaleWith is Scale with an explicit enactment strategy (nil means the
// job's default).
func (j *Job) ScaleWith(ctx context.Context, dir Direction, strat core.Strategy) error {
	if strat == nil {
		strat = j.strategy
	}
	if err := j.checkStrategyMode(strat); err != nil {
		return err
	}
	var vtype cluster.VMType
	var n int
	switch dir {
	case ScaleOut:
		vtype, n = cluster.D1, j.spec.ScaleOutVMs
	case ScaleIn:
		vtype, n = cluster.D3, j.spec.ScaleInVMs
	default:
		return fmt.Errorf("job: unknown scale direction %d", int(dir))
	}
	if err := j.acquire(ctx, "Scale"); err != nil {
		return err
	}
	if err := j.requireRunningHeld("Scale"); err != nil {
		return err
	}

	// Plan under the control token: fleet mutations must not interleave.
	oldVMs := j.clus.UnpinnedVMs()
	vms := j.clus.Provision(vtype, n, j.clock.Now())
	var slots []cluster.SlotRef
	for _, vm := range vms {
		slots = append(slots, vm.Slots()...)
	}
	inner := j.spec.Topology.Instances(topology.RoleInner)
	sched, err := j.sched.Place(inner, slots)
	if err != nil {
		err = fmt.Errorf("job: scale placement: %w", err)
		for _, vm := range vms {
			if rerr := j.clus.Release(vm.ID); rerr != nil {
				err = errors.Join(err, rerr)
			}
		}
		j.release()
		return err
	}
	return j.migrateHeld(ctx, strat, sched, dir, func(migErr error) {
		if migErr != nil {
			return
		}
		for _, vm := range oldVMs {
			if rerr := j.clus.Release(vm.ID); rerr != nil {
				j.emit(Event{Kind: EventFleetReleaseFailed, Detail: vm.ID, Err: rerr})
			}
		}
	})
}

// SetSourceRate changes the live per-source emission rate (ev/s) — the
// knob ramping workloads turn. Takes effect on the sources' next
// emission; no control token needed.
func (j *Job) SetSourceRate(r float64) {
	if r <= 0 {
		return
	}
	j.eng.SetSourceRate(r)
	j.emit(Event{Kind: EventRateChanged, Rate: r})
}

// Checkpoint runs one out-of-band JIT checkpoint cycle (sequential
// PREPARE/COMMIT waves, safe in every mode) and blocks until it commits.
// Serialized with the other control operations.
func (j *Job) Checkpoint(ctx context.Context) error {
	if err := j.acquire(ctx, "Checkpoint"); err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- j.eng.Coordinator().Checkpoint(checkpoint.Sequential, j.cfg.WaveTimeout) }()
	select {
	case err := <-errc:
		j.emit(Event{Kind: EventCheckpointDone, Err: err})
		j.release()
		return err
	case <-ctx.Done():
		go func() {
			j.emit(Event{Kind: EventCheckpointDone, Err: <-errc, Detail: "completed after cancellation"})
			j.release()
		}()
		return ctx.Err()
	}
}

// CrashExecutor kills an instance's executor abruptly (fault injection),
// publishing the crash on the event stream. Reports whether an executor
// was running.
func (j *Job) CrashExecutor(inst topology.Instance) bool {
	ok := j.eng.CrashExecutor(inst)
	if ok {
		j.emit(Event{Kind: EventExecutorCrashed, Instance: inst})
	}
	return ok
}

// RestartExecutor respawns a crashed instance's executor on its current
// slot, as a Storm supervisor would.
func (j *Job) RestartExecutor(inst topology.Instance) {
	j.eng.RestartExecutor(inst)
	j.emit(Event{Kind: EventExecutorRestarted, Instance: inst})
}

// OnPhase registers a callback invoked synchronously on every migration
// phase transition, on the migrating goroutine and before the phase's
// event is published. Unlike the Events stream there is no buffer to
// overflow, so a callback observes every phase — the hook chaos testing
// uses to crash an executor at an exact point inside an enactment.
// Callbacks must not block and must not take the control token
// (CrashExecutor and RestartExecutor are safe; Migrate would deadlock).
// Callbacks cannot be removed; register on a fresh job per run.
func (j *Job) OnPhase(f func(runtime.MigrationPhase)) {
	if f == nil {
		return
	}
	j.phaseMu.Lock()
	j.phaseFns = append(j.phaseFns, f)
	j.phaseMu.Unlock()
}

// notifyPhase invokes the OnPhase callbacks in registration order.
func (j *Job) notifyPhase(p runtime.MigrationPhase) {
	j.phaseMu.Lock()
	fns := make([]func(runtime.MigrationPhase), len(j.phaseFns))
	copy(fns, j.phaseFns)
	j.phaseMu.Unlock()
	for _, f := range fns {
		f(p)
	}
}

// --- observability --------------------------------------------------------

// Status is a point-in-time snapshot of the job.
type Status struct {
	// State is the lifecycle state.
	State State
	// DAG names the dataflow.
	DAG string
	// Mode is the engine's strategy provisioning.
	Mode runtime.Mode
	// Uptime is paper time since Submit.
	Uptime time.Duration
	// SourceRate is the live per-source emission rate (ev/s).
	SourceRate float64
	// RunningExecutors counts live executors; PendingRespawns counts
	// workers still starting after a rebalance.
	RunningExecutors, PendingRespawns int
	// QueueBacklog sums the input queues of live inner executors.
	QueueBacklog int
	// VMs counts provisioned VMs (pinned included); BillingRate is the
	// cluster's current cost per minute.
	VMs int
	// BillingRate is the cluster's current cost per minute.
	BillingRate float64
	// Migrations counts successfully completed migrations.
	Migrations int64
	// EventsDropped counts events dropped on full subscriber buffers.
	EventsDropped uint64
	// Supervised reports whether the job runs with WithSupervision; the
	// fields below are zero without it.
	Supervised bool
	// Health is the supervisor's verdict (healthy/recovering/degraded).
	Health supervisor.Health
	// Incidents counts completed recoveries; MeanMTTR averages their
	// detection→recovered latency.
	Incidents int
	// MeanMTTR is the mean recovery latency across incidents.
	MeanMTTR time.Duration
}

// Status snapshots the job.
func (j *Job) Status() Status {
	backlog := 0
	for _, d := range j.eng.QueueDepths() {
		backlog += d
	}
	var (
		supervised bool
		health     supervisor.Health
		incidents  int
		meanMTTR   time.Duration
	)
	if j.sup != nil {
		supervised = true
		health = j.sup.Health()
		stats := j.eng.Collector().MTTR()
		incidents, meanMTTR = stats.Incidents, stats.Mean
	}
	return Status{
		State:            j.State(),
		DAG:              j.spec.Topology.Name(),
		Mode:             j.cfg.Mode,
		Uptime:           j.clock.Since(j.submitted),
		SourceRate:       j.eng.SourceRate(),
		RunningExecutors: j.eng.RunningExecutors(),
		PendingRespawns:  j.eng.PendingRespawns(),
		QueueBacklog:     backlog,
		VMs:              len(j.clus.VMs()),
		BillingRate:      j.clus.RatePerMinute(),
		Migrations:       j.migrations.Load(),
		EventsDropped:    j.dropped.Load(),
		Supervised:       supervised,
		Health:           health,
		Incidents:        incidents,
		MeanMTTR:         meanMTTR,
	}
}

// Metrics derives the §4 measurements from the run so far.
func (j *Job) Metrics() metrics.Metrics {
	spec := metrics.DefaultStabilization(j.eng.ExpectedSinkRate())
	return j.eng.Collector().Compute(spec, 0)
}

// --- accessors ------------------------------------------------------------

// Engine exposes the underlying engine for observability (collector,
// audit, coordinator stats). Control must go through the Job — calling
// Rebalance or PauseSources directly bypasses serialization.
func (j *Job) Engine() *runtime.Engine { return j.eng }

// Cluster returns the job's VM pool.
func (j *Job) Cluster() *cluster.Cluster { return j.clus }

// Clock returns the job's paper-time clock.
func (j *Job) Clock() timex.Clock { return j.clock }

// Spec returns the deployed dataflow spec.
func (j *Job) Spec() dataflows.Spec { return j.spec }

// Config returns the engine configuration the job was provisioned with.
func (j *Job) Config() runtime.Config { return j.cfg }

// DefaultStrategy returns the enactment strategy Scale and nil-strategy
// Migrate calls use.
func (j *Job) DefaultStrategy() core.Strategy { return j.strategy }
