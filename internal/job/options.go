package job

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/supervisor"
	"repro/internal/timex"
	"repro/internal/workload"
)

// Option configures Submit. The zero configuration runs the paper's
// standard deployment: a ModeCCR engine under 50×-compressed paper time,
// counting task logic, the Table 1 default fleet (DefaultVMs × D2), and
// round-robin placement.
type Option func(*options)

type options struct {
	clock        timex.Clock
	timeScale    float64
	mode         runtime.Mode
	strategy     core.Strategy
	factory      workload.Factory
	seed         int64
	seedSet      bool
	sourceRate   float64
	overrides    func(*runtime.Config)
	scheduler    scheduler.Scheduler
	fleetType    cluster.VMType
	fleetVMs     int
	fleetSet     bool
	queueControl bool
	supervise    bool
	supPolicy    supervisor.Policy
}

func defaultOptions() options {
	return options{
		timeScale: 0.02,
		factory:   workload.CountFactory,
		scheduler: scheduler.RoundRobin{},
	}
}

// WithClock runs the job on the given clock (manual clocks for tests,
// real time for production). Overrides WithTimeScale.
func WithClock(c timex.Clock) Option { return func(o *options) { o.clock = c } }

// WithTimeScale compresses paper time by the given factor (0.02 ⇒ 50×
// faster than the paper's testbed). Ignored when WithClock is given.
func WithTimeScale(scale float64) Option { return func(o *options) { o.timeScale = scale } }

// WithMode provisions the engine for the given strategy family. Defaults
// to the default strategy's mode (WithStrategy), else ModeCCR — the most
// general JIT engine: it can enact both CCR and DCR migrations.
func WithMode(m runtime.Mode) Option { return func(o *options) { o.mode = m } }

// WithStrategy sets the default enactment strategy used by Scale and by
// Migrate when called with a nil strategy. Unless WithMode is also given,
// the engine is provisioned for this strategy's mode.
func WithStrategy(s core.Strategy) Option { return func(o *options) { o.strategy = s } }

// WithFactory sets the user logic factory (default: the paper's stateful
// counting logic).
func WithFactory(f workload.Factory) Option { return func(o *options) { o.factory = f } }

// WithSeed drives all engine randomness for reproducible runs.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed, o.seedSet = seed, true }
}

// WithSourceRate overrides the initial per-source emission rate in ev/s.
func WithSourceRate(r float64) Option { return func(o *options) { o.sourceRate = r } }

// WithConfigOverrides adjusts the engine configuration after defaults and
// the other options have been applied — the escape hatch for protocol
// constants that have no dedicated option (fabric shards and batch
// limits among them).
func WithConfigOverrides(f func(*runtime.Config)) Option {
	return func(o *options) { o.overrides = f }
}

// WithScheduler sets the placement policy used for the initial deployment
// and for Scale targets (default: round-robin, Storm's default).
func WithScheduler(s scheduler.Scheduler) Option { return func(o *options) { o.scheduler = s } }

// WithInitialFleet deploys the inner tasks on n VMs of the given flavor
// instead of the Table 1 default (DefaultVMs × D2).
func WithInitialFleet(t cluster.VMType, n int) Option {
	return func(o *options) { o.fleetType, o.fleetVMs, o.fleetSet = t, n, true }
}

// WithQueuedControl makes concurrent control operations (Migrate, Scale,
// Drain, Checkpoint) wait their turn instead of failing fast with
// ErrBusy. Waiting respects the operation's context.
func WithQueuedControl() Option { return func(o *options) { o.queueControl = true } }

// WithSupervision makes the job self-healing: every executor publishes
// paper-time heartbeats at the policy's interval, and a supervisor
// monitors them, respawning unexpectedly dead executors and restoring
// them from the last completed checkpoint (falling back to replay-only
// initialization when restore keeps failing). Recovery progress is
// published on the Events stream (EventFailureDetected / EventRestoring
// / EventRecovered / EventDegraded) and completed incidents are
// recorded in the metrics collector. Zero policy fields take the
// supervisor package defaults.
func WithSupervision(p supervisor.Policy) Option {
	return func(o *options) { o.supervise, o.supPolicy = true, p }
}
