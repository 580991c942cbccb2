// Package repro is a from-scratch Go reproduction of "Toward Reliable and
// Rapid Elasticity for Streaming Dataflows on Clouds" (Shukla & Simmhan,
// ICDCS 2018): a Storm-like distributed stream processing runtime and the
// three dataflow migration strategies the paper proposes and evaluates —
// DSM (the Storm baseline), DCR (Drain–Checkpoint–Restore) and CCR
// (Capture–Checkpoint–Resume).
//
// This package is the public facade. It re-exports the stable surface of
// the internal packages so applications can:
//
//   - build dataflow topologies (Builder, Topology) and reuse the paper's
//     benchmark DAGs (Linear, Diamond, Star, Grid, Traffic);
//   - deploy them on a modeled elastic cluster (Cluster, VM types, the
//     round-robin and resource-aware schedulers);
//   - run them on the engine (Engine, Config) under real or compressed
//     paper time;
//   - migrate them live between VM sets with DSM, DCR or CCR, with the
//     reliability guarantees of the paper (no message or state loss);
//   - and reproduce every evaluation artifact (Suite, Scenario, the
//     Table 1 / Fig. 5–9 generators).
//
// Quick start — submit a dataflow to the Job control plane and operate
// it live (see examples/quickstart):
//
//	j, err := repro.Submit(ctx, repro.Grid())
//	if err != nil { ... }
//	defer j.Stop()
//	j.Start()
//	clock := j.Clock()
//	clock.Sleep(60 * time.Second)           // steady state (paper time)
//	err = j.Scale(ctx, repro.ScaleIn)       // live CCR migration onto D3s
//	fmt.Println(j.Metrics(), j.Status())
//
// Or reproduce one scripted evaluation cell with the batch runner:
//
//	res, err := repro.RunScenario(ctx, repro.Scenario{
//	    Spec:      repro.Grid(),
//	    Strategy:  repro.CCR{},
//	    Direction: repro.ScaleIn,
//	    Run:       repro.DefaultRunConfig(),
//	})
//	fmt.Println(res.Metrics)
package repro

import (
	"repro/internal/autoscale"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/supervisor"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/workload"
)

// --- job control plane --------------------------------------------------

// Job is a long-lived handle on one deployed dataflow: lifecycle (Start,
// Drain, Resume, Stop, Wait, Done), live operations (Migrate, Scale,
// SetSourceRate, Checkpoint, fault injection), observability (Status,
// Metrics, Events) and serialized control. See internal/job.
type Job = job.Job

// Submit deploys a dataflow and returns its Job handle. The context
// bounds the job's lifetime; options tune clock, mode, seed, fleet and
// control semantics.
var Submit = job.Submit

// JobOption configures Submit.
type JobOption = job.Option

// Submit options.
var (
	WithClock           = job.WithClock
	WithTimeScale       = job.WithTimeScale
	WithMode            = job.WithMode
	WithStrategy        = job.WithStrategy
	WithFactory         = job.WithFactory
	WithSeed            = job.WithSeed
	WithSourceRate      = job.WithSourceRate
	WithConfigOverrides = job.WithConfigOverrides
	WithScheduler       = job.WithScheduler
	WithInitialFleet    = job.WithInitialFleet
	WithQueuedControl   = job.WithQueuedControl
	WithSupervision     = job.WithSupervision
)

// JobState is the job lifecycle state; JobStatus a point-in-time
// snapshot.
type (
	JobState  = job.State
	JobStatus = job.Status
)

// The job state machine's states.
const (
	StatePending  = job.StatePending
	StateRunning  = job.StateRunning
	StateDraining = job.StateDraining
	StateDrained  = job.StateDrained
	StateStopped  = job.StateStopped
)

// JobEvent is one typed transition on a job's Events stream; JobEventKind
// classifies it.
type (
	JobEvent     = job.Event
	JobEventKind = job.EventKind
)

// The event taxonomy (see internal/job).
const (
	EventStarted            = job.EventStarted
	EventMigrationBegun     = job.EventMigrationBegun
	EventMigrationPhase     = job.EventMigrationPhase
	EventMigrationDone      = job.EventMigrationDone
	EventMigrationFailed    = job.EventMigrationFailed
	EventMigrationCanceled  = job.EventMigrationCanceled
	EventFleetReleaseFailed = job.EventFleetReleaseFailed
	EventCheckpointDone     = job.EventCheckpointDone
	EventRateChanged        = job.EventRateChanged
	EventExecutorCrashed    = job.EventExecutorCrashed
	EventExecutorRestarted  = job.EventExecutorRestarted
	EventDrained            = job.EventDrained
	EventDrainCanceled      = job.EventDrainCanceled
	EventResumed            = job.EventResumed
	EventStopped            = job.EventStopped
	EventFailureDetected    = job.EventFailureDetected
	EventRestoring          = job.EventRestoring
	EventRecovered          = job.EventRecovered
	EventDegraded           = job.EventDegraded
)

// Typed control-plane errors.
var (
	ErrBusy         = job.ErrBusy
	ErrStopped      = job.ErrStopped
	ErrNotRunning   = job.ErrNotRunning
	ErrStrategyMode = job.ErrStrategyMode
)

// --- supervision and retry ------------------------------------------------

// SupervisionPolicy tunes the self-healing supervisor attached with
// WithSupervision: heartbeat cadence, missed-beat detection threshold,
// restore deadlines and the degradation cutoff. SupervisorHealth is the
// job's aggregate recovery health in Status.
type (
	SupervisionPolicy = supervisor.Policy
	SupervisorHealth  = supervisor.Health
)

// DefaultSupervisionPolicy returns the stock detection/recovery tuning.
var DefaultSupervisionPolicy = supervisor.DefaultPolicy

// Supervisor health states.
const (
	SupervisorHealthy    = supervisor.Healthy
	SupervisorRecovering = supervisor.Recovering
	SupervisorDegraded   = supervisor.Degraded
)

// RetryPolicy hardens control-plane enactments (MigrateWithRetry,
// ScaleWithRetry) against transient failures: busy control token,
// timed-out waves, attempts stuck past their deadline.
type RetryPolicy = job.RetryPolicy

// DefaultRetryPolicy returns the stock hardening policy.
var DefaultRetryPolicy = job.DefaultRetryPolicy

// MigrationPhase labels one engine-level transition inside a migration
// enactment, carried by EventMigrationPhase events.
type MigrationPhase = runtime.MigrationPhase

// The migration phases, in order (DSM skips the drain).
const (
	PhaseRequested      = runtime.PhaseRequested
	PhaseDrainEnd       = runtime.PhaseDrainEnd
	PhaseRebalanceStart = runtime.PhaseRebalanceStart
	PhaseRebalanceEnd   = runtime.PhaseRebalanceEnd
)

// --- topology construction -------------------------------------------------

// Topology is a validated streaming dataflow graph.
type Topology = topology.Topology

// Builder assembles a Topology incrementally.
type Builder = topology.Builder

// Task is one logical dataflow vertex; Instance one parallel instance.
type (
	Task     = topology.Task
	Instance = topology.Instance
)

// Grouping selects how an edge routes events among instances.
type Grouping = topology.Grouping

// Groupings, mirroring Storm's stream groupings.
const (
	Shuffle = topology.Shuffle
	Fields  = topology.Fields
	All     = topology.All
	Global  = topology.Global
)

// NewTopology starts building a dataflow with the given name.
func NewTopology(name string) *Builder { return topology.NewBuilder(name) }

// --- benchmark dataflows ----------------------------------------------------

// Spec bundles a benchmark topology with its Table 1 deployment facts.
type Spec = dataflows.Spec

// The paper's benchmark DAGs (Fig. 4 / Table 1).
var (
	Linear  = dataflows.Linear
	Diamond = dataflows.Diamond
	Star    = dataflows.Star
	Grid    = dataflows.Grid
	Traffic = dataflows.Traffic
	LinearN = dataflows.LinearN
	// GridScaled is Grid with k-fold parallelism (sized for k*8 ev/s),
	// the high-parallelism stress scenario for the delivery fabric.
	GridScaled = dataflows.GridScaled
)

// DAGByName resolves a benchmark dataflow by name.
var DAGByName = dataflows.ByName

// SpecOf derives Table-1-style deployment sizing for a user-built
// topology so it can be submitted to the Job control plane.
var SpecOf = dataflows.SpecOf

// --- cluster and scheduling --------------------------------------------------

// Cluster models the elastic VM pool; VMType a provisionable flavor;
// SlotRef one resource slot.
type (
	Cluster = cluster.Cluster
	VMType  = cluster.VMType
	SlotRef = cluster.SlotRef
)

// Azure D-series flavors used by the paper.
var (
	D1 = cluster.D1
	D2 = cluster.D2
	D3 = cluster.D3
)

// NewCluster returns an empty cluster.
func NewCluster() *Cluster { return cluster.New() }

// Schedule maps instances to slots; Scheduler is a placement policy.
type (
	Schedule  = scheduler.Schedule
	Scheduler = scheduler.Scheduler
)

// Placement policies: Storm's default round-robin and an R-Storm-style
// packing scheduler.
type (
	RoundRobin    = scheduler.RoundRobin
	ResourceAware = scheduler.ResourceAware
)

// ScheduleDiff returns the instances whose placement changes between two
// schedules — the migration set.
var ScheduleDiff = scheduler.Diff

// --- engine -------------------------------------------------------------------

// Engine executes a dataflow; Config carries its protocol constants.
type (
	Engine = runtime.Engine
	Config = runtime.Config
)

// Mode selects which strategy machinery the engine is provisioned with.
type Mode = runtime.Mode

// Engine modes, one per strategy.
const (
	ModeDSM = runtime.ModeDSM
	ModeDCR = runtime.ModeDCR
	ModeCCR = runtime.ModeCCR
)

// DefaultConfig returns the paper's experiment configuration for a mode.
var DefaultConfig = runtime.DefaultConfig

// Clock abstractions: real time, compressed paper time, manual test time.
type Clock = timex.Clock

// Clock constructors.
var (
	NewRealClock   = timex.NewReal
	NewScaledClock = timex.NewScaled
	NewManualClock = timex.NewManual
)

// Logic is the user logic of one task instance; Factory builds one per
// instance.
type (
	Logic   = workload.Logic
	Factory = workload.Factory
)

// Built-in logic: stateful counting (checkpointable) and stateless
// pass-through.
var (
	CountFactory = workload.CountFactory
	PassFactory  = workload.PassFactory
)

// --- migration strategies -------------------------------------------------------

// Strategy enacts a planned migration of a running dataflow.
type Strategy = core.Strategy

// The paper's strategies and the INIT-delivery ablation variant.
type (
	DSM        = core.DSM
	DCR        = core.DCR
	CCR        = core.CCR
	CCRSeqInit = core.CCRSeqInit
)

// StrategyByName resolves a strategy by acronym.
var StrategyByName = core.ByName

// AllStrategies returns DSM, DCR and CCR in the paper's order.
var AllStrategies = core.All

// Checkpoint wave delivery modes (see internal/checkpoint).
const (
	Sequential = checkpoint.Sequential
	Broadcast  = checkpoint.Broadcast
)

// --- metrics and experiments ------------------------------------------------------

// Metrics holds the §4 measurements of one migration run.
type Metrics = metrics.Metrics

// Scenario is one evaluation cell; Result its outcome; RunConfig tunes
// execution; Suite memoizes a full evaluation matrix.
type (
	Scenario  = experiments.Scenario
	Result    = experiments.Result
	RunConfig = experiments.RunConfig
	Suite     = experiments.Suite
)

// Direction is the elasticity scenario.
type Direction = experiments.Direction

// Scale directions of §5.
const (
	ScaleIn  = experiments.ScaleIn
	ScaleOut = experiments.ScaleOut
)

// RunScenario executes one scenario end to end (on the Job control
// plane under the hood). Canceling ctx drains the dataflow gracefully and
// returns the partial Result with Canceled set.
var RunScenario = experiments.Run

// NewSuite returns a memoizing evaluation matrix runner.
var NewSuite = experiments.NewSuite

// DefaultRunConfig returns the standard evaluation settings (50×
// compressed paper time).
var DefaultRunConfig = experiments.DefaultRunConfig

// Table1 renders the deployment inventory of the paper's Table 1.
var Table1 = experiments.Table1

// --- autoscaling ------------------------------------------------------------

// AutoscalePolicy recommends scale directions from live observations;
// AutoscaleLoop is the closed monitor → plan → enact controller built on
// the migration strategies. See internal/autoscale.
type (
	AutoscalePolicy   = autoscale.Policy
	AutoscaleLoop     = autoscale.Loop
	AutoscaleDecision = autoscale.Decision
	AutoscaleSnapshot = autoscale.Snapshot
	Fleet             = autoscale.Fleet
	Hysteresis        = autoscale.Hysteresis
	Enactor           = autoscale.Enactor
	Allocator         = autoscale.Allocator
	AutoscaleTarget   = autoscale.Target
)

// The three shipped policies: load vs. capacity, queue depth, and tail
// latency against an SLO.
type (
	UtilizationBand   = autoscale.UtilizationBand
	QueueBackpressure = autoscale.QueueBackpressure
	LatencySLO        = autoscale.LatencySLO
)

// AutoscalePolicyByName resolves a shipped policy (with default tuning)
// by name: util-band, queue, latency-slo.
var AutoscalePolicyByName = autoscale.ByName

// AllAutoscalePolicies returns the shipped policies with default tunings.
var AllAutoscalePolicies = autoscale.All

// DefaultAllocator consolidates onto D3 and spreads onto D1 (Table 1).
var DefaultAllocator = autoscale.DefaultAllocator

// ObserveAutoscale samples a running engine into a policy Snapshot.
var ObserveAutoscale = autoscale.Observe

// Autoscale experiment runners: one scenario cell, and the full policy ×
// strategy comparison table.
type (
	AutoscaleScenario = experiments.AutoscaleScenario
	AutoscaleResult   = experiments.AutoscaleResult
)

// RunAutoscaleScenario executes one autoscale cell end to end under a
// context.
var RunAutoscaleScenario = experiments.RunAutoscale

// AutoscaleComparison renders the policy × strategy comparison table.
var AutoscaleComparison = experiments.AutoscaleComparison

// AutoscaleMigrateFunc routes autoscale enactments through an external
// control plane; JobControl adapts a Job handle to it so loop enactments
// serialize with operator-initiated operations. ErrEnactmentRejected
// marks an enactment the control plane refused before anything moved.
type AutoscaleMigrateFunc = autoscale.MigrateFunc

// JobControl adapts a Job to the Enactor's Control hook.
var JobControl = autoscale.JobControl

// ErrEnactmentRejected marks a control-plane-refused enactment.
var ErrEnactmentRejected = autoscale.ErrRejected
