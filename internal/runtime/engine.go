package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/statestore"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Params configures an Engine.
type Params struct {
	// Topology is the dataflow to execute.
	Topology *topology.Topology
	// Factory builds the user logic of each task instance.
	Factory workload.Factory
	// Clock is the paper-time clock.
	Clock timex.Clock
	// Config carries the protocol constants.
	Config Config
	// InnerSchedule places the inner task instances on cluster slots.
	InnerSchedule *scheduler.Schedule
	// Pinned places the source and sink instances (never migrated).
	Pinned map[topology.Instance]cluster.SlotRef
	// CoordinatorSlot hosts the checkpoint coordinator (on the pinned VM).
	CoordinatorSlot cluster.SlotRef
}

// Engine executes a dataflow and exposes the operations the migration
// strategies are composed of: pausing sources, running checkpoint waves
// (through the Coordinator), rebalancing onto a new schedule, and
// restoring state. See the package comment for the architecture.
type Engine struct {
	cfg       Config
	topo      *topology.Topology
	clock     timex.Clock
	factory   workload.Factory
	collector *metrics.Collector
	audit     *Audit
	ack       *acker.Service
	store     *statestore.Server
	coord     *checkpoint.Coordinator
	idgen     *tuple.IDGen
	fab       *fabric

	rngMu sync.Mutex
	rng   *rand.Rand

	mu            sync.RWMutex
	placement     map[string]cluster.SlotRef
	placementInst map[topology.Instance]cluster.SlotRef // same placements, instance-keyed for the send hot path
	executors     map[topology.Instance]*Executor
	pendingSpawn  map[topology.Instance]*spawnBuffer
	migrating     map[topology.Instance]bool // killed by Rebalance, respawn not yet scheduled/fired
	sources       []*Source
	innerSchedule *scheduler.Schedule
	respawnTimers map[uint64]timex.Timer // pending only; fired timers remove themselves
	respawnSeq    uint64
	started       bool
	stopped       bool

	// Static routing, compiled once in New (see sender): plan holds every
	// task instance's outgoing routes; the coordinator sends over
	// broadcast (every stateful instance) and firstLayer (the instances
	// the sources feed).
	plan          map[topology.Instance]*sender
	broadcast     []*linkStage
	firstLayer    []*linkStage
	expectAlign   map[string]int
	statefulInsts []topology.Instance

	// migrationGen counts migration requests: 0 before the first, g after
	// the g-th. Roots are stamped with it so the audit can boundary-check
	// every enactment separately.
	migrationGen atomic.Uint64
	stopping     atomic.Bool   // Stop in progress: its kills are discard, not loss
	lostKill     atomic.Int64  // data events dropped by executor kills
	srcRate      atomic.Uint64 // live per-source rate (math.Float64bits)

	// stopDone is closed once Stop has fully torn the engine down;
	// concurrent Stop callers wait on it so "Stop returned" always means
	// "engine stopped", whichever call did the work.
	stopDone chan struct{}

	// phaseHook, when set, observes migration phase transitions (the Job
	// control plane turns them into events). Holds a func(MigrationPhase).
	phaseHook atomic.Value

	// heartbeats holds the per-instance liveness pulse slots (paper-time
	// UnixNano of the last beat); see pulse.go. Guarded by hbMu, not mu:
	// beats are published from pulse goroutines that must not contend
	// with the engine's structural lock.
	hbMu       sync.Mutex
	heartbeats map[topology.Instance]*atomic.Int64

	wg sync.WaitGroup
}

// MigrationPhase labels one transition inside a migration enactment,
// reported through the hook installed with SetPhaseHook.
type MigrationPhase string

// The phases every strategy passes through, in order. DSM skips
// PhaseDrainEnd (it never drains).
const (
	PhaseRequested      MigrationPhase = "requested"
	PhaseDrainEnd       MigrationPhase = "drain-end"
	PhaseRebalanceStart MigrationPhase = "rebalance-start"
	PhaseRebalanceEnd   MigrationPhase = "rebalance-end"
)

// SetPhaseHook installs f to observe migration phase transitions. One
// hook at a time; f must be fast and non-blocking (it runs on the
// migrating goroutine). A nil f removes the hook.
func (e *Engine) SetPhaseHook(f func(MigrationPhase)) {
	e.phaseHook.Store(f)
}

func (e *Engine) notePhase(p MigrationPhase) {
	if f, _ := e.phaseHook.Load().(func(MigrationPhase)); f != nil {
		f(p)
	}
}

// coordinatorKey is the placement key of the checkpoint coordinator.
const coordinatorKey = checkpoint.CoordinatorTask + "[0]"

// New builds an Engine. Call Start to launch it.
func New(p Params) (*Engine, error) {
	if p.Topology == nil || p.Factory == nil || p.Clock == nil || p.InnerSchedule == nil {
		return nil, fmt.Errorf("runtime: missing required params")
	}
	e := &Engine{
		cfg:           p.Config,
		topo:          p.Topology,
		clock:         p.Clock,
		factory:       p.Factory,
		collector:     metrics.NewCollector(p.Clock),
		audit:         NewAudit(),
		store:         statestore.NewServer(),
		idgen:         &tuple.IDGen{},
		rng:           rand.New(rand.NewSource(p.Config.Seed)),
		placement:     make(map[string]cluster.SlotRef),
		placementInst: make(map[topology.Instance]cluster.SlotRef),
		executors:     make(map[topology.Instance]*Executor),
		pendingSpawn:  make(map[topology.Instance]*spawnBuffer),
		migrating:     make(map[topology.Instance]bool),
		heartbeats:    make(map[topology.Instance]*atomic.Int64),
		respawnTimers: make(map[uint64]timex.Timer),
		innerSchedule: p.InnerSchedule,
		expectAlign:   make(map[string]int),
	}
	e.srcRate.Store(math.Float64bits(p.Config.SourceRate))
	e.ack = acker.New(p.Clock, ackTimeoutFor(p.Config), p.Config.AckBuckets)
	e.coord = checkpoint.NewCoordinator(p.Clock, (*engineTransport)(e), e.idgen)

	// Placement: pinned boundary tasks, the coordinator, then the inner
	// schedule.
	for inst, ref := range p.Pinned {
		e.placement[inst.String()] = ref
		e.placementInst[inst] = ref
	}
	e.placement[coordinatorKey] = p.CoordinatorSlot
	for _, inst := range p.InnerSchedule.Instances() {
		ref, _ := p.InnerSchedule.Slot(inst)
		e.placement[inst.String()] = ref
		e.placementInst[inst] = ref
	}

	var firstLayer []topology.Instance
	for _, task := range e.topo.Inner() {
		expect := 0
		hasSourceIn := false
		for _, edge := range e.topo.Incoming(task.Name) {
			from := e.topo.Task(edge.From)
			if from.Role == topology.RoleSource {
				hasSourceIn = true
			} else {
				expect += from.Parallelism
			}
		}
		if hasSourceIn {
			expect++ // one copy injected by the coordinator
		}
		e.expectAlign[task.Name] = expect
		if hasSourceIn {
			firstLayer = append(firstLayer, instancesOf(task)...)
		}
		if task.Stateful {
			e.statefulInsts = append(e.statefulInsts, instancesOf(task)...)
		}
	}

	// Verify every instance that needs a slot has one.
	for _, inst := range e.topo.Instances() {
		if _, ok := e.placement[inst.String()]; !ok {
			return nil, fmt.Errorf("runtime: instance %s has no slot", inst)
		}
	}
	// Last, after validation can no longer fail: the fabric spawns its
	// shard goroutines eagerly, and an error return above would leak them.
	e.fab = newFabric(fabricParams{
		clock:        p.Clock,
		net:          p.Config.Network,
		slotOf:       e.slotOf,
		slotOfInst:   e.slotOfInst,
		deliverBatch: e.deliverBatch,
		shards:       p.Config.FabricShards,
		batchSize:    p.Config.BatchMaxSize,
	})
	e.compileRoutes(firstLayer)
	return e, nil
}

// sender is one sending instance's routing plan, compiled once: the
// send path walks it and never consults the topology, formats a key or
// looks a link up.
type sender struct {
	inst   topology.Instance
	routes []route // one per outgoing edge, in Outgoing order
}

// route is one outgoing edge of a sender.
type route struct {
	grouping topology.Grouping
	// shuffle is the edge's round-robin counter, shared by every instance
	// of the sending task.
	shuffle *atomic.Uint64
	// links holds one fabric link per target instance, indexed by the
	// instance's index; len(links) is the target parallelism.
	links []*linkStage
	// toInner marks an inner target: checkpoint waves travel only there
	// (sinks do not take part in the protocol).
	toInner bool
}

// pick selects the link to the target instance for a data event with
// the given key, per the edge's grouping.
func (r *route) pick(key uint64) *linkStage {
	switch r.grouping {
	case topology.Fields:
		return r.links[hash64(key)%uint64(len(r.links))]
	case topology.Global:
		return r.links[0]
	default:
		// Shuffle. All-grouping is handled by callers that need it
		// (checkpoint forwarding); for data it round-robins like shuffle
		// to keep the one-target contract.
		return r.links[(r.shuffle.Add(1)-1)%uint64(len(r.links))]
	}
}

// compileRoutes builds every instance's sender plan and the
// coordinator's links. It runs once, after the fabric exists.
func (e *Engine) compileRoutes(firstLayer []topology.Instance) {
	e.plan = make(map[topology.Instance]*sender)
	for _, name := range e.topo.TaskNames() {
		task := e.topo.Task(name)
		edges := e.topo.Outgoing(name)
		shuffle := make([]atomic.Uint64, len(edges))
		for _, inst := range instancesOf(task) {
			from := inst.String()
			s := &sender{inst: inst, routes: make([]route, len(edges))}
			for i, edge := range edges {
				to := e.topo.Task(edge.To)
				r := route{grouping: edge.Grouping, shuffle: &shuffle[i], toInner: to.Role == topology.RoleInner}
				for _, target := range instancesOf(to) {
					r.links = append(r.links, e.fab.link(from, target))
				}
				s.routes[i] = r
			}
			e.plan[inst] = s
		}
	}
	for _, inst := range e.statefulInsts {
		e.broadcast = append(e.broadcast, e.fab.link(coordinatorKey, inst))
	}
	for _, inst := range firstLayer {
		e.firstLayer = append(e.firstLayer, e.fab.link(coordinatorKey, inst))
	}
}

// ackTimeoutFor disables data-event timeouts when acking is off: the acker
// still exists but tracks nothing.
func ackTimeoutFor(cfg Config) time.Duration {
	if cfg.AckDataEvents() {
		return cfg.AckTimeout
	}
	return 0
}

func instancesOf(task *topology.Task) []topology.Instance {
	out := make([]topology.Instance, task.Parallelism)
	for i := range out {
		out[i] = topology.Instance{Task: task.Name, Index: i}
	}
	return out
}

// Start launches executors for every inner and sink instance, the
// sources, and (under DSM) periodic checkpointing. A no-op once started
// — or once stopped: a Start racing a concurrent Stop must not relaunch
// a dataflow whose teardown already completed.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started || e.stopped {
		e.mu.Unlock()
		return
	}
	e.started = true
	for _, inst := range e.topo.Instances(topology.RoleInner, topology.RoleSink) {
		ex := newExecutor(e, inst, true)
		e.executors[inst] = ex
		e.wg.Add(1)
		go ex.run()
		e.startPulse(ex)
	}
	for _, inst := range e.topo.Instances(topology.RoleSource) {
		s := newSource(e, inst)
		e.sources = append(e.sources, s)
		s.start()
	}
	e.mu.Unlock()

	// Periodic checkpointing runs whenever an interval is configured
	// (always for DSM; optionally for ablations of the JIT design).
	if e.cfg.CheckpointInterval > 0 {
		e.coord.StartPeriodic(e.cfg.CheckpointInterval, e.cfg.WaveTimeout)
	}
}

// Stop shuts the engine down: coordinator, sources, acker, executors,
// then the delivery fabric. Idempotent and safe to call concurrently —
// every call returns only after the engine is fully stopped, whichever
// call did the teardown — and safe to race with an in-flight Rebalance
// (the rebalance's kills and respawns fold into the shutdown).
func (e *Engine) Stop() {
	e.stopping.Store(true)
	e.mu.Lock()
	if e.stopped {
		done := e.stopDone
		e.mu.Unlock()
		<-done
		return
	}
	e.stopped = true
	e.stopDone = make(chan struct{})
	defer close(e.stopDone)
	for _, t := range e.respawnTimers {
		t.Stop()
	}
	e.respawnTimers = make(map[uint64]timex.Timer)
	sources := e.sources
	e.mu.Unlock()

	e.coord.Close()
	for _, s := range sources {
		s.stop()
	}
	e.ack.Close()

	e.mu.Lock()
	exs := make([]*Executor, 0, len(e.executors))
	for _, ex := range e.executors {
		exs = append(exs, ex)
	}
	e.executors = make(map[topology.Instance]*Executor)
	e.mu.Unlock()
	for _, ex := range exs {
		ex.Kill()
	}
	e.wg.Wait()
	e.fab.Close()
}

// --- accessors -----------------------------------------------------------

// Collector returns the metrics collector.
func (e *Engine) Collector() *metrics.Collector { return e.collector }

// Audit returns the reliability auditor.
func (e *Engine) Audit() *Audit { return e.audit }

// Coordinator returns the checkpoint coordinator.
func (e *Engine) Coordinator() *checkpoint.Coordinator { return e.coord }

// Acker returns the acking service.
func (e *Engine) Acker() *acker.Service { return e.ack }

// Store returns the state store server (for inspection).
func (e *Engine) Store() *statestore.Server { return e.store }

// Clock returns the engine clock.
func (e *Engine) Clock() timex.Clock { return e.clock }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Topology returns the running dataflow.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// ExpectedSinkRate returns the steady-state sink input rate in ev/s at
// the current source rate.
func (e *Engine) ExpectedSinkRate() float64 {
	return e.ExpectedSinkRateAt(e.SourceRate())
}

// ExpectedSinkRateAt returns the steady-state sink input rate at a given
// per-source rate. Callers that also need the rate itself should read
// SourceRate once and pass it here, so a concurrent SetSourceRate cannot
// slip between the two reads.
func (e *Engine) ExpectedSinkRateAt(rate float64) float64 {
	rates := e.topo.InputRate(rate)
	total := 0.0
	for _, sink := range e.topo.Sinks() {
		total += rates[sink.Name]
	}
	return total
}

// Fanout returns the number of source→sink event copies per payload
// (e.g. 4 for Grid), used by duplicate accounting.
func (e *Engine) Fanout() int {
	rate := e.SourceRate()
	return int(e.ExpectedSinkRateAt(rate)/rate + 0.5)
}

// SourceRate returns the live per-source emission rate in ev/s. It starts
// at Config.SourceRate and changes via SetSourceRate.
func (e *Engine) SourceRate() float64 {
	return math.Float64frombits(e.srcRate.Load())
}

// SetSourceRate changes the per-source emission rate while the dataflow
// runs — the knob ramping workloads (and the autoscale experiments) turn.
// Generators pick the new pace up on their next emission.
func (e *Engine) SetSourceRate(r float64) {
	if r <= 0 {
		return
	}
	e.srcRate.Store(math.Float64bits(r))
}

// QueueDepths reports the current input queue depth of every live inner
// executor — the backpressure signal consumed by autoscale policies.
// Instances that are down (mid-respawn) are absent.
func (e *Engine) QueueDepths() map[topology.Instance]int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[topology.Instance]int, len(e.executors))
	for inst, ex := range e.executors {
		if e.topo.Task(inst.Task).Role != topology.RoleInner {
			continue
		}
		out[inst] = ex.QueueLen()
	}
	return out
}

// DroppedDeliveries reports events lost at delivery (down executors).
func (e *Engine) DroppedDeliveries() uint64 { return e.fab.Dropped() }

// LostAtKill reports data events discarded from killed executors' queues.
func (e *Engine) LostAtKill() int64 { return e.lostKill.Load() }

// Executor returns the live executor for an instance, or nil.
func (e *Engine) Executor(inst topology.Instance) *Executor {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.executors[inst]
}

// --- migration operations ------------------------------------------------

// OnMigrationRequested marks the user's migration request: the metrics
// epoch, the event PreMigration boundary, and a fresh audit generation.
func (e *Engine) OnMigrationRequested() {
	e.collector.MarkMigrationRequested()
	gen := e.migrationGen.Add(1)
	e.audit.BeginGeneration(gen)
	e.notePhase(PhaseRequested)
}

// MigrationGen reports how many migrations have been requested so far —
// the generation stamped onto roots emitted from now on.
func (e *Engine) MigrationGen() uint64 { return e.migrationGen.Load() }

// MarkDrainEnd records the end of the drain/capture phase (the JIT
// checkpoint committed) and reports it to the phase hook. Strategies call
// this instead of marking the collector directly so control planes
// observe the transition.
func (e *Engine) MarkDrainEnd() {
	e.collector.MarkDrainEnd()
	e.notePhase(PhaseDrainEnd)
}

func (e *Engine) migrationRequested() bool { return e.migrationGen.Load() > 0 }

// SourcesSettled reports the paper instant, at most now, before which
// every source's input-rate record is final (see Source.settled): a
// window ending there reads no dip from emissions a late-running source
// has yet to record.
func (e *Engine) SourcesSettled() time.Time {
	now := e.clock.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	t := now
	for _, s := range e.sources {
		if at := s.settled(now); at.Before(t) {
			t = at
		}
	}
	return t
}

// PauseSources stops all sources from emitting (their generators keep
// accumulating backlog).
func (e *Engine) PauseSources() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, s := range e.sources {
		s.Pause()
	}
}

// UnpauseSources resumes emission, draining backlog at the burst rate.
func (e *Engine) UnpauseSources() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, s := range e.sources {
		s.Unpause()
	}
}

// PauseSinks stops sink executors from consuming (arrivals buffer in
// their queues): the paper's "pause user sink" step of DCR/CCR, which
// holds output throughput at zero until the migration restores.
func (e *Engine) PauseSinks() {
	e.forEachSink(func(ex *Executor) { ex.Pause() })
}

// UnpauseSinks resumes sink consumption.
func (e *Engine) UnpauseSinks() {
	e.forEachSink(func(ex *Executor) { ex.Unpause() })
}

func (e *Engine) forEachSink(f func(*Executor)) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for inst, ex := range e.executors {
		if e.topo.Task(inst.Task).Role == topology.RoleSink {
			f(ex)
		}
	}
}

// Rebalance enacts Storm's rebalance command with zero timeout: kill the
// executors whose slots change, wait out the command's runtime, update
// placement, and schedule the respawned workers with staggered start
// delays. It returns once the command completes — workers may still be
// starting, exactly as observed in the paper. A worker whose start delay
// is not positive is already running when Rebalance returns, so the INIT
// a zero-delay migration sends next never finds it starting.
func (e *Engine) Rebalance(newSched *scheduler.Schedule) []topology.Instance {
	e.collector.MarkRebalanceStart()
	e.notePhase(PhaseRebalanceStart)

	e.mu.Lock()
	migrating := scheduler.Diff(e.innerSchedule, newSched)
	for _, inst := range migrating {
		// Mark the instance down-by-design before the kill so a failure
		// detector polling MidRespawn never sees an unexplained corpse —
		// the window between this kill and the respawn timer being
		// scheduled (the rebalance command runtime) would otherwise read
		// as an unplanned death.
		e.migrating[inst] = true
		if ex := e.executors[inst]; ex != nil {
			delete(e.executors, inst)
			e.lostKill.Add(int64(ex.Kill()))
		}
	}
	for _, inst := range newSched.Instances() {
		ref, _ := newSched.Slot(inst)
		e.placement[inst.String()] = ref
		e.placementInst[inst] = ref
	}
	e.innerSchedule = newSched
	e.mu.Unlock()

	e.clock.Sleep(e.cfg.RebalanceCmdTime)
	e.collector.MarkRebalanceEnd()
	e.notePhase(PhaseRebalanceEnd)

	// Workers respawn in arbitrary order (Storm's assignment of executors
	// to new workers is not deterministic), serialized by the stagger.
	order := make([]topology.Instance, len(migrating))
	copy(order, migrating)
	e.rngMu.Lock()
	e.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	e.rngMu.Unlock()

	e.mu.Lock()
	if e.stopped {
		// A Stop raced in while the rebalance command ran: it already
		// cancelled every respawn timer, so scheduling new ones would
		// leave workers respawning into a dead engine.
		e.mu.Unlock()
		return migrating
	}
	var spawnNow []topology.Instance
	for i, inst := range order {
		inst := inst
		// From this point the new assignment is known: the transport
		// buffers data events for the starting worker (see spawnBuffer).
		// An instance migrated again before its respawn fired may still
		// have a pending buffer: retire it as dead and count its events —
		// the reassignment drops the old transport queue, a loss like any
		// other kill.
		if old := e.pendingSpawn[inst]; old != nil {
			old.mu.Lock()
			old.flushed = true
			for _, ev := range old.events {
				if ev.IsData() {
					e.lostKill.Add(1)
				}
				ev.Release() // retired with the buffer: nothing reads it again
			}
			old.events = nil
			old.mu.Unlock()
		}
		e.pendingSpawn[inst] = &spawnBuffer{}
		delay := e.cfg.WorkerBaseDelay + time.Duration(i)*e.cfg.WorkerStagger + e.randJitter()
		if delay <= 0 {
			spawnNow = append(spawnNow, inst)
			continue
		}
		id := e.respawnSeq
		e.respawnSeq++
		e.respawnTimers[id] = e.clock.AfterFunc(delay, func() { e.respawnFired(id, inst) })
	}
	e.mu.Unlock()
	for _, inst := range spawnNow {
		e.spawn(inst)
	}
	return migrating
}

// respawnFired retires a fired respawn timer and spawns its instance.
// Removing the entry keeps respawnTimers holding pending timers only —
// long-running autoscale loops rebalance hundreds of times, and an
// append-only record would leak a timer per migrated instance per
// rebalance.
func (e *Engine) respawnFired(id uint64, inst topology.Instance) {
	e.mu.Lock()
	delete(e.respawnTimers, id)
	e.mu.Unlock()
	e.spawn(inst)
}

// PendingRespawns reports how many respawn timers have not fired yet
// (diagnostics and leak tests).
func (e *Engine) PendingRespawns() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.respawnTimers)
}

func (e *Engine) randJitter() time.Duration {
	if e.cfg.WorkerJitter <= 0 {
		return 0
	}
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return time.Duration(e.rng.Int63n(int64(e.cfg.WorkerJitter)))
}

// spawn brings a migrated executor up on its new slot. Stateful tasks
// start uninitialized and buffer data until their INIT arrives. Events
// the transport buffered while the worker was starting are flushed into
// the input queue first, preserving per-link FIFO order.
func (e *Engine) spawn(inst topology.Instance) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	buf := e.pendingSpawn[inst]
	delete(e.pendingSpawn, inst)
	delete(e.migrating, inst)
	if _, exists := e.executors[inst]; exists {
		if buf != nil {
			// Unregistered without a flush target: mark the buffer dead
			// so a racing delivery fails over instead of appending into
			// the void, and release anything it still holds.
			buf.mu.Lock()
			buf.flushed = true
			for _, ev := range buf.events {
				ev.Release()
			}
			buf.events = nil
			buf.mu.Unlock()
		}
		return
	}
	ex := newExecutor(e, inst, false)
	if buf != nil {
		buf.mu.Lock()
		ex.in.PushBatch(buf.events) // queue is fresh and open: cannot fail
		buf.events = nil
		buf.flushed = true
		buf.mu.Unlock()
	}
	e.executors[inst] = ex
	e.wg.Add(1)
	go ex.run()
	e.startPulse(ex)
}

// CrashExecutor kills an executor abruptly (fault injection): its queue
// is discarded exactly as when a worker JVM dies. Unlike Rebalance, no
// respawn is scheduled — pair with RestartExecutor to model a supervisor
// restarting the worker.
func (e *Engine) CrashExecutor(inst topology.Instance) bool {
	e.mu.Lock()
	ex := e.executors[inst]
	delete(e.executors, inst)
	e.mu.Unlock()
	if ex == nil {
		return false
	}
	e.lostKill.Add(int64(ex.Kill()))
	return true
}

// RestartExecutor spawns a fresh executor for a crashed instance on its
// current slot, uninitialized if stateful (it buffers data until an INIT
// wave hands it the last committed state), as Storm supervisors do.
func (e *Engine) RestartExecutor(inst topology.Instance) {
	e.spawn(inst)
}

// SwapLogicFactory atomically replaces the logic factory used for
// executors spawned from now on. Combined with a drain-based migration it
// implements the paper's §7 extension: updating the task logic by
// re-wiring the DAG on the fly — the drained state is checkpointed, the
// rebalance respawns executors built by the new factory, and INIT hands
// them the old state to carry forward.
func (e *Engine) SwapLogicFactory(f workload.Factory) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.factory = f
}

// RunningExecutors reports how many executors are currently live.
func (e *Engine) RunningExecutors() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.executors)
}

// --- routing --------------------------------------------------------------

// slotOf resolves an instance key's current slot.
func (e *Engine) slotOf(key string) cluster.SlotRef {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.placement[key]
}

// slotOfInst resolves a destination instance's slot without building its
// string key (allocation-free send path).
func (e *Engine) slotOfInst(inst topology.Instance) cluster.SlotRef {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.placementInst[inst]
}

// spawnBuffer holds data events addressed to an instance whose worker is
// still starting on its new slot. This models Storm's transport behavior
// after a rebalance: once the new assignment is distributed, senders'
// transport clients queue messages for workers they cannot reach yet and
// flush on connect. Checkpoint/control events are NOT buffered — Storm's
// StatefulBoltExecutor fails checkpoint tuples that arrive before the
// task is ready, which is exactly why the paper observes INIT waves
// timing out in ~30 s jumps under DSM.
type spawnBuffer struct {
	mu     sync.Mutex
	events []*tuple.Event
	// flushed marks the buffer dead: spawn has already drained it into
	// the executor's queue (or discarded it) and unregistered it. A
	// delivery that raced past the registry check must not append here —
	// nothing would ever read the event again.
	flushed bool
}

// deliverBatch hands a fabric batch to its destination and returns the
// events that could not be delivered. It is one retry loop over a single
// registry read:
//   - a live executor takes the whole batch in one PushBatch;
//   - a destination still respawning buffers its data events in the
//     spawnBuffer up to TransportBufferCap (zero: unbounded); the
//     overflow and every control event come back rejected;
//   - a buffer already flushed, or a PushBatch rejected because a kill
//     closed the queue, sends the loop back to the registry;
//   - anything else rejects the whole batch.
func (e *Engine) deliverBatch(to topology.Instance, evs []*tuple.Event) (rejected []*tuple.Event) {
	for {
		e.mu.RLock()
		ex := e.executors[to]
		buf := e.pendingSpawn[to]
		e.mu.RUnlock()
		if ex != nil && !ex.killed.Load() {
			// A Kill racing with this push cannot lose events uncounted:
			// the kill closes and drains the queue in one atomic step, so
			// the batch either lands before the drain (counted by Kill) or
			// is rejected whole. Kill marks the executor killed before it
			// closes the queue, so the retry no longer picks it.
			if ex.in.PushBatch(evs) {
				return nil
			}
			continue
		}
		if buf == nil {
			return evs
		}
		buf.mu.Lock()
		if buf.flushed {
			// spawn drained and unregistered this buffer between our
			// registry read and the append; retry against the now
			// registered executor (spawn completes before the entry
			// disappears, so the retry terminates).
			buf.mu.Unlock()
			continue
		}
		limit := e.cfg.TransportBufferCap
		for _, ev := range evs {
			if ev.IsData() && (limit <= 0 || len(buf.events) < limit) {
				buf.events = append(buf.events, ev)
			} else {
				// Control events to a starting worker fail, and data past
				// the cap overflows the transport queue (dropped like
				// netty's max retries).
				rejected = append(rejected, ev)
			}
		}
		buf.mu.Unlock()
		return rejected
	}
}

// routeData fans a processed event's output out along every outgoing
// edge of the sender, creating one anchored child per edge.
func (e *Engine) routeData(from *sender, parent *tuple.Event, value any, key uint64) {
	for i := range from.routes {
		st := from.routes[i].pick(key)
		child := parent.Child(e.idgen.Next(), from.inst.Task, from.inst.Index, value)
		child.Key = key
		if e.cfg.AckDataEvents() && parent.Root != 0 {
			e.ack.Anchor(parent.Root, child.ID)
		}
		e.fab.Send(st, child)
	}
}

// routeFromSource routes a fresh root event to the first task layer,
// anchoring one child per edge. Children copy every root field they
// read, so the caller may release the root once this returns.
func (e *Engine) routeFromSource(from *sender, root *tuple.Event) {
	for i := range from.routes {
		st := from.routes[i].pick(root.Key)
		child := root.Child(e.idgen.Next(), from.inst.Task, from.inst.Index, root.Value)
		if e.cfg.AckDataEvents() {
			e.ack.Anchor(root.Root, child.ID)
		}
		e.fab.Send(st, child)
	}
}

// forwardCheckpoint sends a sequential checkpoint event from an instance
// to every instance of every downstream inner task, over the same links
// as its data.
func (e *Engine) forwardCheckpoint(from *sender, ev *tuple.Event) {
	for i := range from.routes {
		r := &from.routes[i]
		if !r.toInner {
			continue
		}
		for _, st := range r.links {
			cp := ev.Clone()
			cp.ID = e.idgen.Next()
			cp.SrcTask = from.inst.Task
			cp.SrcInstance = from.inst.Index
			e.fab.Send(st, cp)
		}
	}
}

// --- checkpoint transport --------------------------------------------------

// engineTransport adapts the engine to checkpoint.Transport.
type engineTransport Engine

var _ checkpoint.Transport = (*engineTransport)(nil)

// SendBroadcast implements checkpoint.Transport: hub-and-spoke delivery
// straight to every stateful instance (CCR's wiring).
func (t *engineTransport) SendBroadcast(ev *tuple.Event) {
	e := (*Engine)(t)
	for _, st := range e.broadcast {
		cp := ev.Clone()
		cp.ID = e.idgen.Next()
		e.fab.Send(st, cp)
	}
}

// SendFirstLayer implements checkpoint.Transport: inject at the task
// layer fed by the sources, from which the wave sweeps the dataflow.
func (t *engineTransport) SendFirstLayer(ev *tuple.Event) {
	e := (*Engine)(t)
	for _, st := range e.firstLayer {
		cp := ev.Clone()
		cp.ID = e.idgen.Next()
		e.fab.Send(st, cp)
	}
}

// ExpectedAckers implements checkpoint.Transport.
func (t *engineTransport) ExpectedAckers() []string {
	e := (*Engine)(t)
	keys := make([]string, len(e.statefulInsts))
	for i, inst := range e.statefulInsts {
		keys[i] = inst.String()
	}
	sort.Strings(keys)
	return keys
}
