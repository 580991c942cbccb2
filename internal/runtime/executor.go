package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/statestore"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Executor runs one task instance: a single goroutine consuming the
// instance's input queue, exactly like a Storm executor. The platform
// logic layered around the user logic implements the checkpoint protocol
// of §3 — snapshot on PREPARE, persist on COMMIT, restore and resume on
// INIT — including CCR's capture of in-flight events and the pre-INIT
// buffering of Storm's StatefulBoltExecutor.
type Executor struct {
	eng   *Engine
	inst  topology.Instance
	task  *topology.Task
	plan  *sender // the instance's compiled outgoing routes
	in    *queue.Queue
	logic workload.Logic
	store *statestore.Client

	// rep is this executor's private metrics recording handle (sink
	// instances only): sink arrivals are the per-event hot path, and a
	// shared collector mutex would re-serialize every sink goroutine.
	rep *metrics.Reporter

	killed atomic.Bool

	// held counts the events the run loop has popped in its current batch
	// but not yet started handling. QueueLen adds it to the ring depth so
	// batch-draining the queue does not make backlog observers (Status,
	// QueueDepths and the autoscale policies that read it) see events
	// vanish before they are processed.
	held atomic.Int32

	// pulseStop ends the heartbeat goroutine (see pulse.go); closed once
	// by Kill.
	pulseStop chan struct{}
	pulseOnce sync.Once

	// initDone mirrors the goroutine-private initialized flag for
	// cross-goroutine readers (the supervisor's recovery loop polls it).
	initDone atomic.Bool

	// pause gates the consumption loop. The paper's DCR/CCR pause the
	// user sink during migration (Fig. 2), so no output leaves the
	// dataflow between the request and the post-INIT unpause; events
	// accumulate in the input queue meanwhile.
	pauseMu   sync.Mutex
	pauseWake *sync.Cond
	paused    bool

	// Platform state below is touched only by the executor goroutine.

	// emit is the output callback handed to the user logic, bound once so
	// processing an event allocates no closure; it routes children of cur,
	// the event being processed.
	emit workload.Emit
	cur  *tuple.Event

	// initialized gates data processing for stateful tasks: a respawned
	// executor buffers data until its INIT restores the committed state.
	initialized bool
	preInit     []*tuple.Event

	// capture is CCR's post-PREPARE flag: data events are appended to
	// pending instead of being processed (§3.2).
	capture bool
	pending []*tuple.Event

	// prepared holds the user-state snapshot between PREPARE and COMMIT.
	prepared     any
	preparedWave uint64

	// aligned counts sequential checkpoint events received per wave/kind;
	// the executor acts once the count reaches expectAlign (rearguard
	// alignment over every input edge). Entries older than the last
	// completed wave are evicted (see noteWaveDone) — waves that never
	// fully align must not leak.
	aligned     map[alignKey]int
	expectAlign int

	// lastDoneWave is the newest wave this executor completed an action
	// for; it drives eviction of stale aligned/forwarded entries.
	lastDoneWave uint64

	// forwarded dedups INIT forwarding per wave round, so resent waves
	// sweep through already-initialized tasks without multiplying.
	forwarded map[alignKey]bool

	// lastPrepared dedups broadcast PREPAREs per wave.
	lastActedPrepare uint64

	// busyUntil is the absolute paper-time instant the executor's core is
	// free: service time is charged as a deadline so the effective
	// processing rate stays exact under a compressed clock (relative
	// sleeps would inflate the 100 ms task latency by the OS timer's
	// oversleep and silently lower the task's capacity). An event's
	// service starts at max(busyUntil, its DeliverAt), not at the instant
	// the goroutine got to it: under a compressed clock a few wall
	// milliseconds of host scheduling lag are seconds of paper time, and
	// charging them as service would shrink the task's capacity below its
	// input rate on a busy host. Work that was held back (buffered before
	// INIT, captured under CCR) and checkpoint handling restart the core
	// at the current instant instead — see occupyUntilNow.
	busyUntil time.Time
}

type alignKey struct {
	wave  uint64
	kind  tuple.Kind
	round int
}

// checkpointBlob is what COMMIT persists: the user state plus, under CCR,
// the captured in-flight events.
type checkpointBlob struct {
	// UserState is the gob-encoded user snapshot (nil for empty state).
	UserState []byte
	// Pending are CCR's captured events, replayed on INIT.
	Pending []savedEvent
	// Wave is the checkpoint wave that produced this blob.
	Wave uint64
}

// savedEvent is the gob-portable subset of a captured event.
type savedEvent struct {
	ID           tuple.ID
	Root         tuple.ID
	Key          uint64
	Value        any
	RootEmit     time.Time
	Replayed     bool
	PreMigration bool
	Gen          uint64
}

func toSaved(ev *tuple.Event) savedEvent {
	return savedEvent{
		ID: ev.ID, Root: ev.Root, Key: ev.Key, Value: ev.Value,
		RootEmit: ev.RootEmit, Replayed: ev.Replayed, PreMigration: ev.PreMigration,
		Gen: ev.Gen,
	}
}

func (s savedEvent) restore(srcTask string, srcInstance int) *tuple.Event {
	return &tuple.Event{
		ID: s.ID, Root: s.Root, Kind: tuple.Data, Key: s.Key, Value: s.Value,
		SrcTask: srcTask, SrcInstance: srcInstance,
		RootEmit: s.RootEmit, Replayed: s.Replayed, PreMigration: s.PreMigration,
		Gen: s.Gen,
	}
}

func newExecutor(eng *Engine, inst topology.Instance, initialized bool) *Executor {
	task := eng.topo.Task(inst.Task)
	ex := &Executor{
		eng:         eng,
		inst:        inst,
		task:        task,
		plan:        eng.plan[inst],
		in:          queue.New(),
		logic:       eng.factory(inst.Task, inst.Index),
		store:       statestore.NewClient(eng.store, eng.clock, eng.cfg.StoreLatency),
		initialized: initialized,
		pulseStop:   make(chan struct{}),
		aligned:     make(map[alignKey]int),
		forwarded:   make(map[alignKey]bool),
		expectAlign: eng.expectAlign[inst.Task],
		// A worker cannot serve events delivered before it existed
		// (those its spawn buffer held while it was starting).
		busyUntil: eng.clock.Now(),
	}
	if !task.Stateful {
		ex.initialized = true
	}
	ex.initDone.Store(ex.initialized)
	if task.Role == topology.RoleSink {
		ex.rep = eng.collector.Reporter()
	}
	ex.pauseWake = sync.NewCond(&ex.pauseMu)
	ex.emit = func(value any, key uint64) { eng.routeData(ex.plan, ex.cur, value, key) }
	return ex
}

// run is the executor main loop.
func (ex *Executor) run() {
	defer ex.eng.wg.Done()
	// On exit (kill or stop), events still stashed in the platform
	// buffers are dead: preInit never saw its INIT, and captured pending
	// events live on only as the savedEvent copies persisted by COMMIT.
	// Releasing here is race-free — the buffers belong to this goroutine —
	// and parked events are already out of the live count.
	defer func() {
		for _, ev := range ex.preInit {
			ev.Release()
		}
		ex.preInit = nil
		for _, ev := range ex.pending {
			ev.Release()
		}
		ex.pending = nil
	}()
	// The loop consumes the queue in batches: one lock acquisition and
	// one wakeup drain up to a whole delivered fabric batch. The batch is
	// bounded so backlog observers are never blind to more than one
	// batch's worth of locally held events (held covers even those).
	buf := make([]*tuple.Event, executorPopBatch)
	for {
		evs, ok := ex.in.PopBatch(buf)
		if !ok {
			return
		}
		ex.held.Store(int32(len(evs)))
		for _, ev := range evs {
			ex.held.Add(-1)
			ex.waitWhilePaused()
			if ex.killed.Load() {
				// Kill closed and drained the queue in one atomic step,
				// but this event was already popped when the kill landed;
				// count the straggler so reliability accounting sees every
				// loss. Stop-time kills are exempt: Stop discards queue
				// contents uncounted, and the straggler is the same
				// discard.
				if ev.IsData() && !ex.eng.stopping.Load() {
					ex.eng.lostKill.Add(1)
				}
				ex.eng.discard(ev)
				continue
			}
			if ev.Kind.IsCheckpoint() {
				ex.handleCheckpoint(ev)
				ex.occupyUntilNow()
				continue
			}
			ex.handleData(ev)
		}
	}
}

// executorPopBatch bounds how many events the run loop drains from its
// input queue per lock acquisition.
const executorPopBatch = 64

// Pause stops the executor from consuming further events (they buffer in
// the input queue). Used on sink instances during DCR/CCR migrations.
func (ex *Executor) Pause() {
	ex.pauseMu.Lock()
	defer ex.pauseMu.Unlock()
	ex.paused = true
}

// Unpause resumes consumption.
func (ex *Executor) Unpause() {
	ex.pauseMu.Lock()
	defer ex.pauseMu.Unlock()
	ex.paused = false
	ex.pauseWake.Broadcast()
}

func (ex *Executor) waitWhilePaused() {
	ex.pauseMu.Lock()
	defer ex.pauseMu.Unlock()
	for ex.paused && !ex.killed.Load() {
		ex.pauseWake.Wait()
	}
}

func (ex *Executor) handleData(ev *tuple.Event) {
	if ex.task.Role == topology.RoleSink {
		ex.rep.SinkReceive(ev)
		ex.eng.audit.RecordSink(ev, ex.eng.clock.Now())
		if ex.eng.cfg.AckDataEvents() {
			ex.eng.ack.Ack(ev.Root, ev.ID)
		}
		ev.Release()
		ex.eng.exit(1) // arrived, and recorded first
		return
	}
	// Parked events leave the live count: only INIT or ROLLBACK moves
	// them again, and both count them back in.
	if !ex.initialized {
		ex.preInit = append(ex.preInit, ev)
		ex.eng.exit(1)
		return
	}
	if ex.capture {
		ex.pending = append(ex.pending, ev)
		ex.eng.exit(1)
		return
	}
	ex.process(ev)
}

// process charges the task latency, runs the user logic (emitting
// downstream), acknowledges the input, and releases the event — the
// executor is its final owner (the children routed downstream are fresh
// pooled events of their own, already counted live).
func (ex *Executor) process(ev *tuple.Event) {
	start := ex.eng.clock.Now()
	if !ev.DeliverAt.IsZero() && ev.DeliverAt.Before(start) {
		start = ev.DeliverAt
	}
	if ex.busyUntil.Before(start) {
		ex.busyUntil = start
	}
	ex.busyUntil = ex.busyUntil.Add(ex.eng.cfg.TaskLatency)
	timex.SleepUntil(ex.eng.clock, ex.busyUntil)
	ex.cur = ev
	ex.logic.Process(ev, ex.emit)
	ex.cur = nil
	if ex.eng.cfg.AckDataEvents() {
		ex.eng.ack.Ack(ev.Root, ev.ID)
	}
	ev.Release()
	ex.eng.exit(1)
}

// occupyUntilNow marks the core busy up to now. Held-back work (buffered
// before INIT, captured under CCR) cannot have started before its
// release, whatever its DeliverAt says, and checkpoint handling — store
// reads and writes included — occupied the core until it returned.
func (ex *Executor) occupyUntilNow() {
	if now := ex.eng.clock.Now(); ex.busyUntil.Before(now) {
		ex.busyUntil = now
	}
}

func (ex *Executor) handleCheckpoint(ev *tuple.Event) {
	switch ev.Kind {
	case tuple.Prepare:
		if ev.Broadcast {
			// Hub-and-spoke PREPARE: act on first receipt per wave. It
			// sat at the end of the local queue, so everything queued
			// before it has been handled; under CCR, capture begins and
			// later arrivals go to the pending list (§3.2).
			if ex.lastActedPrepare == ev.Wave {
				ex.ackWave(ev)
				return
			}
			ex.lastActedPrepare = ev.Wave
			ex.snapshot(ev.Wave)
			if ex.eng.cfg.Mode == ModeCCR {
				ex.capture = true
			}
			ex.ackWave(ev)
			return
		}
		// Sequential PREPARE: the rearguard. Act only after a copy arrived
		// on every input edge, guaranteeing the dataflow upstream of this
		// task has drained.
		if !ex.arrived(ev) {
			return
		}
		ex.snapshot(ev.Wave)
		ex.forward(ev)
		ex.ackWave(ev)

	case tuple.Commit:
		// COMMIT always sweeps sequentially behind all in-flight data.
		if !ex.arrived(ev) {
			return
		}
		ex.persist(ev.Wave)
		ex.forward(ev)
		ex.ackWave(ev)

	case tuple.Rollback:
		// Broadcast: discard the prepared snapshot, stop capturing, and
		// process whatever was captured as ordinary input.
		ex.prepared = nil
		ex.preparedWave = 0
		if ex.capture {
			ex.capture = false
			ex.occupyUntilNow()
			pend := ex.pending
			ex.pending = nil
			ex.eng.enter(len(pend))
			for _, p := range pend {
				ex.process(p)
			}
		}
		ex.ackWave(ev)

	case tuple.Init:
		ex.handleInit(ev)
	}
}

// arrived counts one sequential checkpoint copy and reports whether the
// wave/kind/round is fully aligned across all input edges.
func (ex *Executor) arrived(ev *tuple.Event) bool {
	k := alignKey{wave: ev.Wave, kind: ev.Kind, round: ev.Round}
	ex.aligned[k]++
	if ex.aligned[k] < ex.expectAlign {
		return false
	}
	delete(ex.aligned, k)
	ex.noteWaveDone(ev.Wave)
	return true
}

// noteWaveDone records completion of a wave action and evicts alignment
// and forwarding entries of older waves. Waves are issued in increasing
// order, so an entry from an earlier wave that never reached full
// alignment (superseded rounds, copies lost to a mid-wave kill) can only
// leak; the current wave's entries are kept because its other kinds and
// rounds are still in flight.
func (ex *Executor) noteWaveDone(wave uint64) {
	if wave <= ex.lastDoneWave {
		return
	}
	ex.lastDoneWave = wave
	for k := range ex.aligned {
		if k.wave < wave {
			delete(ex.aligned, k)
		}
	}
	for k := range ex.forwarded {
		if k.wave < wave {
			delete(ex.forwarded, k)
		}
	}
}

// snapshot takes the user-state snapshot (the PREPARE action).
func (ex *Executor) snapshot(wave uint64) {
	if !ex.task.Stateful {
		return
	}
	ex.prepared = ex.logic.State()
	ex.preparedWave = wave
}

// persist writes the prepared snapshot — plus captured events under CCR —
// to the state store (the COMMIT action).
func (ex *Executor) persist(wave uint64) {
	if !ex.task.Stateful {
		return
	}
	blob := checkpointBlob{Wave: wave}
	if ex.prepared != nil {
		data, err := statestore.Encode(&ex.prepared)
		if err != nil {
			panic(fmt.Sprintf("runtime: %s: encode state: %v", ex.inst, err))
		}
		blob.UserState = data
	}
	if ex.eng.cfg.Mode == ModeCCR {
		blob.Pending = make([]savedEvent, len(ex.pending))
		for i, p := range ex.pending {
			blob.Pending[i] = toSaved(p)
		}
	}
	data, err := statestore.Encode(blob)
	if err != nil {
		panic(fmt.Sprintf("runtime: %s: encode blob: %v", ex.inst, err))
	}
	ex.store.Set(statestore.CheckpointKey(ex.eng.topo.Name(), ex.inst.String()), data)
	ex.prepared = nil
}

// handleInit restores committed state and resumes captured/buffered work.
func (ex *Executor) handleInit(ev *tuple.Event) {
	if ex.initialized {
		// Already restored: pass resent sequential waves along (once per
		// round) so they reach still-uninitialized downstream tasks, and
		// re-ack.
		if !ev.Broadcast {
			ex.forwardOnce(ev)
		}
		ex.ackWave(ev)
		ex.noteWaveDone(ev.Wave)
		return
	}
	// Restore the last committed snapshot.
	var restored []savedEvent
	if data, ok := ex.store.Get(statestore.CheckpointKey(ex.eng.topo.Name(), ex.inst.String())); ok {
		var blob checkpointBlob
		if err := statestore.Decode(data, &blob); err != nil {
			panic(fmt.Sprintf("runtime: %s: decode blob: %v", ex.inst, err))
		}
		if blob.UserState != nil {
			var state any
			if err := statestore.Decode(blob.UserState, &state); err != nil {
				panic(fmt.Sprintf("runtime: %s: decode state: %v", ex.inst, err))
			}
			if err := ex.logic.Restore(state); err != nil {
				panic(fmt.Sprintf("runtime: %s: restore: %v", ex.inst, err))
			}
		}
		restored = blob.Pending
	}
	ex.initialized = true
	ex.initDone.Store(true)
	if !ev.Broadcast {
		ex.forwardOnce(ev)
	}
	ex.ackWave(ev)
	ex.noteWaveDone(ev.Wave)

	// CCR: resume the captured in-flight events (ack first, then replay,
	// per §3.2), then drain anything buffered while uninitialized.
	ex.occupyUntilNow()
	buffered := ex.preInit
	ex.preInit = nil
	ex.eng.enter(len(restored) + len(buffered))
	for _, s := range restored {
		ex.process(s.restore(ex.inst.Task, ex.inst.Index))
	}
	for _, ev := range buffered {
		ex.handleData(ev)
	}
}

// forward sends a sequential checkpoint event to every instance of every
// downstream inner task.
func (ex *Executor) forward(ev *tuple.Event) {
	ex.eng.forwardCheckpoint(ex.plan, ev)
}

// forwardOnce forwards at most once per wave round.
func (ex *Executor) forwardOnce(ev *tuple.Event) {
	k := alignKey{wave: ev.Wave, kind: ev.Kind, round: ev.Round}
	if ex.forwarded[k] {
		return
	}
	ex.forwarded[k] = true
	ex.forward(ev)
}

// ackWave acknowledges a checkpoint event to the coordinator (stateful
// tasks only; stateless tasks merely pass waves along).
func (ex *Executor) ackWave(ev *tuple.Event) {
	if !ex.task.Stateful {
		return
	}
	ex.eng.coord.Ack(ex.inst.String(), ev.Wave)
}

// Kill stops the executor immediately, discarding its queue. Queued data
// events are lost exactly as when Storm kills a worker: with acking on,
// their causal trees later time out and the source replays them.
// Closing and draining happen in one atomic step, so a delivery racing
// with the kill is either captured here (and counted) or rejected by the
// closed queue (and counted as a fabric drop) — never silently lost.
func (ex *Executor) Kill() (droppedData int) {
	ex.killed.Store(true)
	ex.pulseOnce.Do(func() { close(ex.pulseStop) })
	ex.pauseMu.Lock()
	ex.pauseWake.Broadcast() // release a paused loop so it can exit
	ex.pauseMu.Unlock()
	dropped := ex.in.CloseAndDrain()
	for _, ev := range dropped {
		if ev.IsData() {
			droppedData++
		}
		ex.eng.discard(ev) // discarded with the queue: the kill is the final owner
	}
	return droppedData
}

// Instance returns the executor's instance identity.
func (ex *Executor) Instance() topology.Instance { return ex.inst }

// QueueLen reports the current input queue depth plus the events the run
// loop has batch-popped but not yet started handling (diagnostics and
// backpressure policies).
func (ex *Executor) QueueLen() int { return ex.in.Len() + int(ex.held.Load()) }

// Initialized reports whether the executor has restored (or never
// needed) its committed state and is processing data. Safe to call from
// any goroutine — the supervisor's recovery loop polls it to decide
// whether a respawned instance still needs an INIT wave.
func (ex *Executor) Initialized() bool { return ex.initDone.Load() }

// Logic exposes the user logic for test assertions.
func (ex *Executor) Logic() workload.Logic { return ex.logic }
