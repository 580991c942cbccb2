package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflows"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

func TestExpectAlignCounts(t *testing.T) {
	h := newHarness(t, dataflows.Grid().Topology, ModeDCR)
	tests := map[string]int{
		"A1": 1, // coordinator only (fed by source)
		"A2": 1, // A1 has 1 instance
		"J1": 2, // A4(1) + B4(1)
		"J2": 2, // J1 has 2 instances
		"K":  3, // J2(2) + C3(1)
		"L":  3, // K has 3 instances
	}
	for task, want := range tests {
		if got := h.eng.expectAlign[task]; got != want {
			t.Errorf("expectAlign[%s] = %d, want %d", task, got, want)
		}
	}
}

func TestFanoutPerBenchmarkDAG(t *testing.T) {
	want := map[string]int{
		"linear-5": 1,
		"diamond":  4,
		"star":     4,
		"grid":     4,
		"traffic":  4,
	}
	for _, spec := range dataflows.All() {
		h := newHarness(t, spec.Topology, ModeDCR)
		if got := h.eng.Fanout(); got != want[spec.Topology.Name()] {
			t.Errorf("%s fanout = %d, want %d", spec.Topology.Name(), got, want[spec.Topology.Name()])
		}
	}
}

func TestFirstLayerAndStatefulSets(t *testing.T) {
	h := newHarness(t, dataflows.Grid().Topology, ModeDCR)
	if got := len(h.eng.firstLayer); got != 3 { // A1, B1, C1
		t.Fatalf("first layer = %d instances, want 3", got)
	}
	if got := len(h.eng.statefulInsts); got != 21 {
		t.Fatalf("stateful instances = %d, want 21", got)
	}
	tr := (*engineTransport)(h.eng)
	if got := len(tr.ExpectedAckers()); got != 21 {
		t.Fatalf("expected ackers = %d, want 21", got)
	}
}

func TestSpawnBufferFlushPreservesOrder(t *testing.T) {
	h := newHarness(t, linear3(), ModeCCR)
	h.eng.Start()
	defer h.eng.Stop()
	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 10
	})
	h.eng.PauseSources()
	time.Sleep(100 * time.Millisecond)

	// Kill T2 and register it as respawning; deliveries should buffer.
	inst := topology.Instance{Task: "T2", Index: 0}
	h.eng.mu.Lock()
	ex := h.eng.executors[inst]
	delete(h.eng.executors, inst)
	h.eng.pendingSpawn[inst] = &spawnBuffer{}
	h.eng.mu.Unlock()
	ex.Kill()

	// Data events buffer; checkpoint events to a down executor drop.
	drops0 := h.eng.DroppedDeliveries()
	h.eng.UnpauseSources()
	waitUntil(t, 5*time.Second, "buffered deliveries", func() bool {
		h.eng.mu.RLock()
		buf := h.eng.pendingSpawn[inst]
		h.eng.mu.RUnlock()
		buf.mu.Lock()
		n := len(buf.events)
		buf.mu.Unlock()
		return n >= 5
	})
	if h.eng.DroppedDeliveries() != drops0 {
		t.Fatalf("data deliveries dropped instead of buffered")
	}

	// Respawn: buffered events flush in order and processing resumes
	// (task is stateful, so it waits for INIT — send one).
	h.eng.spawn(inst)
	h.eng.mu.RLock()
	_, stillPending := h.eng.pendingSpawn[inst]
	h.eng.mu.RUnlock()
	if stillPending {
		t.Fatal("pendingSpawn entry not cleared by spawn")
	}
}

func TestSourceBacklogAccumulatesWhilePaused(t *testing.T) {
	h := newHarness(t, linear3(), ModeDCR)
	h.eng.Start()
	defer h.eng.Stop()
	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 10
	})
	h.eng.PauseSources()
	h.eng.mu.RLock()
	src := h.eng.sources[0]
	h.eng.mu.RUnlock()
	waitUntil(t, 5*time.Second, "backlog growth", func() bool {
		return src.Backlog() >= 10
	})
	h.eng.UnpauseSources()
	waitUntil(t, 5*time.Second, "backlog drain", func() bool {
		return src.Backlog() < 3
	})
}

func TestLostAtKillCountsQueuedData(t *testing.T) {
	h := newHarness(t, linear3(), ModeDSM)
	h.eng.Start()
	defer h.eng.Stop()
	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 30
	})
	h.eng.OnMigrationRequested()
	h.eng.Rebalance(h.newSchedule(t))
	// Some events were almost certainly queued at kill time under 100/s.
	if h.eng.LostAtKill() == 0 {
		t.Log("note: no events queued at kill (timing-dependent); acceptable")
	}
	// Replays must eventually recover whatever was dropped.
	waitUntil(t, 20*time.Second, "recovery", func() bool {
		return len(h.eng.Audit().Lost(h.eng.Clock().Now().Add(-2*time.Second))) == 0
	})
}

func TestEngineRejectsUnplacedInstances(t *testing.T) {
	h := newHarness(t, linear3(), ModeDCR)
	before := goroutines()
	// Build params with a missing pinned slot.
	_, err := New(Params{
		Topology:      h.eng.Topology(),
		Factory:       h.eng.factory,
		Clock:         h.eng.clock,
		Config:        h.eng.cfg,
		InnerSchedule: h.oldSched,
		Pinned:        nil, // source and sink unplaced
	})
	if err == nil {
		t.Fatal("New accepted params with unplaced source/sink")
	}
	// The error path must not leak fabric shard goroutines.
	if after := goroutines(); after > before {
		t.Fatalf("failed New leaked %d goroutines", after-before)
	}
}

// TestRespawnTimersPruned asserts the respawn-timer registry holds
// pending timers only: repeated rebalances (the autoscale loop does
// hundreds) must not grow it monotonically.
func TestRespawnTimersPruned(t *testing.T) {
	h := newHarness(t, linear3(), ModeCCR)
	h.eng.Start()
	defer h.eng.Stop()
	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 5
	})
	scheds := []func() *scheduler.Schedule{
		func() *scheduler.Schedule { return h.newSchedule(t) },
		func() *scheduler.Schedule { return h.oldSched },
	}
	for i := 0; i < 6; i++ {
		h.eng.Rebalance(scheds[i%2]())
		// All spawns fire; the registry must drain back to empty.
		waitUntil(t, 10*time.Second, "respawn timers to fire", func() bool {
			return h.eng.PendingRespawns() == 0
		})
		waitUntil(t, 10*time.Second, "executors respawned", func() bool {
			return h.eng.RunningExecutors() == 4
		})
	}
	if n := h.eng.PendingRespawns(); n != 0 {
		t.Fatalf("respawn timer registry holds %d entries after all fired", n)
	}
}

// TestAlignedMapEviction covers the wave-alignment leak: entries for
// waves that never fully align (copies lost to a mid-wave kill,
// superseded rounds) must be evicted once a newer wave completes.
func TestAlignedMapEviction(t *testing.T) {
	ex := &Executor{
		aligned:     make(map[alignKey]int),
		forwarded:   make(map[alignKey]bool),
		expectAlign: 2,
	}
	// Waves 1..10 each receive only one of the two expected PREPARE
	// copies (the second died with a killed upstream) and a stale INIT
	// forwarding record.
	for w := uint64(1); w <= 10; w++ {
		if ex.arrived(&tuple.Event{Wave: w, Kind: tuple.Prepare}) {
			t.Fatalf("wave %d aligned with one of two copies", w)
		}
		ex.forwarded[alignKey{wave: w, kind: tuple.Init}] = true
	}
	if len(ex.aligned) != 10 || len(ex.forwarded) != 10 {
		t.Fatalf("precondition: aligned=%d forwarded=%d, want 10/10", len(ex.aligned), len(ex.forwarded))
	}
	// Wave 11 fully aligns: everything older is evicted.
	if ex.arrived(&tuple.Event{Wave: 11, Kind: tuple.Prepare}) {
		t.Fatal("wave 11 aligned with one of two copies")
	}
	if !ex.arrived(&tuple.Event{Wave: 11, Kind: tuple.Prepare}) {
		t.Fatal("wave 11 did not align with both copies")
	}
	if len(ex.aligned) != 0 {
		t.Fatalf("aligned holds %d stale entries after wave 11 completed", len(ex.aligned))
	}
	if len(ex.forwarded) != 0 {
		t.Fatalf("forwarded holds %d stale entries after wave 11 completed", len(ex.forwarded))
	}
	// Current-wave entries survive: COMMIT of wave 12 is still aligning
	// when PREPARE of wave 12 completes.
	ex.arrived(&tuple.Event{Wave: 12, Kind: tuple.Commit})
	ex.arrived(&tuple.Event{Wave: 12, Kind: tuple.Prepare})
	ex.arrived(&tuple.Event{Wave: 12, Kind: tuple.Prepare})
	if len(ex.aligned) != 1 {
		t.Fatalf("aligned = %d entries, want the in-flight wave-12 COMMIT kept", len(ex.aligned))
	}
}

// TestKillDeliverRaceAccountsEveryEvent is the regression test for the
// uncounted-loss race: a delivery landing between the killed check and
// the queue push must be counted (drained by the atomic kill, rejected
// by the closed queue, or tallied as a straggler by the run loop) —
// never silently skipped. Run under -race.
func TestKillDeliverRaceAccountsEveryEvent(t *testing.T) {
	h := newHarness(t, linear3(), ModeDCR)
	inst := topology.Instance{Task: "T2", Index: 0}
	const rounds = 50
	const pushes = 20
	for round := 0; round < rounds; round++ {
		ex := newExecutor(h.eng, inst, true)
		h.eng.mu.Lock()
		h.eng.executors[inst] = ex
		h.eng.mu.Unlock()
		h.eng.wg.Add(1)
		go ex.run()

		lost0 := h.eng.LostAtKill()
		drops0 := h.eng.DroppedDeliveries()
		processed0 := ex.Logic().(*workload.CountLogic).Processed()

		var accepted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < pushes; i++ {
				ev := &tuple.Event{ID: h.eng.idgen.Next(), Kind: tuple.Data, SrcTask: "T1"}
				if len(h.eng.deliverBatch(inst, []*tuple.Event{ev})) == 0 {
					accepted.Add(1)
				}
			}
		}()
		wg.Add(1)
		var killDropped int64
		go func() {
			defer wg.Done()
			<-start
			h.eng.mu.Lock()
			delete(h.eng.executors, inst)
			h.eng.mu.Unlock()
			killDropped = int64(ex.Kill())
		}()
		close(start)
		wg.Wait()
		h.eng.wg.Wait() // executor loop exits once the queue closes

		processed := int64(ex.Logic().(*workload.CountLogic).Processed() - processed0)
		stragglers := h.eng.LostAtKill() - lost0
		if got := processed + killDropped + stragglers; got != accepted.Load() {
			t.Fatalf("round %d: processed %d + killDropped %d + stragglers %d = %d, want accepted %d (fabric drops delta %d)",
				round, processed, killDropped, stragglers, got, accepted.Load(),
				h.eng.DroppedDeliveries()-drops0)
		}
	}
	h.eng.fab.Close()
}

// TestRebalanceRetiresStaleSpawnBuffer covers the double-migration
// accounting hole: events buffered for a respawning instance must be
// counted as kill losses when a second rebalance reassigns the instance
// before its worker started (the old transport queue is dropped), and a
// racing deliver must not append to the retired buffer.
func TestRebalanceRetiresStaleSpawnBuffer(t *testing.T) {
	h := newHarness(t, linear3(), ModeCCR)
	h.eng.Start()
	defer h.eng.Stop()
	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 10
	})
	h.eng.PauseSources()
	time.Sleep(100 * time.Millisecond) // in-flight drains

	// Kill T2 and register it as respawning, as a rebalance would.
	inst := topology.Instance{Task: "T2", Index: 0}
	h.eng.mu.Lock()
	ex := h.eng.executors[inst]
	delete(h.eng.executors, inst)
	h.eng.pendingSpawn[inst] = &spawnBuffer{}
	h.eng.mu.Unlock()
	ex.Kill()

	// Buffer three data events for the starting worker.
	for i := 0; i < 3; i++ {
		ev := &tuple.Event{ID: h.eng.idgen.Next(), Kind: tuple.Data, SrcTask: "T1"}
		if len(h.eng.deliverBatch(inst, []*tuple.Event{ev})) != 0 {
			t.Fatal("deliver rejected a bufferable event")
		}
	}
	lost0 := h.eng.LostAtKill()

	// A second rebalance reassigns T2 before its respawn fired: the old
	// transport buffer is dropped and its events counted.
	h.eng.Rebalance(h.newSchedule(t))
	if got := h.eng.LostAtKill() - lost0; got < 3 {
		t.Fatalf("LostAtKill grew by %d, want >= 3 buffered events counted", got)
	}
}

// TestDeliverBatchSpawnBuffer covers deliverBatch's respawn branch. A
// batch addressed to an instance whose worker is still starting buffers
// its data events up to TransportBufferCap and rejects the overflow and
// every control event. A batch that finds the buffer already flushed goes
// back to the registry and lands in the executor spawn registered.
func TestDeliverBatchSpawnBuffer(t *testing.T) {
	cfg := testConfig(ModeCCR)
	cfg.TransportBufferCap = DefaultConfig(ModeCCR).TransportBufferCap
	h := newHarnessCfg(t, linear3(), cfg)
	inst := topology.Instance{Task: "T2", Index: 0}
	data := func(n int) []*tuple.Event {
		out := make([]*tuple.Event, n)
		for i := range out {
			out[i] = &tuple.Event{ID: h.eng.idgen.Next(), Kind: tuple.Data, SrcTask: "T1"}
		}
		return out
	}

	t.Run("overflow and control rejected", func(t *testing.T) {
		buf := &spawnBuffer{}
		h.eng.mu.Lock()
		h.eng.pendingSpawn[inst] = buf
		h.eng.mu.Unlock()
		limit := cfg.TransportBufferCap
		batch := append(data(limit+3), &tuple.Event{ID: h.eng.idgen.Next(), Kind: tuple.Prepare, Wave: 1})
		rejected := h.eng.deliverBatch(inst, batch)
		if len(buf.events) != limit {
			t.Fatalf("buffered %d events, want TransportBufferCap = %d", len(buf.events), limit)
		}
		for i, ev := range buf.events {
			if ev != batch[i] {
				t.Fatalf("buffered event %d is ID %d, want ID %d (batch order)", i, ev.ID, batch[i].ID)
			}
		}
		if len(rejected) != 4 {
			t.Fatalf("rejected %d events, want 3 overflow + 1 PREPARE", len(rejected))
		}
		for i, ev := range rejected {
			if ev != batch[limit+i] {
				t.Fatalf("rejected event %d is ID %d, want ID %d", i, ev.ID, batch[limit+i].ID)
			}
		}
	})

	t.Run("flushed buffer retries registry", func(t *testing.T) {
		buf := &spawnBuffer{}
		h.eng.mu.Lock()
		h.eng.pendingSpawn[inst] = buf
		h.eng.mu.Unlock()
		// Hold the buffer so the delivery parks on it after its registry
		// read, then do what spawn does: register the executor, unregister
		// the buffer and mark it flushed. The pause only makes the retry
		// the path taken; a delivery that reads the registry late finds
		// the executor directly, and the assertions hold either way.
		buf.mu.Lock()
		batch := data(5)
		done := make(chan []*tuple.Event, 1)
		go func() { done <- h.eng.deliverBatch(inst, batch) }()
		time.Sleep(10 * time.Millisecond)
		ex := newExecutor(h.eng, inst, true)
		h.eng.mu.Lock()
		delete(h.eng.pendingSpawn, inst)
		h.eng.executors[inst] = ex
		h.eng.mu.Unlock()
		buf.flushed = true
		buf.mu.Unlock()

		if rejected := <-done; len(rejected) != 0 {
			t.Fatalf("rejected %d events, want the batch delivered to the executor", len(rejected))
		}
		if len(buf.events) != 0 {
			t.Fatalf("flushed buffer holds %d events", len(buf.events))
		}
		if n := ex.QueueLen(); n != len(batch) {
			t.Fatalf("executor queue holds %d events, want %d", n, len(batch))
		}
	})
}
