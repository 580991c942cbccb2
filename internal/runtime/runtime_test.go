package runtime

import (
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/dataflows"
	"repro/internal/scheduler"
	"repro/internal/statestore"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// testConfig returns a fast configuration for unit tests: real clock,
// millisecond-scale protocol constants, deterministic seed.
func testConfig(mode Mode) Config {
	return Config{
		Mode:               mode,
		TaskLatency:        2 * time.Millisecond,
		SourceRate:         100,
		SourceBurstRate:    500,
		AckTimeout:         300 * time.Millisecond,
		AckBuckets:         3,
		CheckpointInterval: 0, // periodic off unless a test enables it
		InitResend:         20 * time.Millisecond,
		WaveTimeout:        2 * time.Second,
		MaxInitWait:        5 * time.Second,
		Network: cluster.NetworkModel{
			SameSlot: 0, IntraVM: 100 * time.Microsecond, InterVM: 300 * time.Microsecond,
		},
		StoreLatency:     statestore.LatencyModel{RoundTrip: 200 * time.Microsecond, BytesPerSecond: 1e8},
		RebalanceCmdTime: 30 * time.Millisecond,
		WorkerBaseDelay:  20 * time.Millisecond,
		WorkerStagger:    5 * time.Millisecond,
		WorkerJitter:     5 * time.Millisecond,
		Seed:             42,
	}
}

// harness bundles an engine with the cluster objects used to build it.
type harness struct {
	eng      *Engine
	clus     *cluster.Cluster
	oldSched *scheduler.Schedule
	newSlots []cluster.SlotRef // a spare VM set to migrate onto
}

// newHarness builds an engine for the given topology on D2 VMs, with a
// spare set of D3 VMs available as a migration target.
func newHarness(t *testing.T, topo *topology.Topology, mode Mode) *harness {
	t.Helper()
	return newHarnessCfg(t, topo, testConfig(mode))
}

// newHarnessCfg is newHarness with an explicit Config, for tests that
// need non-default knobs (e.g. the heartbeat pulse).
func newHarnessCfg(t *testing.T, topo *topology.Topology, cfg Config) *harness {
	t.Helper()
	clock := timex.NewScaled(1)
	clus := cluster.New()

	pinnedVM := clus.ProvisionPinned(cluster.D3, clock.Now())
	inner := topo.Instances(topology.RoleInner)
	nVMs := (len(inner) + 1) / 2
	clus.Provision(cluster.D2, nVMs, clock.Now())
	sched, err := (scheduler.RoundRobin{}).Place(inner, clus.UnpinnedSlots())
	if err != nil {
		t.Fatalf("initial placement: %v", err)
	}

	pinned := make(map[topology.Instance]cluster.SlotRef)
	slotIdx := 0
	for _, inst := range topo.Instances(topology.RoleSource, topology.RoleSink) {
		pinned[inst] = pinnedVM.Slots()[slotIdx]
		slotIdx++
	}
	eng, err := New(Params{
		Topology:        topo,
		Factory:         workload.CountFactory,
		Clock:           clock,
		Config:          cfg,
		InnerSchedule:   sched,
		Pinned:          pinned,
		CoordinatorSlot: pinnedVM.Slots()[3],
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Stop is idempotent, so tests that stop the engine themselves (or
	// assert double-Stop) are unaffected; this catches the ones that only
	// inspect the engine and would otherwise leak its fabric shards.
	t.Cleanup(eng.Stop)

	// Spare scale-in target: D3 VMs.
	spare := clus.Provision(cluster.D3, (len(inner)+3)/4, clock.Now())
	var newSlots []cluster.SlotRef
	for _, vm := range spare {
		newSlots = append(newSlots, vm.Slots()...)
	}
	return &harness{eng: eng, clus: clus, oldSched: sched, newSlots: newSlots}
}

func (h *harness) newSchedule(t *testing.T) *scheduler.Schedule {
	t.Helper()
	inner := h.eng.Topology().Instances(topology.RoleInner)
	sched, err := (scheduler.RoundRobin{}).Place(inner, h.newSlots)
	if err != nil {
		t.Fatalf("new placement: %v", err)
	}
	return sched
}

// linear3 is a Src→T1→T2→T3→Sink chain with stateful unit-parallel tasks.
func linear3() *topology.Topology {
	b := topology.NewBuilder("t-linear3")
	b.AddSource("Src", 1)
	b.AddTask("T1", 1, true)
	b.AddTask("T2", 1, true)
	b.AddTask("T3", 1, true)
	b.AddSink("Sink", 1)
	b.Connect("Src", "T1", topology.Shuffle)
	b.Connect("T1", "T2", topology.Shuffle)
	b.Connect("T2", "T3", topology.Shuffle)
	b.Connect("T3", "Sink", topology.Shuffle)
	return b.MustBuild()
}

// waitUntil polls cond every millisecond up to timeout.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSteadyStateFlow(t *testing.T) {
	h := newHarness(t, linear3(), ModeDCR)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "50 sink arrivals", func() bool {
		return h.eng.Audit().SinkArrivals() >= 50
	})
	if lost := h.eng.Audit().Lost(h.eng.Clock().Now().Add(-time.Second)); len(lost) != 0 {
		t.Fatalf("lost payloads in steady state: %v", lost)
	}
	if dup := h.eng.Audit().Duplicates(h.eng.Fanout()); dup != 0 {
		t.Fatalf("duplicates in steady state: %d", dup)
	}
}

func TestSteadyStateFlowWithAcking(t *testing.T) {
	h := newHarness(t, linear3(), ModeDSM)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "50 sink arrivals", func() bool {
		return h.eng.Audit().SinkArrivals() >= 50
	})
	// Trees complete: the source cache drains as acks arrive.
	waitUntil(t, 5*time.Second, "acker completions", func() bool {
		return h.eng.Acker().Stats().Completed >= 40
	})
	if replays := h.eng.Collector().ReplayedCount(); replays != 0 {
		t.Fatalf("replays in steady state: %d", replays)
	}
}

func TestPauseStopsFlowAndBuildsBacklog(t *testing.T) {
	h := newHarness(t, linear3(), ModeDCR)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "initial flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 10
	})
	h.eng.PauseSources()
	time.Sleep(100 * time.Millisecond) // in-flight drains
	before := h.eng.Audit().SinkArrivals()
	time.Sleep(200 * time.Millisecond)
	after := h.eng.Audit().SinkArrivals()
	if after != before {
		t.Fatalf("sink advanced while paused: %d -> %d", before, after)
	}
	h.eng.UnpauseSources()
	waitUntil(t, 5*time.Second, "backlog drain", func() bool {
		return h.eng.Audit().SinkArrivals() > after+20
	})
}

func TestCheckpointPersistsState(t *testing.T) {
	h := newHarness(t, linear3(), ModeDCR)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 20
	})
	h.eng.PauseSources()
	time.Sleep(100 * time.Millisecond)
	if err := h.eng.Coordinator().Checkpoint(checkpoint.Sequential, 2*time.Second); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Every stateful instance has a blob in the store.
	keys := h.eng.Store().Keys("t-linear3/")
	if len(keys) != 3 {
		t.Fatalf("store keys = %v, want 3 task checkpoints", keys)
	}
	// The blob holds real state: T1 processed everything emitted.
	data, ok := h.eng.Store().Get(statestore.CheckpointKey("t-linear3", "T1[0]"))
	if !ok {
		t.Fatal("T1 checkpoint missing")
	}
	var blob checkpointBlob
	if err := statestore.Decode(data, &blob); err != nil {
		t.Fatalf("decode blob: %v", err)
	}
	var state any
	if err := statestore.Decode(blob.UserState, &state); err != nil {
		t.Fatalf("decode state: %v", err)
	}
	cs, ok := state.(*workload.CountState)
	if !ok {
		t.Fatalf("state type %T", state)
	}
	if cs.Processed == 0 {
		t.Fatal("checkpointed state has zero processed count")
	}
}

func TestRebalanceMigratesAndRespawns(t *testing.T) {
	h := newHarness(t, linear3(), ModeDCR)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 10
	})

	// Drain first (DCR-style) so nothing is lost.
	h.eng.PauseSources()
	time.Sleep(100 * time.Millisecond)
	if err := h.eng.Coordinator().Checkpoint(checkpoint.Sequential, 2*time.Second); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	h.eng.OnMigrationRequested()
	newSched := h.newSchedule(t)
	migrated := h.eng.Rebalance(newSched)
	if len(migrated) != 3 {
		t.Fatalf("migrated %d instances, want 3", len(migrated))
	}
	// All executors eventually respawn (plus the sink that never died).
	waitUntil(t, 5*time.Second, "respawn", func() bool {
		return h.eng.RunningExecutors() == 4
	})
	// Placement points at the new slots.
	inst := topology.Instance{Task: "T1", Index: 0}
	ref, _ := newSched.Slot(inst)
	if got := h.eng.slotOf(inst.String()); got != ref {
		t.Fatalf("T1 slot = %v, want %v", got, ref)
	}

	// INIT wave restores state; then flow resumes end-to-end.
	if err := h.eng.Coordinator().RunWave(tuple.Init, checkpoint.Sequential, 20*time.Millisecond, 5*time.Second); err != nil {
		t.Fatalf("init wave: %v", err)
	}
	h.eng.UnpauseSources()
	before := h.eng.Audit().SinkArrivals()
	waitUntil(t, 5*time.Second, "post-migration flow", func() bool {
		return h.eng.Audit().SinkArrivals() > before+20
	})
	if lost := h.eng.Audit().Lost(h.eng.Clock().Now().Add(-time.Second)); len(lost) != 0 {
		t.Fatalf("lost payloads across DCR-style migration: %v", lost)
	}
	if dup := h.eng.Audit().Duplicates(h.eng.Fanout()); dup != 0 {
		t.Fatalf("duplicates across DCR-style migration: %d", dup)
	}
	if v := h.eng.Audit().BoundaryViolations(); v != 0 {
		t.Fatalf("old/new boundary violations under DCR: %d", v)
	}
}

func TestStateRestoredExactlyAfterMigration(t *testing.T) {
	h := newHarness(t, linear3(), ModeDCR)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 20
	})
	h.eng.PauseSources()
	time.Sleep(100 * time.Millisecond)

	// Count processed by T2 before migration.
	exBefore := h.eng.Executor(topology.Instance{Task: "T2", Index: 0})
	processedBefore := exBefore.Logic().(*workload.CountLogic).Processed()
	if processedBefore == 0 {
		t.Fatal("T2 processed nothing before migration")
	}

	if err := h.eng.Coordinator().Checkpoint(checkpoint.Sequential, 2*time.Second); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	h.eng.OnMigrationRequested()
	h.eng.Rebalance(h.newSchedule(t))
	if err := h.eng.Coordinator().RunWave(tuple.Init, checkpoint.Sequential, 20*time.Millisecond, 5*time.Second); err != nil {
		t.Fatalf("init wave: %v", err)
	}

	exAfter := h.eng.Executor(topology.Instance{Task: "T2", Index: 0})
	if exAfter == exBefore {
		t.Fatal("executor not replaced by migration")
	}
	processedAfter := exAfter.Logic().(*workload.CountLogic).Processed()
	if processedAfter != processedBefore {
		t.Fatalf("state after migration = %d processed, want %d", processedAfter, processedBefore)
	}
}

func TestDSMKillLosesAndAckerReplays(t *testing.T) {
	h := newHarness(t, linear3(), ModeDSM)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 20
	})
	// DSM: no pause, no drain — kill immediately.
	h.eng.OnMigrationRequested()
	h.eng.Rebalance(h.newSchedule(t))
	if err := h.eng.Coordinator().RunWave(tuple.Init, checkpoint.Sequential, h.eng.Config().AckTimeout, 10*time.Second); err != nil {
		t.Fatalf("init wave: %v", err)
	}
	// Replays must occur (in-flight events died with the executors) and
	// reliability must still hold eventually.
	waitUntil(t, 10*time.Second, "replays", func() bool {
		return h.eng.Collector().ReplayedCount() > 0
	})
	waitUntil(t, 20*time.Second, "recovery of all payloads", func() bool {
		return len(h.eng.Audit().Lost(h.eng.Clock().Now().Add(-2*time.Second))) == 0
	})
}

func TestCCRCapturesAndResumesInFlight(t *testing.T) {
	h := newHarness(t, linear3(), ModeCCR)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 20
	})
	h.eng.OnMigrationRequested()
	h.eng.PauseSources()
	// Broadcast PREPARE: capture begins without draining the dataflow.
	if err := h.eng.Coordinator().Checkpoint(checkpoint.Broadcast, 2*time.Second); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	h.eng.Rebalance(h.newSchedule(t))
	if err := h.eng.Coordinator().RunWave(tuple.Init, checkpoint.Broadcast, 20*time.Millisecond, 5*time.Second); err != nil {
		t.Fatalf("init wave: %v", err)
	}
	h.eng.UnpauseSources()

	before := h.eng.Audit().SinkArrivals()
	waitUntil(t, 5*time.Second, "post-migration flow", func() bool {
		return h.eng.Audit().SinkArrivals() > before+20
	})
	if lost := h.eng.Audit().Lost(h.eng.Clock().Now().Add(-time.Second)); len(lost) != 0 {
		t.Fatalf("CCR lost payloads: %v", lost)
	}
	if dup := h.eng.Audit().Duplicates(h.eng.Fanout()); dup != 0 {
		t.Fatalf("CCR duplicated payloads: %d", dup)
	}
	if h.eng.Collector().ReplayedCount() != 0 {
		t.Fatal("CCR triggered acker replays")
	}
}

// TestZeroDelayRebalanceSpawnsBeforeReturn: with every worker start delay
// zero, Rebalance returns with the migrated workers already running, so
// the INIT the enactment sends next reaches live executors on its first
// round instead of being rejected by starting ones and resent.
func TestZeroDelayRebalanceSpawnsBeforeReturn(t *testing.T) {
	cfg := testConfig(ModeCCR)
	cfg.RebalanceCmdTime = 0
	cfg.WorkerBaseDelay = 0
	cfg.WorkerStagger = 0
	cfg.WorkerJitter = 0
	cfg.InitResend = time.Second
	h := newHarnessCfg(t, linear3(), cfg)
	h.eng.Start()
	defer h.eng.Stop()

	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 20
	})
	running := h.eng.RunningExecutors()
	h.eng.OnMigrationRequested()
	h.eng.PauseSources()
	if err := h.eng.Coordinator().Checkpoint(checkpoint.Broadcast, 2*time.Second); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if migrated := h.eng.Rebalance(h.newSchedule(t)); len(migrated) != 3 {
		t.Fatalf("migrated %d instances, want 3", len(migrated))
	}
	if n := h.eng.PendingRespawns(); n != 0 {
		t.Fatalf("PendingRespawns = %d after a zero-delay Rebalance, want 0", n)
	}
	if n := h.eng.RunningExecutors(); n != running {
		t.Fatalf("RunningExecutors = %d after a zero-delay Rebalance, want %d", n, running)
	}
	if err := h.eng.Coordinator().RunWave(tuple.Init, checkpoint.Broadcast, cfg.InitResend, 5*time.Second); err != nil {
		t.Fatalf("init wave: %v", err)
	}
	if r := h.eng.Coordinator().Stats().Resends; r != 0 {
		t.Fatalf("INIT resends = %d, want 0", r)
	}
	h.eng.UnpauseSources()
}

func TestEngineOnRealBenchmarkDAG(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance DAG run")
	}
	spec := dataflows.Star()
	h := newHarness(t, spec.Topology, ModeCCR)
	h.eng.Start()
	defer h.eng.Stop()
	waitUntil(t, 15*time.Second, "star DAG flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 100
	})
	if got := h.eng.Fanout(); got != 4 {
		t.Fatalf("star fanout = %d, want 4", got)
	}
}

func TestNewValidatesParams(t *testing.T) {
	if _, err := New(Params{}); err == nil {
		t.Fatal("New accepted empty params")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeDSM.String() != "DSM" || ModeDCR.String() != "DCR" || ModeCCR.String() != "CCR" {
		t.Fatal("mode strings wrong")
	}
	if Mode(0).String() != "unknown" {
		t.Fatal("unknown mode string")
	}
}
