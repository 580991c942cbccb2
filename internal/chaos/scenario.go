// Package chaos is the adversarial test harness: it generates hostile
// workloads (skewed keys, hot partitions, bursty and diurnal rate
// ramps, random DAG shapes, network jitter and partitions) and drives a
// crash matrix over every migration phase × strategy, asserting the
// paper's reliability claims — zero loss, zero duplicates, and
// per-migration boundary accounting that sums to the emit total — hold
// under fire, not just on the happy path.
//
// Every run is seed-deterministic at the scenario level: the same seed
// reproduces the same topology, key sequence, rate schedule, jitter
// draws and partition windows, so a failing cell can be replayed with
// `go test ./internal/chaos -run TestChaosMatrix -chaos.seed=N`.
//
// Which cells crash — the physics of the matrix:
//
//   - DSM cells run on fanout-1 chains and may crash at any of DSM's
//     phases (requested, rebalance-start, rebalance-end): always-on
//     acking replays whatever the kill discarded, and a chain delivers
//     each replay to the sink exactly once. On fanout>1 DAGs a replay
//     re-traverses every path, duplicating the copies that did land —
//     at-least-once is DSM's actual contract there, so DSM DAG cells
//     would assert something the system never promised.
//
//   - DCR and CCR cells crash only at quiesced phases (drain-end,
//     rebalance-start, rebalance-end), after the JIT checkpoint has
//     persisted every task's state — and, for CCR, its captured
//     pending events, which the sequential COMMIT rearguard guarantees
//     are complete. A crash there discards nothing the INIT wave
//     cannot restore. Crashing at `requested` instead would discard
//     queued events no mechanism replays (no acking in JIT modes) —
//     guaranteed loss by design, so those cells run crash-free and
//     stress the workload generator, jitter and partitions instead.
package chaos

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflows"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Scenario is one generated adversarial workload: a topology, a key
// distribution, a rate schedule and a network disposition, all derived
// deterministically from Seed.
type Scenario struct {
	// Name labels the scenario family (chain-skew, dag-deep, ...).
	Name string
	// Seed derives every random choice below; it is also the job seed.
	Seed int64
	// Spec is the generated dataflow with Table-1-style deployment sizing.
	Spec dataflows.Spec
	// Keys derives each root's routing key from its sequence number
	// (pure, so replays re-derive the same key). Nil keeps the engine's
	// default uniform hashing.
	Keys workload.KeyGen
	// Rates is replayed against the running job via Job.SetSourceRate.
	Rates workload.Schedule
	// BaseRate is the initial per-source rate before the first phase.
	BaseRate float64
	// Jitter adds deterministic per-event cross-slot delivery jitter.
	Jitter time.Duration
	// Partitions are transient network partition windows (elapsed run
	// time). Scenarios keep them inside the warmup, before the first
	// migration, and out of DSM cells (a partition spanning an ack
	// timeout would force replays whose originals also arrive — a
	// duplicate the strategy never promised to prevent).
	Partitions []cluster.Partition
	// BatchSize overrides the fabric's per-link micro-batch cap (zero
	// keeps the engine default). Batch scenarios pair it with a large
	// Jitter: under ack-clocked batching, events stage behind a link's
	// in-flight batch for its whole wire time, so whole micro-batches sit
	// staged or in flight when the crash lands.
	BatchSize int
}

// scheduleHorizon bounds generated schedules: long enough to cover
// warmup, two migrations and catchup in paper time.
const scheduleHorizon = 240 * time.Second

// chainSpec builds a fanout-1 chain DAG — the only shape on which DSM's
// replay is duplicate-free.
func chainSpec(seed int64) dataflows.Spec {
	return dataflows.SpecOf(topology.Random(seed, topology.ChainConfig()))
}

// dagSpec builds a layered random DAG sized to sustain the scenario's
// peak rate (parallelism = ceil(input rate / 8), the paper's rule).
func dagSpec(seed int64, peak float64) dataflows.Spec {
	cfg := topology.RandomConfig{
		MaxDepth:    3,
		MaxWidth:    3,
		FieldsBias:  0.4,
		SizeForRate: peak,
	}
	return dataflows.SpecOf(topology.Random(seed, cfg))
}

// ChainSkew: Zipf-skewed keys on a chain under a diurnal ramp.
func ChainSkew(seed int64) Scenario {
	return Scenario{
		Name:     "chain-skew",
		Seed:     seed,
		Spec:     chainSpec(seed),
		Keys:     workload.ZipfKeys(seed, 1.2, 64),
		Rates:    workload.DiurnalSchedule(4, 8, 90*time.Second, 8),
		BaseRate: 4,
	}
}

// ChainHot: one hot key carrying 60% of the stream (a hot partition
// under fields grouping) with deterministic burst windows.
func ChainHot(seed int64) Scenario {
	return Scenario{
		Name:     "chain-hot",
		Seed:     seed,
		Spec:     chainSpec(seed),
		Keys:     workload.HotKeys(seed, 0.6, 16),
		Rates:    workload.BurstSchedule(seed, 4, 8, 30*time.Second, 6*time.Second, scheduleHorizon),
		BaseRate: 4,
	}
}

// ChainBurst: uniform keys, bursty rate, a little delivery jitter.
func ChainBurst(seed int64) Scenario {
	return Scenario{
		Name:     "chain-burst",
		Seed:     seed,
		Spec:     chainSpec(seed),
		Keys:     workload.UniformKeys(seed),
		Rates:    workload.BurstSchedule(seed, 4, 8, 30*time.Second, 6*time.Second, scheduleHorizon),
		BaseRate: 4,
		Jitter:   500 * time.Microsecond,
	}
}

// ChainBatch: a chain under bursty load with 32-event batches and up to
// 20 ms of paper-time delivery jitter — an order of magnitude above a
// LAN hop. Under ack-clocked batching a link's events stage behind its
// in-flight batch for that batch's whole wire time, so at any instant
// whole micro-batches sit staged in per-link buffers or scheduled in
// the shard heaps, and a crash injected mid-migration lands on batch
// boundaries. The kill-vs-deliver race must account for every staged
// event exactly once — flushed-but-undelivered batches included.
func ChainBatch(seed int64) Scenario {
	return Scenario{
		Name:      "chain-batch",
		Seed:      seed,
		Spec:      chainSpec(seed),
		Keys:      workload.UniformKeys(seed),
		Rates:     workload.BurstSchedule(seed, 4, 8, 30*time.Second, 6*time.Second, scheduleHorizon),
		BaseRate:  4,
		Jitter:    20 * time.Millisecond,
		BatchSize: 32,
	}
}

// DagDeep: a random layered DAG under a diurnal ramp, uniform keys.
func DagDeep(seed int64) Scenario {
	return Scenario{
		Name:     "dag-deep",
		Seed:     seed,
		Spec:     dagSpec(seed, 8),
		Keys:     workload.UniformKeys(seed),
		Rates:    workload.DiurnalSchedule(4, 8, 90*time.Second, 8),
		BaseRate: 4,
	}
}

// DagJitter: a random DAG with a hot partition and milliseconds of
// deterministic delivery jitter — stresses the fabric's FIFO clamp
// while a migration is in flight.
func DagJitter(seed int64) Scenario {
	return Scenario{
		Name:     "dag-jitter",
		Seed:     seed,
		Spec:     dagSpec(seed, 8),
		Keys:     workload.HotKeys(seed, 0.5, 32),
		Rates:    workload.DiurnalSchedule(4, 8, 90*time.Second, 8),
		BaseRate: 4,
		Jitter:   2 * time.Millisecond,
	}
}

// DagSkew: Zipf keys on a random DAG with burst windows.
func DagSkew(seed int64) Scenario {
	return Scenario{
		Name:     "dag-skew",
		Seed:     seed,
		Spec:     dagSpec(seed, 8),
		Keys:     workload.ZipfKeys(seed, 1.1, 32),
		Rates:    workload.BurstSchedule(seed, 4, 8, 30*time.Second, 6*time.Second, scheduleHorizon),
		BaseRate: 4,
	}
}

// ChainPartition: a chain that suffers a full cross-VM partition window
// during warmup (healing well before the migration), plus jitter.
// Partitions stall deliveries without dropping them, so JIT strategies
// stay lossless; DSM cells never use this scenario (see package doc).
func ChainPartition(seed int64) Scenario {
	return Scenario{
		Name:     "chain-partition",
		Seed:     seed,
		Spec:     chainSpec(seed),
		Keys:     workload.UniformKeys(seed),
		Rates:    workload.DiurnalSchedule(4, 8, 90*time.Second, 8),
		BaseRate: 4,
		Jitter:   time.Millisecond,
		Partitions: []cluster.Partition{
			{From: 8 * time.Second, Until: 16 * time.Second},
		},
	}
}
