// Package core implements the paper's contribution: the three dataflow
// migration strategies that move a running streaming dataflow onto a new
// schedule reliably (no message or state loss) and rapidly (§3).
//
//   - DSM (Default Storm Migration) — the baseline. Rebalance immediately:
//     migrating tasks are killed with their queues; always-on acking
//     replays lost events after the 30 s timeout; task state rolls back to
//     the last periodic checkpoint; INIT waves are re-driven only by the
//     ack timeout.
//
//   - DCR (Drain–Checkpoint–Restore) — pause sources; let a sequential
//     PREPARE wave sweep the dataflow as a rearguard behind every
//     in-flight event (the drain); COMMIT persists a just-in-time
//     checkpoint; rebalance with zero timeout; a sequential INIT wave
//     (aggressively resent every second) restores state; unpause. No
//     losses, no replays, and a strict boundary between pre- and
//     post-migration events.
//
//   - CCR (Capture–Checkpoint–Resume) — like DCR but PREPARE is broadcast
//     straight to every task, which then captures still-queued events
//     into its state instead of processing them; COMMIT (sequential, so
//     it lands behind all in-flight data) persists state plus captured
//     events; after the rebalance a broadcast INIT restores each task
//     independently and resumes the captured events locally. Drain time
//     shrinks to the slowest local queue, and sink-adjacent tasks produce
//     output as soon as they restore.
package core

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Strategy enacts a planned migration of a running dataflow onto a new
// schedule. The schedule itself (how many VMs, which tasks where) comes
// from a planner — out of scope here, as in the paper.
type Strategy interface {
	// Name is the paper's acronym for the strategy.
	Name() string
	// Mode is the engine provisioning the strategy requires.
	Mode() runtime.Mode
	// Migrate performs the migration and blocks until the dataflow is
	// restored (all tasks initialized on the new schedule).
	Migrate(eng *runtime.Engine, newSched *scheduler.Schedule) error
}

// DSM is the Default Storm Migration baseline.
type DSM struct{}

var _ Strategy = DSM{}

// Name implements Strategy.
func (DSM) Name() string { return "DSM" }

// Mode implements Strategy.
func (DSM) Mode() runtime.Mode { return runtime.ModeDSM }

// Migrate implements Strategy: invoke rebalance immediately with zero
// timeout, then drive INIT waves whose failed rounds are retried only
// after the ack timeout — the source is never paused, so events keep
// flowing (and dying, and replaying) throughout.
func (DSM) Migrate(eng *runtime.Engine, newSched *scheduler.Schedule) error {
	eng.OnMigrationRequested()
	coord := eng.Coordinator()
	// Suspend the periodic checkpointer so its waves do not interleave
	// with the recovery INIT waves.
	coord.Suspend()
	defer coord.Resume()

	eng.Rebalance(newSched)

	cfg := eng.Config()
	if err := coord.RunWave(tuple.Init, checkpoint.Sequential, cfg.AckTimeout, cfg.MaxInitWait); err != nil {
		return fmt.Errorf("core: DSM init: %w", err)
	}
	return nil
}

// DCR is Drain–Checkpoint–Restore.
type DCR struct{}

var _ Strategy = DCR{}

// Name implements Strategy.
func (DCR) Name() string { return "DCR" }

// Mode implements Strategy.
func (DCR) Mode() runtime.Mode { return runtime.ModeDCR }

// Migrate implements Strategy.
func (DCR) Migrate(eng *runtime.Engine, newSched *scheduler.Schedule) error {
	return drainAndMigrate(eng, newSched, checkpoint.Sequential, checkpoint.Sequential)
}

// CCR is Capture–Checkpoint–Resume.
type CCR struct{}

var _ Strategy = CCR{}

// Name implements Strategy.
func (CCR) Name() string { return "CCR" }

// Mode implements Strategy.
func (CCR) Mode() runtime.Mode { return runtime.ModeCCR }

// Migrate implements Strategy.
func (CCR) Migrate(eng *runtime.Engine, newSched *scheduler.Schedule) error {
	return drainAndMigrate(eng, newSched, checkpoint.Broadcast, checkpoint.Broadcast)
}

// CCRSeqInit is the A2 ablation: CCR's capture semantics but with the
// INIT wave delivered sequentially along dataflow edges instead of
// broadcast, isolating how much of CCR's restore advantage comes from the
// hub-and-spoke INIT channel.
type CCRSeqInit struct{}

var _ Strategy = CCRSeqInit{}

// Name implements Strategy.
func (CCRSeqInit) Name() string { return "CCR-seqinit" }

// Mode implements Strategy.
func (CCRSeqInit) Mode() runtime.Mode { return runtime.ModeCCR }

// Migrate implements Strategy.
func (CCRSeqInit) Migrate(eng *runtime.Engine, newSched *scheduler.Schedule) error {
	return drainAndMigrate(eng, newSched, checkpoint.Broadcast, checkpoint.Sequential)
}

// DCRUpdate is the paper's §7 extension built on DCR: migrate the
// dataflow AND swap the user logic of its tasks in the same enactment.
// The drain guarantees a clean cut: every pre-update event was fully
// processed by the old logic, the JIT checkpoint captures the old state,
// and the INIT wave hands it to executors built by NewFactory, which may
// reinterpret or upgrade it.
type DCRUpdate struct {
	// NewFactory builds the replacement logic for every respawned
	// instance. Its Restore must accept the old logic's snapshots.
	NewFactory workload.Factory
}

var _ Strategy = DCRUpdate{}

// Name implements Strategy.
func (DCRUpdate) Name() string { return "DCR-update" }

// Mode implements Strategy.
func (DCRUpdate) Mode() runtime.Mode { return runtime.ModeDCR }

// Migrate implements Strategy: a DCR migration whose respawned executors
// run the new logic.
func (u DCRUpdate) Migrate(eng *runtime.Engine, newSched *scheduler.Schedule) error {
	if u.NewFactory == nil {
		return fmt.Errorf("core: DCR-update requires a NewFactory")
	}
	eng.PauseSources() // before the new generation: see drainAndMigrate
	eng.OnMigrationRequested()
	coord := eng.Coordinator()
	cfg := eng.Config()

	if err := coord.Checkpoint(checkpoint.Sequential, cfg.WaveTimeout); err != nil {
		eng.UnpauseSources()
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	eng.MarkDrainEnd()

	// Swap the factory before the rebalance schedules any respawn, so
	// every migrated executor is built with the new logic.
	eng.SwapLogicFactory(u.NewFactory)
	eng.Rebalance(newSched)

	if err := coord.RunWave(tuple.Init, checkpoint.Sequential, cfg.InitResend, cfg.MaxInitWait); err != nil {
		return fmt.Errorf("core: init: %w", err)
	}
	eng.UnpauseSources()
	return nil
}

// drainAndMigrate is the shared DCR/CCR skeleton: pause → checkpoint
// (PREPARE delivery decides drain vs capture) → rebalance → INIT
// (aggressively resent) → unpause.
func drainAndMigrate(eng *runtime.Engine, newSched *scheduler.Schedule, prepare, init checkpoint.Delivery) error {
	// Pause the sources: input rate drops to zero and, once the drain or
	// capture completes, so does the output rate — the sink stays live,
	// which is what lets CCR produce output again as soon as any
	// sink-adjacent task restores and replays its captured events. The
	// pause comes before the request opens the new generation, so every
	// root stamped with it is emitted after the unpause, behind the drain.
	eng.PauseSources()
	eng.OnMigrationRequested()
	coord := eng.Coordinator()
	cfg := eng.Config()

	if err := coord.Checkpoint(prepare, cfg.WaveTimeout); err != nil {
		// The dataflow was rolled back and keeps running on the old
		// schedule; surface the failure to the planner.
		eng.UnpauseSources()
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	eng.MarkDrainEnd()

	eng.Rebalance(newSched)

	if err := coord.RunWave(tuple.Init, init, cfg.InitResend, cfg.MaxInitWait); err != nil {
		return fmt.Errorf("core: init: %w", err)
	}
	eng.UnpauseSources()
	return nil
}

// All returns the three paper strategies in presentation order.
func All() []Strategy { return []Strategy{DSM{}, DCR{}, CCR{}} }

// ByName resolves a strategy by its acronym (DSM, DCR, CCR, or the
// CCR-seqinit ablation).
func ByName(name string) (Strategy, error) {
	switch name {
	case "DSM", "dsm":
		return DSM{}, nil
	case "DCR", "dcr":
		return DCR{}, nil
	case "CCR", "ccr":
		return CCR{}, nil
	case "CCR-seqinit", "ccr-seqinit":
		return CCRSeqInit{}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", name)
	}
}

// EnactmentBudget estimates the worst-case enactment time of a strategy
// before stabilization effects, used by planners to decide whether a
// migration fits a maintenance window: drain (bounded by critical path ×
// task latency for DCR, one queue for CCR) + rebalance + worker start +
// init rounds.
func EnactmentBudget(s Strategy, criticalPath int, cfg runtime.Config, instances int) time.Duration {
	rebalance := cfg.RebalanceCmdTime
	workerUp := cfg.WorkerBaseDelay + time.Duration(instances)*cfg.WorkerStagger + cfg.WorkerJitter
	switch s.(type) {
	case DSM:
		// Worst case: every worker misses the first INIT round and waits a
		// full ack timeout for the next.
		rounds := workerUp/cfg.AckTimeout + 1
		return rebalance + time.Duration(rounds+1)*cfg.AckTimeout
	case CCR:
		capture := cfg.TaskLatency * 8 // one local queue
		return capture + rebalance + workerUp + 2*cfg.InitResend
	default:
		drain := time.Duration(criticalPath) * cfg.TaskLatency * 4
		return drain + rebalance + workerUp + time.Duration(criticalPath)*cfg.InitResend
	}
}
