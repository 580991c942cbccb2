// Gridmeter: the paper's Smart-Power-Grid scenario (its reference [1]).
// The 15-task Grid dataflow analyzes meter, weather and usage streams
// (three preprocessing chains, two-stage aggregation, demand prediction
// and curtailment decision). At night the operator consolidates the
// deployment from 11 two-core VMs onto 6 four-core VMs to cut the VM
// count — without dropping a single meter reading, using CCR.
//
// The run also contrasts what DSM (Storm's native rebalance) would have
// done on the same consolidation: lost in-flight readings replayed after
// 30 s timeouts, minutes of instability.
//
//	go run ./examples/gridmeter
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	if err := run(0.02); err != nil {
		fmt.Fprintln(os.Stderr, "gridmeter:", err)
		os.Exit(1)
	}
}

func run(scale float64) error {
	spec := repro.Grid()
	fmt.Printf("Smart-Grid analytics dataflow: %d tasks, %d instances, critical path %d\n",
		spec.Tasks, spec.Instances, spec.Topology.CriticalPathLen())
	fmt.Printf("consolidating %d x D2 -> %d x D3 (Table 1 scale-in)\n\n",
		spec.DefaultVMs, spec.ScaleInVMs)

	runCfg := repro.RunConfig{
		TimeScale:    scale,
		PreMigration: 60 * time.Second,
		PostHorizon:  540 * time.Second,
		Seed:         7,
	}

	for _, strat := range []repro.Strategy{repro.CCR{}, repro.DSM{}} {
		fmt.Printf("--- %s ---\n", strat.Name())
		res, err := repro.RunScenario(context.Background(), repro.Scenario{
			Spec:      spec,
			Strategy:  strat,
			Direction: repro.ScaleIn,
			Run:       runCfg,
		})
		if err != nil {
			return err
		}
		if res.MigrationErr != nil {
			return fmt.Errorf("%s migration: %w", strat.Name(), res.MigrationErr)
		}
		m := res.Metrics
		fmt.Printf("  restore: %5.0f s   stabilization: %s s\n",
			m.RestoreDuration.Seconds(), stab(m.StabilizationTime))
		fmt.Printf("  catchup: %5.0f s   recovery:      %5.0f s\n",
			m.CatchupTime.Seconds(), m.RecoveryTime.Seconds())
		fmt.Printf("  readings replayed: %d, lost: %d, state rolled back: %d events\n",
			m.ReplayedCount, res.LostCount, res.Staleness)
		fmt.Printf("  VMs: %d -> %d\n\n", res.VMsBefore, res.VMsAfter)
	}

	fmt.Println("CCR consolidates the grid pipeline in well under a minute with zero")
	fmt.Println("loss; DSM recovers eventually (at-least-once) but replays readings")
	fmt.Println("and takes minutes to stabilize — the paper's headline result.")
	return nil
}

func stab(d time.Duration) string {
	if d < 0 {
		return "never"
	}
	return fmt.Sprintf("%5.0f", d.Seconds())
}
