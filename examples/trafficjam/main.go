// Trafficjam: the paper's GPS traffic-analytics scenario (its reference
// [12]). Rush hour begins and the operator scales the 11-task Traffic
// dataflow out from 7 two-core VMs onto 13 one-core VMs (Table 1
// scale-out), comparing all three migration strategies on the same
// workload — the strategy-comparison view of Fig. 5b.
//
//	go run ./examples/trafficjam
package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro"
)

func main() {
	if err := run(0.02); err != nil {
		fmt.Fprintln(os.Stderr, "trafficjam:", err)
		os.Exit(1)
	}
}

func run(scale float64) error {
	spec := repro.Traffic()
	fmt.Printf("GPS traffic pipeline: %d tasks, %d instances; scale-out %d x D2 -> %d x D1\n\n",
		spec.Tasks, spec.Instances, spec.DefaultVMs, spec.ScaleOutVMs)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\trestore\tcatchup\trecovery\tstabilize\treplayed\tlost")
	for _, strat := range repro.AllStrategies() {
		res, err := repro.RunScenario(context.Background(), repro.Scenario{
			Spec:      spec,
			Strategy:  strat,
			Direction: repro.ScaleOut,
			Run: repro.RunConfig{
				TimeScale:    scale,
				PreMigration: 60 * time.Second,
				PostHorizon:  540 * time.Second,
				Seed:         13,
			},
		})
		if err != nil {
			return err
		}
		if res.MigrationErr != nil {
			return fmt.Errorf("%s: %w", strat.Name(), res.MigrationErr)
		}
		m := res.Metrics
		fmt.Fprintf(w, "%s\t%.0fs\t%.0fs\t%.0fs\t%s\t%d\t%d\n",
			strat.Name(),
			m.RestoreDuration.Seconds(),
			m.CatchupTime.Seconds(),
			m.RecoveryTime.Seconds(),
			stab(m.StabilizationTime),
			m.ReplayedCount,
			res.LostCount)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\nExpected shape (paper Fig. 5b): restore CCR < DCR < DSM; only DSM")
	fmt.Println("replays messages; nothing is ever lost under any strategy.")
	return nil
}

func stab(d time.Duration) string {
	if d < 0 {
		return "never"
	}
	return fmt.Sprintf("%.0fs", d.Seconds())
}
