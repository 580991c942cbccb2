// Command stormlet runs a single migration scenario — one dataflow, one
// strategy, one scale direction — and prints the §4 metrics plus the
// reliability accounting. Useful for exploring a single cell of the
// evaluation matrix or validating a configuration change.
//
// With -autoscale it instead hands the dataflow to the closed-loop
// elasticity controller (internal/autoscale) under a ramping workload
// and reports every scaling decision the chosen policy made.
//
// With -chaos it runs the phase×strategy crash matrix: every cell
// generates an adversarial workload (skewed keys, bursty ramps, random
// DAGs, jitter, partitions), crashes an executor at exactly the cell's
// migration phase, and audits zero loss / zero duplicates plus the
// per-migration generation accounting.
//
// With -supervise it runs the self-healing demo: the dataflow runs
// under supervision, an executor is killed with no paired restart, and
// the supervisor's detect→restore→recover timeline and MTTR are
// reported alongside the reliability audit. Combined with -chaos it
// appends the unplanned-crash cells to the matrix.
//
// Runs ride on the Job control plane, so an interrupt (SIGINT/Ctrl-C)
// does not kill the dataflow mid-flight: an in-flight migration unwinds,
// the dataflow drains gracefully, and the partial metrics are printed.
//
// Usage:
//
//	stormlet -dag grid -strategy CCR -direction in
//	stormlet -dag linear -strategy DSM -direction out -scale 0.05
//	stormlet -dag diamond -strategy CCR -autoscale -policy queue
//	stormlet -chaos -chaos.seed 7 -scale 0.05
//	stormlet -supervise -dag linear -strategy DSM -scale 0.05
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// errUsage signals a flag-parse failure whose details the flag package
// already printed to stderr.
var errUsage = errors.New("invalid arguments (see usage above)")

func main() {
	// First SIGINT: cancel the context → graceful drain. Unregistering
	// the handler right after cancellation restores the default SIGINT
	// disposition, so a second Ctrl-C kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := runContext(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stormlet:", err)
		os.Exit(1)
	}
}

// run keeps the uncancellable entry point for tests.
func run(args []string) error { return runContext(context.Background(), args) }

func runContext(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stormlet", flag.ContinueOnError)
	dag := fs.String("dag", "grid", "dataflow: linear, diamond, star, grid, traffic")
	strategy := fs.String("strategy", "CCR", "migration strategy: DSM, DCR, CCR, CCR-seqinit")
	direction := fs.String("direction", "in", "scale direction: in or out")
	scale := fs.Float64("scale", 0.02, "time compression factor")
	pre := fs.Duration("pre", 60*time.Second, "warmup before migration (paper time)")
	post := fs.Duration("post", 420*time.Second, "max horizon after migration (paper time)")
	seed := fs.Int64("seed", 1, "randomness seed")
	timeline := fs.Bool("timeline", false, "print throughput and latency timelines")
	chart := fs.Bool("chart", false, "render timelines as ASCII charts")
	csvPath := fs.String("csv", "", "write the run's timelines as CSV files with this prefix")
	doAutoscale := fs.Bool("autoscale", false, "run the closed elasticity loop under a ramping workload instead of a single migration (uses -dag, -strategy, -policy, -scale, -seed; the other flags do not apply)")
	policy := fs.String("policy", "util-band", "autoscale policy: util-band, queue, latency-slo")
	doChaos := fs.Bool("chaos", false, "run the phase×strategy crash matrix under adversarial generated workloads instead of a single migration (uses -chaos.seed, -scale, -full, -supervise; the other flags do not apply)")
	chaosSeed := fs.Int64("chaos.seed", 1, "seed for the chaos matrix; a failing cell reports it for replay")
	full := fs.Bool("full", false, "with -chaos: enact the out-then-in double migration per cell")
	doSupervise := fs.Bool("supervise", false, "run the self-healing demo: the dataflow runs under supervision, an executor is killed with no restart, and the detect/restore/recover timeline plus MTTR is reported (uses -dag, -strategy, -scale, -seed); with -chaos: append the unplanned-crash cells to the matrix")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage // flag already printed the problem and usage
	}

	if *doChaos {
		return runChaos(ctx, *chaosSeed, *scale, *full, *doSupervise)
	}
	spec, err := dataflows.ByName(*dag)
	if err != nil {
		return err
	}
	strat, err := core.ByName(*strategy)
	if err != nil {
		return err
	}
	if *doAutoscale {
		return runAutoscale(ctx, spec, strat, *policy, *scale, *seed)
	}
	if *doSupervise {
		return runSupervise(ctx, spec, strat, *scale, *seed)
	}
	dir := experiments.ScaleIn
	if *direction == "out" {
		dir = experiments.ScaleOut
	}

	fmt.Printf("Running %s / %s / %s (scale %.3f)...\n", *dag, strat.Name(), dir, *scale)
	start := time.Now() //vetstorm:allow wallclock reporting real elapsed wall time to the operator
	r, err := experiments.Run(ctx, experiments.Scenario{
		Spec:      spec,
		Strategy:  strat,
		Direction: dir,
		Run: experiments.RunConfig{
			TimeScale:    *scale,
			PreMigration: *pre,
			PostHorizon:  *post,
			Seed:         *seed,
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("Completed in %s wall time.\n\n", time.Since(start).Round(time.Millisecond)) //vetstorm:allow wallclock reporting real elapsed wall time to the operator

	if r.Canceled {
		fmt.Println("INTERRUPTED: dataflow drained gracefully; partial metrics follow.")
	}
	if r.MigrationErr != nil {
		fmt.Printf("MIGRATION FAILED: %v\n", r.MigrationErr)
	}
	m := r.Metrics
	fmt.Println(experiments.Table("Metrics (paper time)",
		[]string{"Metric", "Value"},
		[][]string{
			{"Restore duration", m.RestoreDuration.Round(time.Millisecond).String()},
			{"Drain/capture duration", m.DrainDuration.Round(time.Millisecond).String()},
			{"Rebalance duration", m.RebalanceDuration.Round(time.Millisecond).String()},
			{"Catchup time", m.CatchupTime.Round(time.Millisecond).String()},
			{"Recovery time", m.RecoveryTime.Round(time.Millisecond).String()},
			{"Stabilization time", experiments.Secs(m.StabilizationTime) + " s"},
			{"Stable median latency", m.StableLatency.Round(time.Millisecond).String()},
			{"Replayed messages", fmt.Sprint(m.ReplayedCount)},
			{"Roots emitted", fmt.Sprint(m.EmittedRoots)},
			{"Sink events", fmt.Sprint(m.SinkEvents)},
		}))
	fmt.Println(experiments.Table("Reliability",
		[]string{"Check", "Value"},
		[][]string{
			{"Lost payloads", fmt.Sprint(r.LostCount)},
			{"Duplicated payloads", fmt.Sprint(r.DuplicateCount)},
			{"Old/new boundary violations", fmt.Sprint(r.BoundaryViolations)},
			{"State rollback (events)", fmt.Sprint(r.Staleness)},
			{"Dropped deliveries", fmt.Sprint(r.Drops)},
		}))
	fmt.Println(experiments.Table("Deployment",
		[]string{"Item", "Value"},
		[][]string{
			{"VMs before -> after", fmt.Sprintf("%d -> %d", r.VMsBefore, r.VMsAfter)},
			{"Billing rate before -> after", fmt.Sprintf("%.4f -> %.4f /min", r.RateBefore, r.RateAfter)},
			{"Store ops / bytes written", fmt.Sprintf("%d / %d", r.Store.Ops, r.Store.BytesWritten)},
		}))

	if *timeline {
		fmt.Println(experiments.Series("input rate (ev/s)", r.Input, r.RequestOffset, 20*time.Second))
		fmt.Println(experiments.Series("output rate (ev/s)", r.Output, r.RequestOffset, 20*time.Second))
		fmt.Println(experiments.Series("latency (ms)", r.Latency, r.RequestOffset, 20*time.Second))
	}
	if *chart {
		fmt.Println(experiments.Chart("input rate (ev/s)", r.Input, r.RequestOffset, 100, 10))
		fmt.Println(experiments.Chart("output rate (ev/s)", r.Output, r.RequestOffset, 100, 10))
		fmt.Println(experiments.Chart("latency (ms)", r.Latency, r.RequestOffset, 100, 10))
	}
	if *csvPath != "" {
		for name, series := range map[string][]metrics.Sample{
			"input": r.Input, "output": r.Output, "latency": r.Latency,
		} {
			f, err := os.Create(*csvPath + "-" + name + ".csv")
			if err != nil {
				return err
			}
			if err := experiments.WriteTimelineCSV(f, series, r.RequestOffset); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s-%s.csv\n", *csvPath, name)
		}
	}
	return nil
}

// runChaos drives the crash matrix: every migration phase × strategy
// cell under a generated adversarial workload, with an executor crashed
// at exactly the cell's phase, audited for zero loss and duplicates.
func runChaos(ctx context.Context, seed int64, scale float64, full, supervised bool) error {
	mode := "short (one scale-out per cell)"
	if full {
		mode = "full (out-then-in double migration per cell)"
	}
	if supervised {
		mode += ", with unplanned-crash cells"
	}
	fmt.Printf("Running chaos matrix, %s, seed %d (scale %.3f)...\n", mode, seed, scale)
	start := time.Now() //vetstorm:allow wallclock reporting real elapsed wall time to the operator
	out, err := experiments.RunChaos(ctx, experiments.ChaosConfig{
		Seed:       seed,
		TimeScale:  scale,
		Full:       full,
		Supervised: supervised,
		Progress:   func(line string) { fmt.Println("  " + line) },
	})
	fmt.Printf("Completed in %s wall time.\n\n", time.Since(start).Round(time.Millisecond)) //vetstorm:allow wallclock reporting real elapsed wall time to the operator
	fmt.Println(out)
	return err
}

// runSupervise drives the self-healing demo: kill one executor with no
// paired restart and report the supervisor's detect→restore→recover
// timeline, MTTR, and the post-drain reliability audit.
func runSupervise(ctx context.Context, spec dataflows.Spec, strat core.Strategy, scale float64, seed int64) error {
	fmt.Printf("Supervised run: %s / %s (scale %.3f) — unplanned kill, self-healing recovery...\n",
		spec.Topology.Name(), strat.Name(), scale)
	start := time.Now() //vetstorm:allow wallclock reporting real elapsed wall time to the operator
	r, err := experiments.RunSupervised(ctx, experiments.SuperviseScenario{
		Spec:      spec,
		Strategy:  strat,
		TimeScale: scale,
		Seed:      seed,
		Progress:  func(line string) { fmt.Println("  " + line) },
	})
	if err != nil {
		return err
	}
	fmt.Printf("Completed in %s wall time.\n\n", time.Since(start).Round(time.Millisecond)) //vetstorm:allow wallclock reporting real elapsed wall time to the operator
	fmt.Println(experiments.Table("Self-healing recovery (paper time)",
		[]string{"Item", "Value"},
		[][]string{
			{"Victim (unplanned kill)", r.Victim},
			{"Detection after kill", r.Detected.Round(time.Millisecond).String()},
			{"Recovered after kill", r.Restored.Round(time.Millisecond).String()},
			{"MTTR (detect -> recover)", r.MTTR.Round(time.Millisecond).String()},
			{"Incidents / health", fmt.Sprintf("%d / %s", r.Incidents, r.Health)},
			{"Roots emitted / arrived", fmt.Sprintf("%d / %d", r.Emitted, r.Arrived)},
			{"Lost / duplicated", fmt.Sprintf("%d / %d", r.Lost, r.Duplicates)},
		}))
	return nil
}

// runAutoscale drives the closed elasticity loop on the chosen dataflow
// under experiments.DefaultRamp and reports every decision and the final
// accounting.
func runAutoscale(ctx context.Context, spec dataflows.Spec, strat core.Strategy, policyName string, scale float64, seed int64) error {
	pol, err := autoscale.ByName(policyName)
	if err != nil {
		return err
	}
	fmt.Printf("Autoscaling %s with policy %s, enacting via %s (scale %.3f)...\n",
		spec.Topology.Name(), pol.Name(), strat.Name(), scale)
	start := time.Now() //vetstorm:allow wallclock reporting real elapsed wall time to the operator
	r, err := experiments.RunAutoscale(ctx, experiments.AutoscaleScenario{
		Spec:      spec,
		Strategy:  strat,
		Policy:    pol,
		TimeScale: scale,
		Seed:      seed,
		Debug: func(d autoscale.Decision, off time.Duration) {
			switch {
			case d.Enacted:
				fmt.Printf("  [%6s] ENACT  %s\n", off.Round(time.Second), d.Target.Reason)
			case d.Err != nil:
				fmt.Printf("  [%6s] FAILED %s: %v\n", off.Round(time.Second), d.Target.Reason, d.Err)
			case d.Raw.Verdict != autoscale.Hold:
				fmt.Printf("  [%6s] defer  %s\n", off.Round(time.Second), d.Admitted.Reason)
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("Completed in %s wall time.\n\n", time.Since(start).Round(time.Millisecond)) //vetstorm:allow wallclock reporting real elapsed wall time to the operator
	fmt.Println(experiments.Table("Autoscale run",
		[]string{"Item", "Value"},
		[][]string{
			{"DAG / policy / strategy", fmt.Sprintf("%s / %s / %s", r.DAG, r.Policy, r.Strategy)},
			{"Scale-outs / scale-ins", fmt.Sprintf("%d / %d", r.ScaleOuts, r.ScaleIns)},
			{"Failed enactments", fmt.Sprint(r.FailedEnactments)},
			{"Mean enactment (paper time)", r.MeanEnactment.Round(100 * time.Millisecond).String()},
			{"Loop decisions (holds)", fmt.Sprintf("%d (%d)", r.Decisions, r.Holds)},
			{"Final fleet", r.FinalFleet},
			{"Billing rate at horizon", fmt.Sprintf("%.4f /min", r.RateFinal)},
			{"Total cost", fmt.Sprintf("%.4f", r.Cost)},
			{"Lost / duplicated / replayed", fmt.Sprintf("%d / %d / %d", r.Lost, r.Duplicates, r.Replayed)},
		}))
	if r.Lost != 0 || r.Duplicates != 0 {
		return fmt.Errorf("reliability violated: lost=%d duplicated=%d", r.Lost, r.Duplicates)
	}
	return nil
}
