package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/statestore"
	"repro/internal/timex"
)

// Suite runs and memoizes the evaluation matrix so every figure derived
// from the same scenarios (Figs. 5, 6, 8 share the matrix; Figs. 7 and 9
// share the Grid scale-in runs) executes each scenario exactly once.
type Suite struct {
	// Run is the base run configuration for all scenarios.
	Run RunConfig

	mu    sync.Mutex
	cache map[string]*Result
}

// NewSuite returns a suite with the given base configuration.
func NewSuite(run RunConfig) *Suite {
	return &Suite{Run: run, cache: make(map[string]*Result)}
}

// Get runs (or returns the memoized) scenario for the cell.
func (s *Suite) Get(spec dataflows.Spec, strat core.Strategy, dir Direction) (*Result, error) {
	key := fmt.Sprintf("%s/%s/%s", spec.Topology.Name(), strat.Name(), dir)
	s.mu.Lock()
	if r, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()

	run := s.Run
	// Independent but reproducible randomness per cell.
	run.Seed = s.Run.Seed + int64(len(key))*1000 + int64(key[0])
	r, err := Run(context.Background(), Scenario{Spec: spec, Strategy: strat, Direction: dir, Run: run})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cache[key] = r
	s.mu.Unlock()
	return r, nil
}

// DAGOrder is the paper's presentation order for the benchmark DAGs.
func DAGOrder() []dataflows.Spec {
	return []dataflows.Spec{
		dataflows.Linear(), dataflows.Diamond(), dataflows.Star(),
		dataflows.Grid(), dataflows.Traffic(),
	}
}

// shortName maps topology names to the paper's labels.
func shortName(topoName string) string {
	switch topoName {
	case "linear-5":
		return "Linear"
	case "diamond":
		return "Diamond"
	case "star":
		return "Star"
	case "grid":
		return "Grid"
	case "traffic":
		return "Traffic"
	default:
		return topoName
	}
}

// Table1 renders the deployment inventory (tasks, instances, VM counts),
// reproducing Table 1 structurally from the DAG definitions.
func Table1() string {
	rows := make([][]string, 0, 5)
	for _, spec := range DAGOrder() {
		rows = append(rows, []string{
			shortName(spec.Topology.Name()),
			fmt.Sprint(spec.Tasks),
			fmt.Sprint(spec.Instances),
			fmt.Sprint(spec.DefaultVMs),
			fmt.Sprint(spec.ScaleInVMs),
			fmt.Sprint(spec.ScaleOutVMs),
		})
	}
	return Table("Table 1: Tasks, slots and VMs for the dataflows",
		[]string{"DAG", "Tasks", "Instances(Slots)", "Default #VM (2-slot)", "Scale-in #VM (4-slot)", "Scale-out #VM (1-slot)"},
		rows)
}

// Fig5 renders the restore/catchup/recovery stacked times for one scale
// direction across all DAGs and strategies (Fig. 5a or 5b).
func (s *Suite) Fig5(dir Direction) (string, error) {
	rows := make([][]string, 0, 15)
	for _, spec := range DAGOrder() {
		for _, strat := range core.All() {
			r, err := s.Get(spec, strat, dir)
			if err != nil {
				return "", err
			}
			m := r.Metrics
			total := m.RestoreDuration
			if m.CatchupTime > total {
				total = m.CatchupTime
			}
			if m.RecoveryTime > total {
				total = m.RecoveryTime
			}
			rows = append(rows, []string{
				shortName(r.DAG), r.Strategy,
				Secs(m.RestoreDuration), Secs(m.CatchupTime), Secs(m.RecoveryTime),
				Secs(total),
			})
		}
	}
	title := fmt.Sprintf("Fig 5 (%s): Restore / Catchup / Recovery times (sec from migration request)", dir)
	return Table(title,
		[]string{"DAG", "Strategy", "Restore", "Catchup", "Recovery", "Total"},
		rows), nil
}

// Fig6 renders DSM's failed-and-replayed message counts for both scale
// directions (Fig. 6a/6b). DCR and CCR replay nothing by design.
func (s *Suite) Fig6() (string, error) {
	rows := make([][]string, 0, 10)
	for _, dir := range []Direction{ScaleIn, ScaleOut} {
		for _, spec := range DAGOrder() {
			r, err := s.Get(spec, core.DSM{}, dir)
			if err != nil {
				return "", err
			}
			rows = append(rows, []string{
				dir.String(), shortName(r.DAG),
				fmt.Sprint(r.Metrics.ReplayedCount),
			})
		}
	}
	return Table("Fig 6: Failed and replayed messages under DSM",
		[]string{"Direction", "DAG", "# Replayed"}, rows), nil
}

// Fig7 renders the input/output throughput timelines during the scale-in
// of Grid for each strategy (Fig. 7a–c).
func (s *Suite) Fig7() (string, error) {
	var b strings.Builder
	b.WriteString("== Fig 7: Grid scale-in throughput timelines ==\n")
	for _, strat := range core.All() {
		r, err := s.Get(dataflows.Grid(), strat, ScaleIn)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n--- %s ---\n", strat.Name())
		b.WriteString(Series("input rate (ev/s)", r.Input, r.RequestOffset, 20*time.Second))
		b.WriteString(Series("output rate (ev/s)", r.Output, r.RequestOffset, 20*time.Second))
	}
	return b.String(), nil
}

// Fig8 renders the rate stabilization times for both directions
// (Fig. 8a/8b).
func (s *Suite) Fig8() (string, error) {
	rows := make([][]string, 0, 30)
	for _, dir := range []Direction{ScaleIn, ScaleOut} {
		for _, spec := range DAGOrder() {
			for _, strat := range core.All() {
				r, err := s.Get(spec, strat, dir)
				if err != nil {
					return "", err
				}
				rows = append(rows, []string{
					dir.String(), shortName(r.DAG), r.Strategy,
					Secs(r.Metrics.StabilizationTime),
				})
			}
		}
	}
	return Table("Fig 8: Rate stabilization time (sec from migration request)",
		[]string{"Direction", "DAG", "Strategy", "Stabilization"}, rows), nil
}

// Fig9 renders the moving-average latency timeline for the scale-in of
// Grid under each strategy, with the stable median latency (Fig. 9).
func (s *Suite) Fig9() (string, error) {
	var b strings.Builder
	b.WriteString("== Fig 9: Grid scale-in latency timeline (10 s moving average, ms) ==\n")
	for _, strat := range core.All() {
		r, err := s.Get(dataflows.Grid(), strat, ScaleIn)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n--- %s (stable median %.0f ms) ---\n",
			strat.Name(), float64(r.Metrics.StableLatency.Milliseconds()))
		b.WriteString(Series("latency (ms)", r.Latency, r.RequestOffset, 20*time.Second))
	}
	return b.String(), nil
}

// M1DrainTimes reproduces the §5.1 drain-time analysis: DCR's drain is
// proportional to the critical path, CCR's to the slowest local queue;
// the gap widens with DAG depth (Linear-50).
func (s *Suite) M1DrainTimes() (string, error) {
	type cell struct {
		spec dataflows.Spec
		dir  Direction
	}
	cells := []cell{
		{dataflows.Grid(), ScaleIn},
		{dataflows.Grid(), ScaleOut},
		{dataflows.Linear(), ScaleIn},
	}
	rows := make([][]string, 0, len(cells)+1)
	for _, c := range cells {
		dcr, err := s.Get(c.spec, core.DCR{}, c.dir)
		if err != nil {
			return "", err
		}
		ccr, err := s.Get(c.spec, core.CCR{}, c.dir)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			shortName(c.spec.Topology.Name()), c.dir.String(),
			fmt.Sprint(c.spec.Topology.CriticalPathLen()),
			fmt.Sprintf("%d", dcr.Metrics.DrainDuration.Milliseconds()),
			fmt.Sprintf("%d", ccr.Metrics.DrainDuration.Milliseconds()),
			fmt.Sprintf("%d", (dcr.Metrics.DrainDuration - ccr.Metrics.DrainDuration).Milliseconds()),
		})
	}
	// Linear-50: drain only; stop right after the migration enacts.
	run := s.Run
	run.StopAfterMigrate = true
	l50 := dataflows.LinearN(50)
	dcr50, err := Run(context.Background(), Scenario{Spec: l50, Strategy: core.DCR{}, Direction: ScaleIn, Run: run})
	if err != nil {
		return "", err
	}
	ccr50, err := Run(context.Background(), Scenario{Spec: l50, Strategy: core.CCR{}, Direction: ScaleIn, Run: run})
	if err != nil {
		return "", err
	}
	rows = append(rows, []string{
		"Linear-50", ScaleIn.String(),
		fmt.Sprint(l50.Topology.CriticalPathLen()),
		fmt.Sprintf("%d", dcr50.Metrics.DrainDuration.Milliseconds()),
		fmt.Sprintf("%d", ccr50.Metrics.DrainDuration.Milliseconds()),
		fmt.Sprintf("%d", (dcr50.Metrics.DrainDuration - ccr50.Metrics.DrainDuration).Milliseconds()),
	})
	return Table("M1: Drain/capture duration (ms) — DCR vs CCR",
		[]string{"DAG", "Direction", "CritPath", "DCR drain", "CCR capture", "Delta"}, rows), nil
}

// M2StoreCheckpoint reproduces the Redis micro-benchmark: persisting 2000
// captured events (~50 B each) in one batched write costs ≈100 ms. The
// measurement runs in real time (scale 1) — at heavy compression the OS
// timer's oversleep would dominate a 100 ms interval.
func M2StoreCheckpoint() string {
	clock := timex.NewScaled(1)
	server := statestore.NewServer()
	client := statestore.NewClient(server, clock, statestore.DefaultLatency())
	payload := make([]byte, 2000*50)
	t0 := clock.Now()
	client.Set("bench/capture", payload)
	elapsed := clock.Since(t0)
	return fmt.Sprintf("M2: checkpointing 2000 events (%d B) to the store took %v (paper: ≈100 ms)\n",
		len(payload), elapsed.Round(time.Millisecond))
}

// M3RebalanceDurations aggregates the rebalance command runtimes across
// the matrix (the paper reports a near-constant ~7.26 s).
func (s *Suite) M3RebalanceDurations() (string, error) {
	var ds []float64
	for _, dir := range []Direction{ScaleIn, ScaleOut} {
		for _, spec := range DAGOrder() {
			for _, strat := range core.All() {
				r, err := s.Get(spec, strat, dir)
				if err != nil {
					return "", err
				}
				ds = append(ds, r.Metrics.RebalanceDuration.Seconds())
			}
		}
	}
	sort.Float64s(ds)
	sum := 0.0
	for _, d := range ds {
		sum += d
	}
	mean := sum / float64(len(ds))
	return fmt.Sprintf("M3: rebalance duration across %d runs: mean %.2f s, min %.2f s, max %.2f s (paper: ~7.26 s, near-constant)\n",
		len(ds), mean, ds[0], ds[len(ds)-1]), nil
}

// A1AckingOverhead compares steady-state operation with always-on acking
// (DSM provisioning) against checkpoint-only reliability (DCR
// provisioning): the §2 motivation that always-on fault tolerance is
// punitive when only migrations need it.
func (s *Suite) A1AckingOverhead() (string, error) {
	run := s.Run
	run.NoMigration = true
	run.PostHorizon = 120 * time.Second
	spec := dataflows.Linear()
	type outcome struct {
		name   string
		r      *Result
		ackOps uint64
		lat    time.Duration
	}
	var outs []outcome
	for _, strat := range []core.Strategy{core.DSM{}, core.DCR{}} {
		r, err := Run(context.Background(), Scenario{Spec: spec, Strategy: strat, Direction: ScaleIn, Run: run})
		if err != nil {
			return "", err
		}
		outs = append(outs, outcome{name: strat.Name(), r: r, lat: r.Metrics.StableLatency})
	}
	rows := make([][]string, 0, 2)
	for _, o := range outs {
		rows = append(rows, []string{
			o.name,
			fmt.Sprint(o.r.Metrics.EmittedRoots),
			fmt.Sprint(o.r.Metrics.SinkEvents),
			fmt.Sprintf("%d", o.lat.Milliseconds()),
			fmt.Sprint(o.r.Store.Ops),
		})
	}
	return Table("A1: Steady-state overhead — always-on acking+periodic checkpoint (DSM) vs none (DCR/CCR)",
		[]string{"Provisioning", "Roots emitted", "Sink events", "Median latency (ms)", "Store ops"}, rows), nil
}

// A2InitDelivery isolates CCR's broadcast INIT advantage by comparing
// standard CCR against the CCR-seqinit ablation on the Grid scale-in.
func (s *Suite) A2InitDelivery() (string, error) {
	spec := dataflows.Grid()
	rows := make([][]string, 0, 2)
	for _, strat := range []core.Strategy{core.CCR{}, core.CCRSeqInit{}} {
		run := s.Run
		run.Seed = s.Run.Seed + 99
		r, err := Run(context.Background(), Scenario{Spec: spec, Strategy: strat, Direction: ScaleIn, Run: run})
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			strat.Name(),
			Secs(r.Metrics.RestoreDuration),
			Secs(r.Metrics.CatchupTime),
			Secs(r.Metrics.StabilizationTime),
		})
	}
	return Table("A2: INIT delivery ablation on Grid scale-in (sec)",
		[]string{"Variant", "Restore", "Catchup", "Stabilization"}, rows), nil
}

// A3CheckpointFreshness compares state rollback (staleness) across
// strategies: DSM restores a periodic snapshot up to 30 s old, DCR/CCR
// checkpoint just in time.
func (s *Suite) A3CheckpointFreshness() (string, error) {
	rows := make([][]string, 0, 3)
	for _, strat := range core.All() {
		r, err := s.Get(dataflows.Grid(), strat, ScaleIn)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			strat.Name(),
			fmt.Sprint(r.Staleness),
			fmt.Sprint(r.Store.Ops),
			fmt.Sprint(r.Store.BytesWritten),
		})
	}
	return Table("A3: State freshness on Grid scale-in — events rolled back by restore (JIT vs periodic checkpoint)",
		[]string{"Strategy", "Staleness (events)", "Store ops", "Store bytes written"}, rows), nil
}

// ReliabilityReport summarizes the §1 guarantees over the whole matrix:
// zero loss everywhere, zero replay and duplicates for DCR/CCR, strict
// boundary for DCR.
func (s *Suite) ReliabilityReport() (string, error) {
	rows := make([][]string, 0, 30)
	for _, dir := range []Direction{ScaleIn, ScaleOut} {
		for _, spec := range DAGOrder() {
			for _, strat := range core.All() {
				r, err := s.Get(spec, strat, dir)
				if err != nil {
					return "", err
				}
				rows = append(rows, []string{
					dir.String(), shortName(r.DAG), r.Strategy,
					fmt.Sprint(r.LostCount),
					fmt.Sprint(r.Metrics.ReplayedCount),
					fmt.Sprint(r.DuplicateCount),
					fmt.Sprint(r.BoundaryViolations),
					errString(r.MigrationErr),
				})
			}
		}
	}
	return Table("Reliability: loss / replay / duplicates / old-new interleaving",
		[]string{"Direction", "DAG", "Strategy", "Lost", "Replayed", "Duplicated", "Boundary viol.", "Error"}, rows), nil
}

func errString(err error) string {
	if err == nil {
		return "-"
	}
	return err.Error()
}
