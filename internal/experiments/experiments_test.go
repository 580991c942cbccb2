package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflows"
)

// fastRun compresses runs for tests: 100× speedup. Going much faster
// pushes per-instance utilization past 1.0 (sleep overhead becomes a
// visible fraction of the scaled 100 ms task latency) and destabilizes
// the dataflow — a real queueing effect, not a test artifact.
func fastRun() RunConfig {
	return RunConfig{
		TimeScale:    0.01,
		PreMigration: 45 * time.Second,
		PostHorizon:  360 * time.Second,
		Seed:         3,
	}
}

func TestRunDCRScaleInLinear(t *testing.T) {
	r, err := Run(context.Background(), Scenario{
		Spec:      dataflows.Linear(),
		Strategy:  core.DCR{},
		Direction: ScaleIn,
		Run:       fastRun(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.MigrationErr != nil {
		t.Fatalf("migration failed: %v", r.MigrationErr)
	}
	if r.LostCount != 0 {
		t.Fatalf("DCR lost %d payloads", r.LostCount)
	}
	if r.Metrics.ReplayedCount != 0 {
		t.Fatalf("DCR replayed %d", r.Metrics.ReplayedCount)
	}
	if r.BoundaryViolations != 0 {
		t.Fatalf("DCR interleaved old/new %d times", r.BoundaryViolations)
	}
	if r.Metrics.RestoreDuration <= 0 {
		t.Fatalf("restore = %v", r.Metrics.RestoreDuration)
	}
	if r.Metrics.DrainDuration <= 0 {
		t.Fatalf("drain = %v", r.Metrics.DrainDuration)
	}
	if r.Metrics.RebalanceDuration < 6*time.Second || r.Metrics.RebalanceDuration > 9*time.Second {
		t.Fatalf("rebalance duration = %v, want ≈7 s", r.Metrics.RebalanceDuration)
	}
	// Billing accounting is recorded. (With Azure's linear-in-cores
	// pricing and Table 1's constant slot count, scale-in trades VM count
	// for bigger VMs at near-equal rate; the Fig. 1 example saves money
	// because it also drops slots, which Table 1 does not.)
	if r.RateBefore <= 0 || r.RateAfter <= 0 {
		t.Fatalf("billing rates not recorded: %v -> %v", r.RateBefore, r.RateAfter)
	}
	if r.VMsBefore != 3 || r.VMsAfter != 2 {
		t.Fatalf("VMs %d→%d, want 3→2", r.VMsBefore, r.VMsAfter)
	}
}

func TestRunCCRScaleOutDiamond(t *testing.T) {
	r, err := Run(context.Background(), Scenario{
		Spec:      dataflows.Diamond(),
		Strategy:  core.CCR{},
		Direction: ScaleOut,
		Run:       fastRun(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.MigrationErr != nil {
		t.Fatalf("migration failed: %v", r.MigrationErr)
	}
	if r.LostCount != 0 || r.Metrics.ReplayedCount != 0 || r.DuplicateCount != 0 {
		t.Fatalf("CCR reliability: lost=%d replayed=%d dup=%d",
			r.LostCount, r.Metrics.ReplayedCount, r.DuplicateCount)
	}
	if r.VMsBefore != 4 || r.VMsAfter != 8 {
		t.Fatalf("VMs %d→%d, want 4→8", r.VMsBefore, r.VMsAfter)
	}
	// CCR checkpoints captured events: the store must have seen data.
	if r.Store.BytesWritten == 0 {
		t.Fatal("CCR wrote nothing to the state store")
	}
}

func TestRunDSMReplaysAndRecovers(t *testing.T) {
	run := fastRun()
	run.PostHorizon = 420 * time.Second
	r, err := Run(context.Background(), Scenario{
		Spec:      dataflows.Linear(),
		Strategy:  core.DSM{},
		Direction: ScaleIn,
		Run:       run,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.MigrationErr != nil {
		t.Fatalf("migration failed: %v", r.MigrationErr)
	}
	if r.Metrics.ReplayedCount == 0 {
		t.Fatal("DSM replayed nothing — kill should lose in-flight events")
	}
	if r.LostCount != 0 {
		t.Fatalf("DSM permanently lost %d payloads (at-least-once violated)", r.LostCount)
	}
	// DSM restores from a periodic snapshot: some state rollback expected.
	if r.Staleness == 0 {
		t.Log("note: DSM staleness was zero (periodic checkpoint landed just before kill)")
	}
}

func TestNoMigrationRun(t *testing.T) {
	run := fastRun()
	run.NoMigration = true
	run.PostHorizon = 60 * time.Second
	r, err := Run(context.Background(), Scenario{Spec: dataflows.Linear(), Strategy: core.DCR{}, Direction: ScaleIn, Run: run})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Metrics.RestoreDuration != 0 {
		t.Fatalf("no-migration run has restore duration %v", r.Metrics.RestoreDuration)
	}
	if r.Metrics.EmittedRoots == 0 || r.Metrics.SinkEvents == 0 {
		t.Fatalf("no flow: %+v", r.Metrics)
	}
}

func TestStopAfterMigrate(t *testing.T) {
	run := fastRun()
	run.StopAfterMigrate = true
	r, err := Run(context.Background(), Scenario{Spec: dataflows.Star(), Strategy: core.CCR{}, Direction: ScaleIn, Run: run})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.MigrationErr != nil {
		t.Fatalf("migration failed: %v", r.MigrationErr)
	}
	if r.Metrics.DrainDuration <= 0 {
		t.Fatalf("drain = %v", r.Metrics.DrainDuration)
	}
}

func TestSuiteMemoizes(t *testing.T) {
	s := NewSuite(fastRun())
	a, err := s.Get(dataflows.Linear(), core.DCR{}, ScaleIn)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	b, err := s.Get(dataflows.Linear(), core.DCR{}, ScaleIn)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if a != b {
		t.Fatal("Suite re-ran a cached scenario")
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Linear", "Grid", "21", "11", "6"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestM2StoreCheckpoint(t *testing.T) {
	out := M2StoreCheckpoint()
	if !strings.Contains(out, "2000 events") {
		t.Fatalf("M2 output: %s", out)
	}
}

func TestRenderHelpers(t *testing.T) {
	tbl := Table("T", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tbl, "333") || !strings.Contains(tbl, "== T ==") {
		t.Fatalf("table render:\n%s", tbl)
	}
	if Secs(0) != "-" || Secs(-time.Second) != "never" || Secs(90*time.Second) != "90" {
		t.Fatal("Secs formatting")
	}
	if !strings.Contains(Series("s", nil, 0, time.Second), "no samples") {
		t.Fatal("empty series")
	}
}

func TestDirectionString(t *testing.T) {
	if ScaleIn.String() != "scale-in" || ScaleOut.String() != "scale-out" {
		t.Fatal("direction strings")
	}
	if !strings.Contains(Direction(9).String(), "9") {
		t.Fatal("unknown direction string")
	}
}
