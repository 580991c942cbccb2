package repro

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestFacadeTopologyBuilding exercises the public topology surface.
func TestFacadeTopologyBuilding(t *testing.T) {
	b := NewTopology("facade")
	b.AddSource("Src", 1)
	b.AddTask("A", 2, true)
	b.AddSink("Sink", 1)
	b.Connect("Src", "A", Shuffle)
	b.Connect("A", "Sink", Shuffle)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if topo.TotalInstances() != 4 {
		t.Fatalf("TotalInstances = %d", topo.TotalInstances())
	}
}

// TestFacadeBenchmarkDAGs checks the re-exported DAG constructors.
func TestFacadeBenchmarkDAGs(t *testing.T) {
	if Grid().Instances != 21 || Linear().Instances != 5 {
		t.Fatal("benchmark DAG re-exports broken")
	}
	if _, err := DAGByName("traffic"); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeClusterAndScheduler exercises cluster and placement.
func TestFacadeClusterAndScheduler(t *testing.T) {
	c := NewCluster()
	c.Provision(D2, 3, NewManualClock().Now())
	sched, err := (RoundRobin{}).Place(Linear().Topology.Instances(), c.UnpinnedSlots())
	if err == nil {
		_ = sched
		t.Fatal("expected overcommit error placing 7 instances on 6 slots")
	}
}

// TestFacadeStrategies checks the strategy registry.
func TestFacadeStrategies(t *testing.T) {
	if len(AllStrategies()) != 3 {
		t.Fatal("AllStrategies")
	}
	s, err := StrategyByName("CCR")
	if err != nil || s.Mode() != ModeCCR {
		t.Fatalf("StrategyByName: %v %v", s, err)
	}
	if (DSM{}).Name() != "DSM" || (DCR{}).Name() != "DCR" || (CCRSeqInit{}).Name() == "" {
		t.Fatal("strategy names")
	}
}

// TestFacadeEndToEnd runs a tiny scenario through the public API only.
func TestFacadeEndToEnd(t *testing.T) {
	res, err := RunScenario(context.Background(), Scenario{
		Spec:      Linear(),
		Strategy:  CCR{},
		Direction: ScaleIn,
		Run: RunConfig{
			TimeScale:    0.01,
			PreMigration: 40 * time.Second,
			PostHorizon:  300 * time.Second,
			Seed:         11,
		},
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.MigrationErr != nil {
		t.Fatalf("migration: %v", res.MigrationErr)
	}
	if res.LostCount != 0 || res.Metrics.ReplayedCount != 0 {
		t.Fatalf("CCR reliability: %+v", res.Metrics)
	}
	if res.Metrics.RestoreDuration <= 0 {
		t.Fatalf("restore: %v", res.Metrics.RestoreDuration)
	}
}

// TestFacadeTable1 sanity-checks the Table 1 renderer.
func TestFacadeTable1(t *testing.T) {
	if out := Table1(); !strings.Contains(out, "Grid") {
		t.Fatalf("Table1 output:\n%s", out)
	}
}

// TestFacadeDefaults checks config re-exports.
func TestFacadeDefaults(t *testing.T) {
	cfg := DefaultConfig(ModeDSM)
	if cfg.AckTimeout != 30*time.Second || !cfg.AckDataEvents() {
		t.Fatalf("DSM defaults: %+v", cfg)
	}
	if DefaultConfig(ModeCCR).AckDataEvents() {
		t.Fatal("CCR should not ack data events")
	}
	rc := DefaultRunConfig()
	if rc.TimeScale <= 0 {
		t.Fatal("DefaultRunConfig")
	}
}
