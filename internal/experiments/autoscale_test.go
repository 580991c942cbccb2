package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/dataflows"
)

// TestRunAutoscaleDiamondCCR drives one cell of the comparison matrix:
// under the default ramp the utilization-band loop must spread during
// the hot phase, consolidate off-peak, and lose nothing along the way.
func TestRunAutoscaleDiamondCCR(t *testing.T) {
	if testing.Short() {
		t.Skip("two live migrations under 250x clock compression; wall-time sensitive (fails under -race slowdown)")
	}
	r, err := RunAutoscale(context.Background(), AutoscaleScenario{
		Spec:      dataflows.Diamond(),
		Strategy:  core.CCR{},
		Policy:    autoscale.DefaultUtilizationBand(),
		TimeScale: 0.004,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ScaleOuts != 1 || r.ScaleIns != 1 {
		t.Errorf("enactments: out=%d in=%d, want 1/1", r.ScaleOuts, r.ScaleIns)
	}
	if r.FailedEnactments != 0 {
		t.Errorf("failed enactments: %d", r.FailedEnactments)
	}
	if r.Lost != 0 || r.Duplicates != 0 || r.Replayed != 0 {
		t.Errorf("reliability: lost=%d dup=%d replayed=%d, want all zero",
			r.Lost, r.Duplicates, r.Replayed)
	}
	if r.FinalFleet != "2 x D3" {
		t.Errorf("final fleet %q, want consolidated 2 x D3", r.FinalFleet)
	}
	if r.MeanEnactment <= 0 {
		t.Error("mean enactment duration not recorded")
	}
	if r.Decisions == 0 || r.Holds >= r.Decisions {
		t.Errorf("decision accounting off: decisions=%d holds=%d", r.Decisions, r.Holds)
	}
}

// TestRunAutoscaleQueuePolicyDCR covers a second policy x strategy cell:
// the backpressure policy reads queue depth, not the demand model, and
// must reach the same end state reliably over DCR.
func TestRunAutoscaleQueuePolicyDCR(t *testing.T) {
	if testing.Short() {
		t.Skip("two live migrations under 250x clock compression; wall-time sensitive (fails under -race slowdown)")
	}
	r, err := RunAutoscale(context.Background(), AutoscaleScenario{
		Spec:      dataflows.Diamond(),
		Strategy:  core.DCR{},
		Policy:    autoscale.DefaultQueueBackpressure(),
		TimeScale: 0.004,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ScaleOuts != 1 || r.ScaleIns != 1 {
		t.Errorf("enactments: out=%d in=%d, want 1/1", r.ScaleOuts, r.ScaleIns)
	}
	if r.Lost != 0 || r.Duplicates != 0 {
		t.Errorf("reliability: lost=%d dup=%d, want zero", r.Lost, r.Duplicates)
	}
	if r.FinalFleet != "2 x D3" {
		t.Errorf("final fleet %q, want 2 x D3", r.FinalFleet)
	}
}

// TestAutoscaleComparisonRenders smoke-checks the figure generator on a
// sharply compressed clock (the full 12-cell matrix at default scale is
// elastic-bench territory). It must include every policy and strategy.
func TestAutoscaleComparisonRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("12-cell matrix; skipped in -short")
	}
	out, err := AutoscaleComparison(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"util-band", "queue", "latency-slo", "CCR", "DCR", "grid", "diamond"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table lacks %q:\n%s", want, out)
		}
	}
}
