package chaos

import (
	"context"
	"flag"
	"testing"
	"time"
)

// chaosSeed pins the whole matrix: topology shapes, key sequences, rate
// schedules, jitter draws and partition windows all derive from it. A
// failing cell prints the replay command carrying this seed.
var chaosSeed = flag.Int64("chaos.seed", 1, "seed for the chaos matrix scenarios")

// TestChaosMatrix drives the full phase×strategy crash matrix: every
// cell submits a generated adversarial scenario, enacts a live
// migration with an executor crashed at exactly the cell's phase, then
// audits zero loss, zero duplicates, and per-migration generation
// counts summing to the emit total. Under -short each cell runs one
// migration at a relaxed time scale (the -race CI shape); otherwise
// cells run the out-then-in double migration.
func TestChaosMatrix(t *testing.T) {
	seed := *chaosSeed
	o := Options{TimeScale: 0.05, Migrations: 1}
	if !testing.Short() {
		o = Options{TimeScale: 0.02, Migrations: 2}
	}
	for _, cell := range Matrix(seed) {
		cell := cell
		t.Run(cell.ID(), func(t *testing.T) {
			// Wall-clock guard: a wedged drain or lost control token must
			// fail the cell, not hang the suite (satellite: CrashExecutor
			// can never deadlock the control plane).
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			res := RunCell(ctx, cell, o)
			if res.Err != nil {
				t.Fatalf("cell %s: %v\n  emitted=%d arrived=%d lost=%d dups=%d boundary=%d victims=%v\n  replay: go test ./internal/chaos -run 'TestChaosMatrix' -chaos.seed=%d",
					cell.ID(), res.Err, res.Emitted, res.Arrived, res.Lost,
					res.Duplicates, res.Boundary, res.Victims, seed)
			}
			if cell.Phase != "" && len(res.Victims) == 0 {
				t.Fatalf("cell %s: crash was never injected", cell.ID())
			}
		})
	}
}

// TestMatrixShape pins the matrix's physics: DSM cells never carry
// partitions and only chain scenarios; DCR/CCR crash cells only at
// quiesced phases; every strategy appears with a crash-free cell.
func TestMatrixShape(t *testing.T) {
	cells := Matrix(7)
	if len(cells) != 13 {
		t.Fatalf("matrix has %d cells, want 13", len(cells))
	}
	steady := map[string]bool{}
	batch := false
	for _, c := range cells {
		name := c.Strategy.Name()
		if c.Phase == "" {
			steady[name] = true
		}
		if name == "DSM" {
			if len(c.Scenario.Partitions) != 0 {
				t.Fatalf("%s: DSM cell carries a partition", c.ID())
			}
			if c.Phase == "drain-end" {
				t.Fatalf("%s: DSM never drains", c.ID())
			}
		} else if c.Phase == "requested" {
			t.Fatalf("%s: JIT strategies cannot crash pre-checkpoint", c.ID())
		}
		if len(c.Scenario.Partitions) != 0 && c.Phase != "" {
			t.Fatalf("%s: partition scenario on a crash cell", c.ID())
		}
		if c.Scenario.BatchSize > 1 {
			if c.Phase == "" {
				t.Fatalf("%s: batch-boundary scenario must be a crash cell", c.ID())
			}
			// Ack-clocked batching stages a link's events behind its
			// in-flight batch for that batch's wire time: only a wire
			// time well above a LAN hop keeps whole batches in flight.
			if c.Scenario.Jitter <= time.Millisecond {
				t.Fatalf("%s: batch scenario jitter %v too small to keep batches in flight",
					c.ID(), c.Scenario.Jitter)
			}
			batch = true
		}
	}
	if !batch {
		t.Fatal("matrix has no batch-boundary crash cell")
	}
	for _, s := range []string{"DSM", "DCR", "CCR"} {
		if !steady[s] {
			t.Fatalf("no crash-free cell for %s", s)
		}
	}
	// Derived seeds differ per cell, and the matrix is deterministic.
	a, b := Matrix(7), Matrix(7)
	for i := range a {
		if a[i].Scenario.Seed != b[i].Scenario.Seed || a[i].ID() != b[i].ID() {
			t.Fatalf("matrix not deterministic at cell %d", i)
		}
		for j := i + 1; j < len(a); j++ {
			if a[i].Scenario.Seed == a[j].Scenario.Seed {
				t.Fatalf("cells %d and %d share scenario seed", i, j)
			}
		}
	}
}
