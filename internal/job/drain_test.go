package job

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflows"
	"repro/internal/runtime"
	"repro/internal/statestore"
	"repro/internal/timex"
)

// submitZeroDelay deploys spec on the wall clock with every modelled
// delay zeroed, so a drain waits only on the engine's own work.
func submitZeroDelay(t *testing.T, spec dataflows.Spec, mode runtime.Mode, rate float64) *Job {
	t.Helper()
	j, err := Submit(context.Background(), spec,
		WithClock(timex.NewReal()), WithMode(mode), WithSeed(5), WithSourceRate(rate),
		WithConfigOverrides(func(c *runtime.Config) {
			c.TaskLatency = 0
			c.Network = cluster.NetworkModel{}
			c.StoreLatency = statestore.LatencyModel{}
			c.RebalanceCmdTime = 0
			c.WorkerBaseDelay, c.WorkerStagger, c.WorkerJitter = 0, 0, 0
			c.SourceBurstRate = 1e9
		}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	t.Cleanup(j.Stop)
	if err := j.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return j
}

// TestDrainIsExact drains a running dataflow again and again and checks
// that each Drain returns only once nothing is in flight: every emitted
// payload has reached the sink and the live count is exactly zero (a
// negative one would mean an event exited twice). A Stop while a Drain
// is blocked makes the Drain return ErrStopped.
//
// A root a source has popped but not yet counted lets a drain return
// with it still to emit; that window is a few hundred nanoseconds wide,
// so the test drains often, at staggered instants in the emit period.
func TestDrainIsExact(t *testing.T) {
	const rate, cycles = 20000, 200
	for _, dag := range []dataflows.Spec{dataflows.Linear(), dataflows.Grid()} {
		for _, mode := range []runtime.Mode{runtime.ModeCCR, runtime.ModeDSM} {
			t.Run(fmt.Sprintf("%s/%s", dag.Topology.Name(), mode), func(t *testing.T) {
				j := submitZeroDelay(t, dag, mode, rate)
				eng := j.Engine()
				for c := 0; c < cycles; c++ {
					time.Sleep(time.Duration(c%4+1) * 500 * time.Microsecond)
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
					err := j.Drain(ctx)
					cancel()
					if err != nil {
						t.Fatalf("cycle %d: Drain: %v (live %d, pending respawns %d)",
							c, err, eng.LiveEvents(), eng.PendingRespawns())
					}
					if lost := eng.Audit().Lost(j.Clock().Now()); len(lost) != 0 {
						t.Fatalf("cycle %d: %d payloads not at a sink after Drain", c, len(lost))
					}
					if n := eng.LiveEvents(); n != 0 {
						t.Fatalf("cycle %d: %d events live after Drain", c, n)
					}
					if err := j.Resume(); err != nil {
						t.Fatalf("cycle %d: Resume: %v", c, err)
					}
				}
				if eng.Audit().EmittedCount() == 0 {
					t.Fatal("no payload emitted")
				}
			})
		}
	}

	t.Run("stop unblocks drain", func(t *testing.T) {
		j := submitZeroDelay(t, dataflows.Linear(), runtime.ModeCCR, rate)
		// Arrivals wait in the paused sinks' queues, so the drain cannot
		// finish.
		j.Engine().PauseSinks()
		time.Sleep(5 * time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- j.Drain(context.Background()) }()
		select {
		case err := <-done:
			t.Fatalf("Drain returned %v with events held at the sinks", err)
		case <-time.After(50 * time.Millisecond):
		}
		j.Stop()
		select {
		case err := <-done:
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("Drain blocked across Stop returned %v, want ErrStopped", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Drain still blocked after Stop")
		}
	})
}
