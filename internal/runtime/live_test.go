package runtime

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflows"
	"repro/internal/statestore"
	"repro/internal/tuple"
)

// injected counts a hand-made data event into the engine's live count,
// as the source pop and the router count real ones, so that the exit the
// engine takes for it (processing, arrival, parking or discard) leaves
// the count balanced instead of negative.
func injected(e *Engine, ev *tuple.Event) *tuple.Event {
	e.enter(1)
	return ev
}

// zeroDelayConfig is testConfig with every modelled delay zeroed, so the
// engine runs as fast as the host lets it.
func zeroDelayConfig(mode Mode) Config {
	cfg := testConfig(mode)
	cfg.TaskLatency = 0
	cfg.Network = cluster.NetworkModel{}
	cfg.StoreLatency = statestore.LatencyModel{}
	cfg.RebalanceCmdTime = 0
	cfg.WorkerBaseDelay, cfg.WorkerStagger, cfg.WorkerJitter = 0, 0, 0
	cfg.SourceBurstRate = 1e9
	return cfg
}

// TestRootGenerationFollowsPause pins the generation stamp to the source
// pause. A migration pauses the sources before it opens generation g,
// and a source stamps a root in the critical section that pops it, so
// every root stamped g is emitted after the g-th unpause. A root stamped
// after its pop could be in hand across the pause, take g, and run ahead
// of the older roots the drain is still moving.
//
// A preempted emitter opens that window only now and then. The test
// opens it every cycle: it holds the replay-cache lock, which the emitter
// takes for flow control between the pop and the emission, across the
// pause and the request.
func TestRootGenerationFollowsPause(t *testing.T) {
	cfg := zeroDelayConfig(ModeDSM)
	cfg.SourceRate = 20000
	cfg.MaxSpoutPending = 1 << 30 // flow control checks the cache, never holds
	h := newHarnessCfg(t, dataflows.Linear().Topology, cfg)
	h.eng.Start()
	defer h.eng.Stop()
	waitUntil(t, 10*time.Second, "flow", func() bool {
		return h.eng.Audit().SinkArrivals() >= 1000
	})
	src := h.eng.sources[0]

	const cycles = 200
	unpaused := make([]time.Time, cycles+1) // unpaused[g]: just before the g-th unpause
	for g := 1; g <= cycles; g++ {
		src.cacheMu.Lock()
		time.Sleep(100 * time.Microsecond) // the emitter pops a root and waits
		h.eng.PauseSources()
		h.eng.OnMigrationRequested()
		src.cacheMu.Unlock()
		time.Sleep(200 * time.Microsecond)
		unpaused[g] = h.eng.clock.Now()
		h.eng.UnpauseSources()
		time.Sleep(time.Millisecond)
	}
	h.eng.Stop()

	a := h.eng.Audit()
	a.mu.Lock()
	defer a.mu.Unlock()
	early, stamped := 0, 0
	for seq, rec := range a.emitted {
		if rec.gen == 0 {
			continue
		}
		stamped++
		if rec.at.Before(unpaused[rec.gen]) {
			if early == 0 {
				t.Errorf("payload %d stamped generation %d emitted %v before its unpause", seq, rec.gen, unpaused[rec.gen].Sub(rec.at))
			}
			early++
		}
	}
	if early > 0 {
		t.Fatalf("%d of %d roots stamped g >= 1 were emitted before the g-th unpause", early, stamped)
	}
	if stamped == 0 {
		t.Fatal("no root was emitted after the first unpause")
	}
}
