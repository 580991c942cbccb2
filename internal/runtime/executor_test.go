package runtime

import (
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// TestProcessServesFromDeliveryInstant pins the executor's service
// accounting: a backlog its goroutine reaches late (descheduled by the
// host) is served back to back from the instant the fabric delivered it,
// so the lag is not charged as service time; work held back until a
// release (INIT, rollback) starts at the release instead.
func TestProcessServesFromDeliveryInstant(t *testing.T) {
	h := newHarness(t, linear3(), ModeCCR)
	eng := h.eng
	lat := eng.cfg.TaskLatency
	ex := newExecutor(eng, topology.Instance{Task: "T1"}, true)
	data := func(seq int64, deliverAt time.Time) *tuple.Event {
		return injected(eng, &tuple.Event{
			ID: tuple.ID(seq), Root: tuple.ID(seq), Kind: tuple.Data,
			Value: workload.Payload{Seq: seq}, DeliverAt: deliverAt,
		})
	}

	delivered := eng.clock.Now()
	time.Sleep(20 * lat) // the goroutine gets to its backlog late
	for seq := int64(1); seq <= 3; seq++ {
		ex.process(data(seq, delivered))
	}
	if want := delivered.Add(3 * lat); !ex.busyUntil.Equal(want) {
		t.Fatalf("backlog served until %v after delivery, want %v (3 x task latency)",
			ex.busyUntil.Sub(delivered), want.Sub(delivered))
	}

	released := eng.clock.Now()
	ex.occupyUntilNow()
	ex.process(data(4, delivered))
	if ex.busyUntil.Before(released.Add(lat)) {
		t.Fatalf("held event finished %v after its release, want >= %v",
			ex.busyUntil.Sub(released), lat)
	}
}
