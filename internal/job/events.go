package job

import (
	"fmt"
	"time"

	"repro/internal/runtime"
	"repro/internal/topology"
)

// EventKind classifies a Job lifecycle or control-plane transition.
type EventKind int

// The event taxonomy. Every transition a consumer can react to is
// published on the Events stream; migration enactments additionally
// publish one EventMigrationPhase per engine phase (requested, drain-end,
// rebalance-start, rebalance-end).
const (
	// EventStarted: the dataflow's executors and sources are launching.
	EventStarted EventKind = iota + 1
	// EventMigrationBegun: a Migrate/Scale enactment acquired control and
	// is running. Strategy and (for Scale) Direction are set.
	EventMigrationBegun
	// EventMigrationPhase: the engine crossed a migration phase boundary;
	// Phase carries which one.
	EventMigrationPhase
	// EventMigrationDone: the enactment completed; the dataflow runs on
	// the new schedule.
	EventMigrationDone
	// EventMigrationFailed: the enactment returned an error (Err); the
	// dataflow's placement depends on the failed phase (a failed
	// checkpoint rolls back to the old fleet).
	EventMigrationFailed
	// EventMigrationCanceled: the caller's context was canceled while the
	// enactment was in flight. The strategy unwinds in the background and
	// a terminal Done/Failed event (Detail "completed after cancellation")
	// follows when it does.
	EventMigrationCanceled
	// EventFleetReleaseFailed: a Scale migration succeeded but retiring
	// one of the old fleet's VMs failed (Err); the dataflow is healthy on
	// the new fleet, the stale VM keeps billing until released manually.
	EventFleetReleaseFailed
	// EventCheckpointDone: an out-of-band Checkpoint completed (Err set on
	// failure).
	EventCheckpointDone
	// EventRateChanged: SetSourceRate changed the per-source rate to Rate.
	EventRateChanged
	// EventExecutorCrashed: fault injection killed Instance's executor.
	EventExecutorCrashed
	// EventExecutorRestarted: Instance's executor was respawned.
	EventExecutorRestarted
	// EventDrained: Drain quiesced the dataflow (sources paused, queues
	// empty, sink idle).
	EventDrained
	// EventDrainCanceled: a Drain was aborted by context cancellation and
	// the sources resumed.
	EventDrainCanceled
	// EventResumed: Resume unpaused a drained dataflow.
	EventResumed
	// EventStopped: the job is stopped; this is the final event before the
	// stream closes.
	EventStopped
	// EventFailureDetected: the supervisor's failure detector declared
	// Instance dead (heartbeats stopped without a planned respawn).
	EventFailureDetected
	// EventRestoring: the supervisor is respawning Instance and driving a
	// checkpoint-restore wave for it.
	EventRestoring
	// EventRecovered: Instance is live and initialized again; MTTR
	// carries the detection→recovered latency.
	EventRecovered
	// EventDegraded: restore kept failing for Instance and the supervisor
	// fell back to replay-only (empty-state) initialization; Err carries
	// the terminal restore error.
	EventDegraded
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventStarted:
		return "started"
	case EventMigrationBegun:
		return "migration-begun"
	case EventMigrationPhase:
		return "migration-phase"
	case EventMigrationDone:
		return "migration-done"
	case EventMigrationFailed:
		return "migration-failed"
	case EventMigrationCanceled:
		return "migration-canceled"
	case EventFleetReleaseFailed:
		return "fleet-release-failed"
	case EventCheckpointDone:
		return "checkpoint-done"
	case EventRateChanged:
		return "rate-changed"
	case EventExecutorCrashed:
		return "executor-crashed"
	case EventExecutorRestarted:
		return "executor-restarted"
	case EventDrained:
		return "drained"
	case EventDrainCanceled:
		return "drain-canceled"
	case EventResumed:
		return "resumed"
	case EventStopped:
		return "stopped"
	case EventFailureDetected:
		return "failure-detected"
	case EventRestoring:
		return "restoring"
	case EventRecovered:
		return "recovered"
	case EventDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one typed transition on a Job's event stream.
type Event struct {
	// Kind classifies the transition.
	Kind EventKind
	// Time is the paper-time instant the event was published.
	Time time.Time
	// Strategy names the enacting strategy on migration events.
	Strategy string
	// Phase carries the engine phase on EventMigrationPhase.
	Phase runtime.MigrationPhase
	// Direction is set on Scale-initiated migration events.
	Direction Direction
	// Instance is set on executor crash/restart events.
	Instance topology.Instance
	// Rate is the new per-source rate on EventRateChanged.
	Rate float64
	// MTTR is the detection→recovered latency on EventRecovered.
	MTTR time.Duration
	// Detail carries free-form context (e.g. "completed after
	// cancellation" on a terminal event following a cancel).
	Detail string
	// Err is set on failed or canceled transitions.
	Err error
}

// String implements fmt.Stringer.
func (ev Event) String() string {
	s := ev.Kind.String()
	switch {
	case ev.Kind == EventMigrationPhase:
		s += ": " + string(ev.Phase)
	case ev.Strategy != "":
		s += ": " + ev.Strategy
	case ev.Kind == EventRateChanged:
		s += fmt.Sprintf(": %.3g ev/s", ev.Rate)
	case ev.Kind == EventExecutorCrashed || ev.Kind == EventExecutorRestarted,
		ev.Kind == EventFailureDetected, ev.Kind == EventRestoring,
		ev.Kind == EventRecovered, ev.Kind == EventDegraded:
		s += ": " + ev.Instance.String()
		if ev.Kind == EventRecovered {
			s += fmt.Sprintf(" (mttr %v)", ev.MTTR.Round(time.Millisecond))
		}
	}
	if ev.Err != nil {
		s += " (" + ev.Err.Error() + ")"
	}
	return s
}

// eventBuffer is the per-subscriber buffer of the Events stream: room for
// several operations' worth of transitions, so a subscriber that reads
// between operations misses nothing. Events beyond a full buffer are
// dropped, not blocked on.
const eventBuffer = 64

// Events returns a fresh subscription to the job's event stream. Each
// call registers an independent buffered channel (eventBuffer events)
// that receives every event published from now on; the channel closes
// when the job stops. A slow consumer does not block the job — events
// that would block are dropped and counted in Status().EventsDropped.
// Calling Events on a stopped job returns a closed channel.
func (j *Job) Events() <-chan Event {
	j.subMu.Lock()
	defer j.subMu.Unlock()
	ch := make(chan Event, eventBuffer)
	if j.subsClosed {
		close(ch)
		return ch
	}
	j.subs = append(j.subs, ch)
	return ch
}

// emit publishes ev to every subscriber without blocking.
func (j *Job) emit(ev Event) {
	ev.Time = j.clock.Now()
	j.subMu.Lock()
	defer j.subMu.Unlock()
	if j.subsClosed {
		return
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			j.dropped.Add(1)
		}
	}
}

// closeSubs closes every subscription channel; emit becomes a no-op.
func (j *Job) closeSubs() {
	j.subMu.Lock()
	defer j.subMu.Unlock()
	j.subsClosed = true
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}
