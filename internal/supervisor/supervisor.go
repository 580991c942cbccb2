// Package supervisor implements the self-healing loop of the runtime:
// a failure detector over executor heartbeats, an automatic
// checkpoint-restore recovery driver, and a graceful-degradation ladder
// for when restore itself keeps failing.
//
// The supervisor is deliberately decoupled from the engine through the
// narrow Runtime interface — it observes liveness, restarts corpses, and
// asks the control plane to run restore (INIT) waves, but owns no
// dataflow machinery of its own. All timing is paper time via
// timex.Clock, so detection deadlines scale with the experiment clock
// and never flake on slow wall-clock hosts.
//
// Detection. Every executor publishes a heartbeat each
// Policy.HeartbeatInterval (see internal/runtime's pulse). The monitor
// sweeps all instances at that same cadence and declares one dead when
// its last beat is older than MissedBeats consecutive intervals —
// unless the runtime reports it mid-respawn (a planned migration kill
// awaiting its staggered worker start), which is death by design, not
// failure.
//
// Recovery. A detected failure starts a per-instance recovery loop:
// respawn the corpse, then drive a restore wave so the stateful
// executor re-initializes from the last completed checkpoint. Under DSM
// lost in-flight data is replayed by the source's ack-timeout
// machinery. Under DCR/CCR nothing is acked, so data delivered to the
// crashed instance before detection is dropped and stays lost (ROADMAP
// item 2a).
// A restore attempt that finds the control plane busy (a migration or
// another recovery holds the token) is not a failure — the in-flight
// enactment's own INIT wave heals the fresh executor, and the loop just
// rechecks after RetryInterval.
//
// Degradation. After MaxRestoreFailures failed restore waves the loop
// stops insisting on checkpoint state: it force-initializes the
// executor empty (DSM-style replay-only recovery — ack timeouts rebuild
// the stream, operator state restarts from zero) and marks the incident
// Degraded; Health reports it until the supervisor stops.
package supervisor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/timex"
	"repro/internal/topology"
)

// Control-plane verdicts a Runtime's RestoreWave reports back.
var (
	// ErrControlBusy means another enactment holds the control token;
	// the attempt is not counted as a failure.
	ErrControlBusy = errors.New("supervisor: control plane busy")
	// ErrHalted means the job is stopping; recovery is abandoned.
	ErrHalted = errors.New("supervisor: job halted")
)

// Policy tunes the detector and recovery loops. All durations are
// paper time. The zero value means "use the default" field-wise.
type Policy struct {
	// HeartbeatInterval is both the executor pulse period and the
	// monitor sweep cadence (default 2s).
	HeartbeatInterval time.Duration
	// MissedBeats is how many consecutive silent intervals mark an
	// instance dead (default 3).
	MissedBeats int
	// RestoreTimeout bounds each restore (INIT) wave attempt
	// (default 60s).
	RestoreTimeout time.Duration
	// RetryInterval paces the recovery loop between attempts
	// (default 2s).
	RetryInterval time.Duration
	// MaxRestoreFailures is how many failed restore waves trigger the
	// replay-only degradation fallback (default 3).
	MaxRestoreFailures int
}

// DefaultPolicy returns the stock supervision policy.
func DefaultPolicy() Policy {
	return Policy{
		HeartbeatInterval:  2 * time.Second,
		MissedBeats:        3,
		RestoreTimeout:     60 * time.Second,
		RetryInterval:      2 * time.Second,
		MaxRestoreFailures: 3,
	}
}

// WithDefaults fills every zero field from DefaultPolicy.
func (p Policy) WithDefaults() Policy {
	d := DefaultPolicy()
	if p.HeartbeatInterval <= 0 {
		p.HeartbeatInterval = d.HeartbeatInterval
	}
	if p.MissedBeats <= 0 {
		p.MissedBeats = d.MissedBeats
	}
	if p.RestoreTimeout <= 0 {
		p.RestoreTimeout = d.RestoreTimeout
	}
	if p.RetryInterval <= 0 {
		p.RetryInterval = d.RetryInterval
	}
	if p.MaxRestoreFailures <= 0 {
		p.MaxRestoreFailures = d.MaxRestoreFailures
	}
	return p
}

// Runtime is the engine surface the supervisor needs — observation,
// respawn, and restore. internal/job adapts its Engine+Coordinator pair
// to this.
type Runtime interface {
	// Instances lists the supervised instances (inner + sink tasks).
	Instances() []topology.Instance
	// Live reports whether the instance currently has an executor.
	Live(inst topology.Instance) bool
	// LastHeartbeat returns the instance's most recent pulse (paper
	// time); ok is false before the first beat.
	LastHeartbeat(inst topology.Instance) (last time.Time, ok bool)
	// MidRespawn reports whether the instance is dead by design: killed
	// by a rebalance with its staggered respawn still pending.
	MidRespawn(inst topology.Instance) bool
	// Initialized reports whether the instance's executor has restored
	// state and is processing data.
	Initialized(inst topology.Instance) bool
	// Restart respawns a dead instance from the current placement.
	Restart(inst topology.Instance)
	// RestoreWave drives one checkpoint-restore (INIT) wave over the
	// dataflow, bounded by maxWait. It returns ErrControlBusy when the
	// control token is held elsewhere and ErrHalted when the job is
	// stopping; any other non-nil error counts as a restore failure.
	RestoreWave(maxWait time.Duration) error
	// ForceInitialize initializes the instance empty, bypassing the
	// checkpoint store — the replay-only degradation fallback. It
	// reports false if the instance has no live executor.
	ForceInitialize(inst topology.Instance) bool
}

// Health is the supervisor's aggregate verdict.
type Health int

const (
	// Healthy: no incident in progress, no degraded recovery on record.
	Healthy Health = iota
	// Recovering: at least one instance is mid-recovery.
	Recovering
	// Degraded: some recovery fell back to replay-only restore.
	Degraded
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Recovering:
		return "recovering"
	case Degraded:
		return "degraded"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// IncidentPhase tags the progress notifications a recovery emits.
type IncidentPhase int

const (
	// PhaseDetected: the failure detector declared the instance dead.
	PhaseDetected IncidentPhase = iota
	// PhaseRestoring: recovery started respawning/restoring it.
	PhaseRestoring
	// PhaseRecovered: the instance is live and initialized again.
	PhaseRecovered
	// PhaseDegraded: restore kept failing; fell back to replay-only.
	PhaseDegraded
)

// String implements fmt.Stringer.
func (p IncidentPhase) String() string {
	switch p {
	case PhaseDetected:
		return "detected"
	case PhaseRestoring:
		return "restoring"
	case PhaseRecovered:
		return "recovered"
	case PhaseDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("IncidentPhase(%d)", int(p))
	}
}

// IncidentEvent is one recovery progress notification, delivered to the
// notify callback passed to New.
type IncidentEvent struct {
	// Phase is the recovery step this event reports.
	Phase IncidentPhase
	// Instance is the failed executor.
	Instance topology.Instance
	// At is the paper-time instant of the step.
	At time.Time
	// MTTR is detection→recovered latency; set on PhaseRecovered only.
	MTTR time.Duration
	// Degraded marks a PhaseRecovered that used the replay-only fallback.
	Degraded bool
	// Err carries the terminal restore error on PhaseDegraded.
	Err error
}

// Incident is one completed recovery.
type Incident struct {
	// Instance is the executor that failed.
	Instance topology.Instance
	// DetectedAt and RecoveredAt bound the outage (paper time).
	DetectedAt, RecoveredAt time.Time
	// Degraded marks a replay-only (forced) recovery.
	Degraded bool
	// Attempts counts restart + restore-wave attempts.
	Attempts int
}

// MTTR is the incident's detection→recovered latency.
func (i Incident) MTTR() time.Duration { return i.RecoveredAt.Sub(i.DetectedAt) }

// Supervisor runs the monitor→detect→recover loop over a Runtime.
type Supervisor struct {
	rt     Runtime
	clock  timex.Clock
	pol    Policy
	notify func(IncidentEvent)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu         sync.Mutex
	recovering map[topology.Instance]bool
	degraded   map[topology.Instance]bool
	incidents  []Incident
}

// New builds a supervisor over rt. notify, when non-nil, receives every
// IncidentEvent synchronously from supervisor goroutines — it must not
// block indefinitely. Call Start to begin monitoring.
func New(rt Runtime, clock timex.Clock, pol Policy, notify func(IncidentEvent)) *Supervisor {
	return &Supervisor{
		rt:         rt,
		clock:      clock,
		pol:        pol.WithDefaults(),
		notify:     notify,
		stop:       make(chan struct{}),
		recovering: make(map[topology.Instance]bool),
		degraded:   make(map[topology.Instance]bool),
	}
}

// Policy returns the effective (default-filled) policy.
func (s *Supervisor) Policy() Policy { return s.pol }

// Start launches the monitor loop.
func (s *Supervisor) Start() {
	s.wg.Add(1)
	go s.monitor()
}

// Stop halts monitoring and waits for in-flight recovery loops to
// notice and exit (bounded by one restore-wave attempt).
func (s *Supervisor) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Health reports the aggregate verdict: Degraded sticks once any
// recovery fell back to replay-only, Recovering while any incident is
// in progress, Healthy otherwise.
func (s *Supervisor) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.degraded) > 0 {
		return Degraded
	}
	if len(s.recovering) > 0 {
		return Recovering
	}
	return Healthy
}

// Incidents returns a copy of the completed recoveries in order.
func (s *Supervisor) Incidents() []Incident {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Incident(nil), s.incidents...)
}

func (s *Supervisor) emit(ev IncidentEvent) {
	if s.notify != nil {
		s.notify(ev)
	}
}

func (s *Supervisor) monitor() {
	defer s.wg.Done()
	for {
		next := s.clock.Now().Add(s.pol.HeartbeatInterval)
		if timex.WaitUntil(s.clock, next, s.stop) {
			return
		}
		s.sweep()
	}
}

// sweep inspects every supervised instance once and opens a recovery
// for each newly detected death.
func (s *Supervisor) sweep() {
	now := s.clock.Now()
	deadAfter := time.Duration(s.pol.MissedBeats) * s.pol.HeartbeatInterval
	for _, inst := range s.rt.Instances() {
		s.mu.Lock()
		busy := s.recovering[inst]
		s.mu.Unlock()
		if busy {
			continue // already being recovered
		}
		if s.rt.MidRespawn(inst) {
			continue // planned migration kill; the engine will respawn it
		}
		last, ok := s.rt.LastHeartbeat(inst)
		if !ok {
			continue // never beat yet (just spawned); nothing to judge
		}
		// Deadlines compare paper-time instants only: a slow host that
		// stalls wall time without advancing the clock cannot produce a
		// false detection.
		if now.Sub(last) <= deadAfter {
			continue
		}
		s.mu.Lock()
		s.recovering[inst] = true
		s.mu.Unlock()
		s.emit(IncidentEvent{Phase: PhaseDetected, Instance: inst, At: now})
		s.wg.Add(1)
		go s.recover(inst, now)
	}
}

// recover drives one instance from detected-dead back to initialized,
// escalating to replay-only initialization after repeated restore
// failures. It runs on its own goroutine, one per open incident.
func (s *Supervisor) recover(inst topology.Instance, detected time.Time) {
	defer s.wg.Done()
	var (
		restoring bool // Restoring event emitted
		degraded  bool // fell back to replay-only
		failures  int  // failed restore waves
		attempts  int
	)
	for {
		select {
		case <-s.stop:
			return
		default:
		}

		if s.rt.Live(inst) && s.rt.Initialized(inst) {
			now := s.clock.Now()
			s.mu.Lock()
			s.incidents = append(s.incidents, Incident{
				Instance:    inst,
				DetectedAt:  detected,
				RecoveredAt: now,
				Degraded:    degraded,
				Attempts:    attempts,
			})
			delete(s.recovering, inst)
			if degraded {
				s.degraded[inst] = true
			}
			s.mu.Unlock()
			s.emit(IncidentEvent{Phase: PhaseRecovered, Instance: inst, At: now, MTTR: now.Sub(detected), Degraded: degraded})
			return
		}

		if !restoring {
			restoring = true
			s.emit(IncidentEvent{Phase: PhaseRestoring, Instance: inst, At: s.clock.Now()})
		}

		switch {
		case !s.rt.Live(inst) && !s.rt.MidRespawn(inst):
			// Unplanned corpse: respawn it from the current placement.
			// The fresh executor buffers data until a restore below (or
			// an in-flight migration's own INIT wave) initializes it.
			attempts++
			s.rt.Restart(inst)
			continue // re-observe immediately; stateless executors are done here

		case s.rt.Live(inst) && !s.rt.Initialized(inst):
			if degraded {
				// Replay-only fallback: initialize empty and let the
				// source's ack timeouts rebuild the stream.
				s.rt.ForceInitialize(inst)
				break
			}
			attempts++
			err := s.rt.RestoreWave(s.pol.RestoreTimeout)
			switch {
			case err == nil:
				continue // wave completed; next observation should see Initialized
			case errors.Is(err, ErrHalted):
				return
			case errors.Is(err, ErrControlBusy):
				// A migration/scale enactment (or another recovery)
				// holds the token; its own INIT wave heals this
				// executor. Not a failure — just recheck later.
			default:
				failures++
				if failures >= s.pol.MaxRestoreFailures {
					degraded = true
					s.emit(IncidentEvent{Phase: PhaseDegraded, Instance: inst, At: s.clock.Now(), Err: err})
					s.rt.ForceInitialize(inst)
				}
			}
		}
		// Mid-respawn, busy, or failed attempt: pause, then re-observe.
		if timex.WaitUntil(s.clock, s.clock.Now().Add(s.pol.RetryInterval), s.stop) {
			return
		}
	}
}
