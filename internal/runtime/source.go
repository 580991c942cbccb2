package runtime

import (
	"sync"
	"time"

	"repro/internal/acker"
	"repro/internal/metrics"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Source is a source task instance. An external generator goroutine
// produces payloads at the configured rate into a backlog (the upstream
// stream does not stop when the dataflow pauses); an emitter goroutine
// drains the backlog into the dataflow, pausing on demand and bounding
// the post-unpause burst rate.
//
// Under DSM the source also implements Storm's reliable-spout contract:
// every emitted root is cached until its causal tree completes; trees
// failed by the ack timeout are re-emitted with Replayed set.
type Source struct {
	eng  *Engine
	inst topology.Instance
	plan *sender           // the instance's compiled outgoing routes
	rep  *metrics.Reporter // private recording handle for the emit path

	mu   sync.Mutex
	wake *sync.Cond
	// backlog[backHead:] are the payloads awaiting emission. The emit loop
	// advances backHead, and generate slides the live items down before
	// an append would grow a full array, so the steady state reuses one
	// backing array.
	backlog  []emitItem
	backHead int
	replays  []emitItem
	paused   bool
	stopped  bool
	seq      int64

	// Input-rate stamping (see emitLoop). genNext is the generator's next
	// deadline; free the earliest stamp the next emission can take;
	// resumed the last Unpause. inHand marks an item popped but not yet
	// recorded, stamped inHandAt unless a flow-control hold (holding)
	// moves it on.
	genNext  time.Time
	free     time.Time
	resumed  time.Time
	inHand   bool
	inHandAt time.Time
	holding  bool

	cacheMu sync.Mutex
	cache   map[tuple.ID]*tuple.Event
}

// emitItem is a payload awaiting emission through the emit loop: a fresh
// one from the generator, or a failed one awaiting re-emission (Storm
// replays failed tuples via the spout's nextTuple path, paced like any
// other emission — not as an instantaneous burst from the acker's timer).
type emitItem struct {
	// payload is the workload.Payload, boxed once when the item is made
	// (the one allocation left per root) and reused by every emission of
	// it.
	payload any
	// ready is the paper instant the item became emittable: its
	// generation deadline, or the acker's timeout verdict for a replay.
	ready time.Time
	// The replayed tree's original root: emission instant, migration
	// epoch and generation (unused for fresh payloads).
	rootEmit     time.Time
	preMigration bool
	gen          uint64
}

func newSource(eng *Engine, inst topology.Instance) *Source {
	s := &Source{eng: eng, inst: inst, plan: eng.plan[inst], rep: eng.collector.Reporter(), cache: make(map[tuple.ID]*tuple.Event)}
	s.wake = sync.NewCond(&s.mu)
	return s
}

// start launches the generator and emitter goroutines.
func (s *Source) start() {
	s.eng.wg.Add(2)
	go s.generate()
	go s.emitLoop()
}

// generate produces payloads at the engine's live source rate into the
// backlog, pacing against absolute deadlines so the long-run rate is
// exact even under a heavily compressed clock. The rate is re-read every
// iteration, so SetSourceRate ramps take effect within one emission.
func (s *Source) generate() {
	defer s.eng.wg.Done()
	interval := func() time.Duration { return time.Duration(float64(time.Second) / s.eng.SourceRate()) }
	s.mu.Lock()
	next := s.eng.clock.Now().Add(interval())
	s.genNext = next
	s.mu.Unlock()
	for {
		timex.SleepUntil(s.eng.clock, next)
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		s.seq++
		if s.backHead > 0 && len(s.backlog) == cap(s.backlog) {
			n := copy(s.backlog, s.backlog[s.backHead:])
			s.backlog, s.backHead = s.backlog[:n], 0
		}
		s.backlog = append(s.backlog, emitItem{payload: workload.Payload{Seq: s.seq, Body: "obs"}, ready: next})
		next = next.Add(interval())
		s.genNext = next
		s.wake.Signal()
		s.mu.Unlock()
	}
}

// emitLoop drains the backlog into the dataflow. When a backlog has built
// up behind a pause, it is drained at SourceBurstRate — the bounded input
// spike visible in the paper's Fig. 7b/c timelines.
//
// The input-rate timeline records each emission at its paced paper
// instant — max(ready, free, resumed), with free advanced by the burst
// gap while backlogged — not at the instant this goroutine ran. Under a
// compressed clock a few wall milliseconds of host scheduling lag are
// seconds of paper time; recorded at the wall instant, a late-running
// source would show the autoscaler a fake dip and burst in its input
// rate. Only a pause or a flow-control hold moves the stamps on, as the
// paper's spout would stall. Root emit instants (latency) and the audit
// keep the wall instant.
func (s *Source) emitLoop() {
	defer s.eng.wg.Done()
	burstGap := time.Duration(float64(time.Second) / s.eng.cfg.SourceBurstRate)
	var nextBurst time.Time
	for {
		s.mu.Lock()
		s.inHand = false
		for (s.backlogLen() == 0 && len(s.replays) == 0 || s.paused) && !s.stopped {
			s.wake.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		// Failed trees re-emit ahead of new payloads, as a reliable spout
		// drains its fail backlog first.
		var it emitItem
		isReplay := len(s.replays) > 0
		if isReplay {
			it = s.replays[0]
			s.replays = s.replays[1:]
		} else {
			it = s.backlog[s.backHead]
			s.backHead++
			if s.backHead == len(s.backlog) {
				s.backlog, s.backHead = s.backlog[:0], 0
			}
		}
		backlogged := s.backlogLen() > 0 || len(s.replays) > 0
		at := later(it.ready, later(s.free, s.resumed))
		s.inHand, s.inHandAt = true, at
		s.free = at
		if backlogged {
			s.free = at.Add(burstGap)
		}
		s.mu.Unlock()

		if isReplay {
			s.emitRoot(it.payload, true, at, it.rootEmit, it.preMigration, it.gen)
		} else {
			if s.waitForPendingSlot() { // flow control applies to new roots only
				at = s.afterHold(at)
			}
			s.emitRoot(it.payload, false, at, s.eng.clock.Now(), !s.eng.migrationRequested(), s.eng.MigrationGen())
		}
		if backlogged {
			// Deadline-paced burst drain at SourceBurstRate.
			now := s.eng.clock.Now()
			if nextBurst.Before(now) {
				nextBurst = now
			}
			nextBurst = nextBurst.Add(burstGap)
			timex.SleepUntil(s.eng.clock, nextBurst)
		} else {
			nextBurst = time.Time{}
		}
	}
}

// later returns the later of two instants.
func later(a, b time.Time) time.Time {
	if a.Before(b) {
		return b
	}
	return a
}

// afterHold restamps the in-hand emission, stamped at, once a
// flow-control hold ends: it leaves no earlier than now, and the stamps
// behind it move on by as much.
func (s *Source) afterHold(at time.Time) time.Time {
	now := s.eng.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.holding = false
	if at.Before(now) {
		s.free = s.free.Add(now.Sub(at))
		at = now
	}
	s.inHandAt = at
	return at
}

// waitForPendingSlot applies max-spout-pending flow control: with acking
// on, new roots are held back while too many trees are unacked, so an
// outage cannot snowball into a replay storm. Replays are exempt — they
// re-emit trees that are already pending. It reports whether it held the
// root back; while it does, the source's record counts as settled up to
// the present (see settled).
func (s *Source) waitForPendingSlot() bool {
	cap := s.eng.cfg.MaxSpoutPending
	if cap <= 0 || !s.eng.cfg.AckDataEvents() {
		return false
	}
	held := false
	for s.PendingCached() >= cap {
		s.mu.Lock()
		stopped := s.stopped
		s.holding = !stopped
		s.mu.Unlock()
		if stopped {
			return held
		}
		held = true
		s.eng.clock.Sleep(250 * time.Millisecond)
	}
	return held
}

// emitRoot emits one boxed workload.Payload as a fresh causal root and
// routes it to the first task layer, recording it in the input-rate
// timeline at paper instant at. The key is a pure function of the
// payload sequence number (the default hash, or Config.KeySelector) so a
// replayed payload re-derives the same routing key.
func (s *Source) emitRoot(payload any, replayed bool, at, rootEmit time.Time, preMigration bool, gen uint64) {
	seq := payload.(workload.Payload).Seq
	id := s.eng.idgen.Next()
	key := hash64(uint64(seq))
	if sel := s.eng.cfg.KeySelector; sel != nil {
		key = sel(seq)
	}
	acked := s.eng.cfg.AckDataEvents()
	var ev *tuple.Event
	if acked {
		ev = new(tuple.Event) // the replay cache owns it until the acker's verdict
	} else {
		ev = tuple.NewPooledEvent()
	}
	ev.ID, ev.Root, ev.Kind = id, id, tuple.Data
	ev.SrcTask, ev.SrcInstance = s.inst.Task, s.inst.Index
	ev.Key, ev.Value = key, payload
	ev.RootEmit, ev.Replayed, ev.PreMigration, ev.Gen = rootEmit, replayed, preMigration, gen
	if acked {
		s.cacheMu.Lock()
		s.cache[id] = ev
		s.cacheMu.Unlock()
		s.eng.ack.Register(id, s.onOutcome)
	}
	s.rep.SourceEmitAt(at, replayed)
	s.eng.audit.RecordEmit(seq, gen, s.eng.clock.Now())
	s.eng.routeFromSource(s.plan, ev)
	if acked {
		// The spout's own contribution to the tree: children are anchored
		// by routeFromSource before this ack, as a task would.
		s.eng.ack.Ack(id, id)
	}
	// The children copied what they read. The cached heap root of an
	// acked run is not pooled, so Release leaves it to the cache.
	ev.Release()
}

// onOutcome handles the acker's verdict on a cached root.
func (s *Source) onOutcome(root tuple.ID, outcome acker.Outcome) {
	s.cacheMu.Lock()
	orig, ok := s.cache[root]
	delete(s.cache, root)
	s.cacheMu.Unlock()
	if !ok || outcome != acker.TimedOut {
		return
	}
	// Queue the failed payload for re-emission through the emit loop,
	// keeping the original emission timestamp (complete latency) and
	// migration epoch.
	if _, okP := orig.Value.(workload.Payload); !okP {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.replays = append(s.replays, emitItem{payload: orig.Value, ready: s.eng.clock.Now(), rootEmit: orig.RootEmit, preMigration: orig.PreMigration, gen: orig.Gen})
	s.wake.Signal()
}

// Pause stops emissions; the generator keeps filling the backlog.
func (s *Source) Pause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = true
}

// Unpause resumes emissions, draining any backlog at the burst rate.
func (s *Source) Unpause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = false
	s.resumed = s.eng.clock.Now()
	s.wake.Broadcast()
}

// settled reports the paper instant before which this source's
// input-rate record is final: no emission still to be recorded is
// stamped earlier. A paused source, and one holding a root back for
// flow control, has nothing to record before now.
func (s *Source) settled(now time.Time) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holding {
		return now // everything left to record waits out the hold
	}
	// Paused, stopped or not yet started: nothing queued is stamped
	// before now.
	t := now
	if !s.paused && !s.stopped && !s.genNext.IsZero() {
		floor := later(s.free, s.resumed)
		t = later(s.genNext, floor)
		for _, q := range [][]emitItem{s.backlog[s.backHead:], s.replays} {
			if len(q) > 0 {
				if head := later(q[0].ready, floor); head.Before(t) {
					t = head
				}
			}
		}
	}
	if s.inHand && s.inHandAt.Before(t) {
		t = s.inHandAt
	}
	return t
}

// PendingCached reports roots still cached (in flight or awaiting verdict).
func (s *Source) PendingCached() int {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return len(s.cache)
}

// Backlog reports payloads generated but not yet emitted.
func (s *Source) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlogLen()
}

// backlogLen is Backlog for callers that hold s.mu.
func (s *Source) backlogLen() int { return len(s.backlog) - s.backHead }

// stop halts both goroutines.
func (s *Source) stop() {
	s.mu.Lock()
	s.stopped = true
	s.wake.Broadcast()
	s.mu.Unlock()
}

// hash64 is the key hash for fields grouping and payload key assignment
// — tuple's splitmix64 finalizer, the one mixing function shared by ID
// generation and acker shard routing.
func hash64(x uint64) uint64 { return tuple.Mix64(x) }
