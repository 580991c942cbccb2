package runtime

import (
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/workload"
)

// TestSourceSettled pins the instant a source's input-rate record is
// final up to: the earliest stamp any emission still to be recorded can
// take — the generator's next deadline, a queued item's paced stamp, or
// the item in hand — except that a paused or flow-control-holding
// source has nothing left to record before now.
func TestSourceSettled(t *testing.T) {
	h := newHarness(t, linear3(), ModeCCR)
	now := h.eng.clock.Now()
	at := func(d time.Duration) time.Time { return now.Add(d) }
	item := func(ready time.Time) emitItem { return emitItem{payload: workload.Payload{Seq: 1}, ready: ready} }

	for _, tc := range []struct {
		name string
		set  func(s *Source)
		want time.Time
	}{
		{"not started", func(s *Source) {}, now},
		{"idle: next deadline", func(s *Source) { s.genNext = at(time.Second) }, at(time.Second)},
		{"late generator", func(s *Source) { s.genNext = at(-3 * time.Second) }, at(-3 * time.Second)},
		{"backlog head paced by free", func(s *Source) {
			s.genNext = at(time.Second)
			s.backlog = []emitItem{item(at(-5 * time.Second)), item(at(-4 * time.Second))}
			s.free = at(-2 * time.Second)
		}, at(-2 * time.Second)},
		{"replay behind a resume", func(s *Source) {
			s.genNext = at(time.Second)
			s.replays = []emitItem{item(at(-5 * time.Second))}
			s.resumed = at(-time.Second)
		}, at(-time.Second)},
		{"in hand", func(s *Source) {
			s.genNext = at(time.Second)
			s.inHand, s.inHandAt = true, at(-4*time.Second)
		}, at(-4 * time.Second)},
		{"in hand, held by flow control", func(s *Source) {
			s.genNext = at(time.Second)
			s.inHand, s.inHandAt, s.holding = true, at(-4*time.Second), true
		}, now},
		{"holding behind a backlog", func(s *Source) {
			s.genNext = at(-3 * time.Second)
			s.backlog = []emitItem{item(at(-5 * time.Second))}
			s.inHand, s.inHandAt, s.holding = true, at(-6*time.Second), true
		}, now},
		{"paused with an item in hand", func(s *Source) {
			s.genNext = at(time.Second)
			s.inHand, s.inHandAt, s.paused = true, at(-2*time.Second), true
		}, at(-2 * time.Second)},
		{"paused behind a backlog", func(s *Source) {
			s.genNext = at(-3 * time.Second)
			s.backlog = []emitItem{item(at(-5 * time.Second))}
			s.paused = true
		}, now},
	} {
		s := newSource(h.eng, topology.Instance{Task: "Src"})
		tc.set(s)
		if got := s.settled(now); !got.Equal(tc.want) {
			t.Errorf("%s: settled %v from now, want %v", tc.name, got.Sub(now), tc.want.Sub(now))
		}
	}
}
