package runtime

import (
	"sync"
	"time"

	"repro/internal/tuple"
	"repro/internal/workload"
)

// Audit tracks end-to-end delivery accounting at payload granularity so
// the reliability guarantees of §1 can be asserted after a migration:
// no payload is lost (all strategies), none is duplicated beyond its
// fan-out (DCR/CCR), and DCR's old/new boundary is strict.
//
// Payload sequence numbers — not event IDs — are the unit of accounting,
// because a replayed payload travels under a fresh causal root.
//
// Boundary accounting is per migration generation: BeginGeneration(g) is
// called at the g-th migration request, payloads carry the generation
// they were first emitted in (tuple.Event.Gen), and each generation g
// keeps its own boundary — the first arrival of a payload with Gen >= g
// versus later arrivals of payloads with Gen < g. Back-to-back
// enactments on one engine are therefore each audited; the old
// PreMigration bool collapsed them into a single epoch.
type Audit struct {
	mu sync.Mutex
	// emitted maps payload seq → first emission record (replays keep the
	// original emission instant and generation).
	emitted map[int64]emitRec
	// sinkCount maps payload seq → number of sink arrivals.
	sinkCount map[int64]int
	// genEmitted counts distinct payloads first emitted per generation
	// (index = generation, 0 = before the first migration request).
	genEmitted []int
	// generations holds one boundary record per BeginGeneration call;
	// generations[g-1] audits the g-th migration.
	generations []genBoundary
	// sinkTotal caches the arrival sum so SinkArrivals does not rescan
	// sinkCount.
	sinkTotal int
}

// emitRec is the first-emission record of one payload.
type emitRec struct {
	at  time.Time
	gen uint64
}

// genBoundary is the old/new boundary state of one migration generation.
type genBoundary struct {
	// firstNew is the earliest sink arrival of a payload emitted at or
	// after this generation's request.
	firstNew time.Time
	// violations counts arrivals of older payloads after firstNew.
	violations int
}

// NewAudit returns an empty auditor.
func NewAudit() *Audit {
	return &Audit{
		emitted:    make(map[int64]emitRec),
		sinkCount:  make(map[int64]int),
		genEmitted: make([]int, 1),
	}
}

// BeginGeneration opens boundary accounting for migration generation g
// (1-based, the engine's migration counter). Idempotent for a given g;
// generations must be opened in order.
func (a *Audit) BeginGeneration(g uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for uint64(len(a.generations)) < g {
		a.generations = append(a.generations, genBoundary{})
		a.genEmitted = append(a.genEmitted, 0)
	}
}

// RecordEmit notes the emission of a payload in generation gen (replays
// do not re-record: the payload keeps its first emission's instant and
// generation).
func (a *Audit) RecordEmit(seq int64, gen uint64, at time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.emitted[seq]; ok {
		return
	}
	a.emitted[seq] = emitRec{at: at, gen: gen}
	for uint64(len(a.genEmitted)) <= gen {
		a.genEmitted = append(a.genEmitted, 0)
	}
	a.genEmitted[gen]++
}

// RecordSink notes a sink arrival.
func (a *Audit) RecordSink(ev *tuple.Event, at time.Time) {
	p, ok := ev.Value.(workload.Payload)
	if !ok {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sinkCount[p.Seq]++
	a.sinkTotal++
	for i := range a.generations {
		g := uint64(i + 1)
		b := &a.generations[i]
		if ev.Gen >= g {
			if b.firstNew.IsZero() || at.Before(b.firstNew) {
				b.firstNew = at
			}
		} else if !b.firstNew.IsZero() && at.After(b.firstNew) {
			b.violations++
		}
	}
}

// Lost returns the payload sequence numbers emitted at or before cutoff
// that never reached a sink. With a cutoff comfortably before the end of
// the run (beyond the replay horizon), a non-empty result is a
// reliability violation.
func (a *Audit) Lost(cutoff time.Time) []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []int64
	for seq, rec := range a.emitted {
		if rec.at.After(cutoff) {
			continue
		}
		if a.sinkCount[seq] == 0 {
			out = append(out, seq)
		}
	}
	return out
}

// Duplicates returns the number of payloads whose sink arrivals exceed
// fanout (the number of source→sink paths in the DAG; 1 for Linear, 4 for
// Grid). Non-zero is expected for DSM (at-least-once) and must be zero
// for DCR and CCR.
func (a *Audit) Duplicates(fanout int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, c := range a.sinkCount {
		if c > fanout {
			n++
		}
	}
	return n
}

// BoundaryViolations sums boundary violations across all migration
// generations. For a single migration this is exactly the old
// PreMigration-based count; DCR guarantees zero per enactment: all old
// events drain before the rebalance, so old and new never interleave.
func (a *Audit) BoundaryViolations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, b := range a.generations {
		n += b.violations
	}
	return n
}

// BoundaryViolationsFor returns the boundary violations of migration
// generation g (1-based). Unopened generations report zero.
func (a *Audit) BoundaryViolationsFor(g uint64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if g == 0 || uint64(len(a.generations)) < g {
		return 0
	}
	return a.generations[g-1].violations
}

// GenerationStat is the per-generation delivery accounting exposed by
// GenerationStats.
type GenerationStat struct {
	// Gen is the migration generation (0 = before the first request).
	Gen uint64
	// Emitted counts distinct payloads first emitted in this generation;
	// the stats' Emitted values sum to EmittedCount.
	Emitted int
	// Violations counts this generation's boundary violations (always 0
	// for generation 0, which has no boundary).
	Violations int
}

// GenerationStats returns one entry per generation, 0..N where N is the
// number of migrations requested so far.
func (a *Audit) GenerationStats() []GenerationStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.generations) + 1
	if len(a.genEmitted) > n {
		n = len(a.genEmitted)
	}
	out := make([]GenerationStat, n)
	for i := range out {
		out[i].Gen = uint64(i)
		if i < len(a.genEmitted) {
			out[i].Emitted = a.genEmitted[i]
		}
		if i >= 1 && i-1 < len(a.generations) {
			out[i].Violations = a.generations[i-1].violations
		}
	}
	return out
}

// EmittedCount returns the number of distinct payloads emitted.
func (a *Audit) EmittedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.emitted)
}

// SinkArrivals returns the total number of sink arrivals recorded.
func (a *Audit) SinkArrivals() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sinkTotal
}
