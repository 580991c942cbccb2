package metrics

import (
	"sync"
	"time"

	"repro/internal/tuple"
)

// The per-event recording path (source emissions, sink arrivals) is the
// hottest code in the collector: every event in the dataflow crosses it
// at least twice. It is sharded so concurrent reporters never contend:
// each Reporter owns a recShard holding a fixed-size ring of per-bin
// accumulators plus small spill state, guarded by a mutex that only that
// reporter (and the lazy merge) ever takes. Queries — Window, Compute,
// the timelines — merge the shard deltas into the master state under the
// collector's existing mutex, so every §4 metric is computed by exactly
// the same code as before and matches the single-mutex results
// bit-for-bit on identical traces.

// ringBins is the number of per-bin accumulator cells each shard ring
// holds. Bins past the ring (a merge gap longer than ringBins seconds)
// spill into per-shard maps, so no data is ever dropped.
const ringBins = 64

// binCell accumulates one timeline bin inside a shard ring.
type binCell struct {
	bin      int // bin index this cell holds; -1 when empty
	in       int // source emissions
	out      int // sink arrivals
	latSum   time.Duration
	latCount int
}

// recShard is one reporter's accumulator slice.
type recShard struct {
	mu   sync.Mutex
	ring [ringBins]binCell

	// Spill state for bins evicted from the ring between merges.
	spillIn, spillOut map[int]int
	spillLatSum       map[int]time.Duration
	spillLatCount     map[int]int

	emitted  int
	replayed int
	sink     int

	recent      map[int][]time.Duration
	recentFloor int

	pre, post []time.Duration

	firstSinkAfterReq time.Time
	lastPreMigration  time.Time
	lastReplayed      time.Time

	// pad keeps shards off each other's cache lines.
	_ [64]byte
}

func newRecShard() *recShard {
	sh := &recShard{recent: make(map[int][]time.Duration)}
	for i := range sh.ring {
		sh.ring[i].bin = -1
	}
	return sh
}

// cell returns the ring cell for bin b, spilling a displaced older bin.
func (sh *recShard) cell(b int) *binCell {
	c := &sh.ring[b&(ringBins-1)]
	if c.bin != b {
		if c.bin >= 0 {
			sh.spill(c)
		}
		*c = binCell{bin: b}
	}
	return c
}

// spill moves a displaced cell into the shard's spill maps.
func (sh *recShard) spill(c *binCell) {
	if sh.spillIn == nil {
		sh.spillIn = make(map[int]int)
		sh.spillOut = make(map[int]int)
		sh.spillLatSum = make(map[int]time.Duration)
		sh.spillLatCount = make(map[int]int)
	}
	if c.in > 0 {
		sh.spillIn[c.bin] += c.in
	}
	if c.out > 0 {
		sh.spillOut[c.bin] += c.out
		sh.spillLatSum[c.bin] += c.latSum
		sh.spillLatCount[c.bin] += c.latCount
	}
}

// recordRecent appends a latency sample to the shard's per-bin retention
// buffer and prunes bins that fell out of the horizon. Callers hold sh.mu.
func (sh *recShard) recordRecent(b int, latency time.Duration) {
	sh.recent[b] = append(sh.recent[b], latency)
	floor := b - int(recentHorizon/BinSize)
	for sh.recentFloor < floor {
		delete(sh.recent, sh.recentFloor)
		sh.recentFloor++
	}
}

// Reporter is a contention-free recording handle onto a Collector. Each
// hot-path goroutine (a source's emitter, a sink's executor) holds its
// own Reporter, so steady-state recording never crosses a shared lock.
// Reporters are safe for concurrent use — two goroutines sharing one
// merely contend with each other, not with other reporters.
type Reporter struct {
	c  *Collector
	sh *recShard
}

// Reporter returns a recording handle, assigning shards round-robin.
// The handle stays valid for the collector's lifetime.
func (c *Collector) Reporter() *Reporter {
	i := c.rr.Add(1) - 1
	return &Reporter{c: c, sh: c.shards[i%uint64(len(c.shards))]}
}

// SourceEmit records one source emission now; replayed marks
// re-emissions triggered by ack timeouts.
func (r *Reporter) SourceEmit(replayed bool) { r.SourceEmitAt(r.c.clock.Now(), replayed) }

// SourceEmitAt records one source emission in the bin of paper instant
// at: a source's paced emission instant, which its emitter may record a
// little after the fact.
func (r *Reporter) SourceEmitAt(at time.Time, replayed bool) {
	b := r.c.bin(at)
	sh := r.sh
	sh.mu.Lock()
	sh.cell(b).in++
	if replayed {
		sh.replayed++
	} else {
		sh.emitted++
	}
	sh.mu.Unlock()
}

// SinkReceive records the arrival of ev at a sink.
func (r *Reporter) SinkReceive(ev *tuple.Event) {
	now := r.c.clock.Now()
	latency := now.Sub(ev.RootEmit)
	b := r.c.bin(now)
	hasReq := r.c.hasReqA.Load()
	afterReq := hasReq && now.UnixNano() > r.c.reqNanos.Load()

	sh := r.sh
	sh.mu.Lock()
	cell := sh.cell(b)
	cell.out++
	cell.latSum += latency
	cell.latCount++
	sh.recordRecent(b, latency)
	sh.sink++

	if !hasReq {
		sh.pre = append(sh.pre, latency)
		sh.mu.Unlock()
		return
	}
	sh.post = append(sh.post, latency)
	if afterReq {
		if sh.firstSinkAfterReq.IsZero() {
			sh.firstSinkAfterReq = now
		}
		if ev.PreMigration && now.After(sh.lastPreMigration) {
			sh.lastPreMigration = now
		}
		if ev.Replayed && now.After(sh.lastReplayed) {
			sh.lastReplayed = now
		}
	}
	sh.mu.Unlock()
}

// mergeLocked drains every shard's accumulated deltas into the master
// state. Callers hold c.mu. After a merge the master fields hold exactly
// what the pre-sharding collector would hold after the same events, so
// all derived metrics are unchanged.
func (c *Collector) mergeLocked() {
	maxRecent := -1
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := range sh.ring {
			cl := &sh.ring[i]
			if cl.bin >= 0 {
				c.applyBinLocked(cl.bin, cl.in, cl.out, cl.latSum, cl.latCount)
				cl.bin = -1
			}
		}
		for b, v := range sh.spillIn {
			c.inBins[b] += v
			delete(sh.spillIn, b)
		}
		for b, v := range sh.spillOut {
			c.outBins[b] += v
			c.latSum[b] += sh.spillLatSum[b]
			c.latCount[b] += sh.spillLatCount[b]
			delete(sh.spillOut, b)
			delete(sh.spillLatSum, b)
			delete(sh.spillLatCount, b)
		}
		c.emitted += sh.emitted
		c.replayed += sh.replayed
		c.sinkCount += sh.sink
		sh.emitted, sh.replayed, sh.sink = 0, 0, 0

		for b, ls := range sh.recent {
			if b >= c.recentFloor {
				c.recentLat[b] = append(c.recentLat[b], ls...)
				if b > maxRecent {
					maxRecent = b
				}
			}
			delete(sh.recent, b)
		}
		if len(sh.pre) > 0 {
			c.preLatencies = append(c.preLatencies, sh.pre...)
			sh.pre = sh.pre[:0]
		}
		if len(sh.post) > 0 {
			c.postLatencies = append(c.postLatencies, sh.post...)
			sh.post = sh.post[:0]
		}
		if !sh.firstSinkAfterReq.IsZero() {
			if c.firstSinkAfterReq.IsZero() || sh.firstSinkAfterReq.Before(c.firstSinkAfterReq) {
				c.firstSinkAfterReq = sh.firstSinkAfterReq
			}
			sh.firstSinkAfterReq = time.Time{}
		}
		if sh.lastPreMigration.After(c.lastPreMigration) {
			c.lastPreMigration = sh.lastPreMigration
		}
		sh.lastPreMigration = time.Time{}
		if sh.lastReplayed.After(c.lastReplayed) {
			c.lastReplayed = sh.lastReplayed
		}
		sh.lastReplayed = time.Time{}
		sh.mu.Unlock()
	}
	// Advance the master retention floor exactly as per-write pruning
	// would have after the newest merged sample.
	if maxRecent >= 0 {
		floor := maxRecent - int(recentHorizon/BinSize)
		for c.recentFloor < floor {
			delete(c.recentLat, c.recentFloor)
			c.recentFloor++
		}
	}
}

// applyBinLocked folds one drained bin cell into the master maps,
// creating exactly the entries the unsharded write path would have.
func (c *Collector) applyBinLocked(b, in, out int, latSum time.Duration, latCount int) {
	if in > 0 {
		c.inBins[b] += in
	}
	if out > 0 {
		c.outBins[b] += out
		c.latSum[b] += latSum
		c.latCount[b] += latCount
	}
}
