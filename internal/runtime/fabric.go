package runtime

import (
	"container/heap"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// deliverBatchFn hands a whole delivered batch to the destination in one
// call (one queue lock, one consumer wakeup) and returns the events that
// could NOT be delivered — nil on the happy path; a rejected event is lost,
// as when Storm delivers to a killed worker. The fabric counts and
// discards the rejects.
type deliverBatchFn func(to topology.Instance, evs []*tuple.Event) (rejected []*tuple.Event)

// slotFn resolves an instance key's current slot (placement changes
// during rebalance).
type slotFn func(instanceKey string) cluster.SlotRef

// slotInstFn resolves a destination instance's current slot without
// going through its string key — Instance.String() on every send was a
// measurable allocation on the hot path.
type slotInstFn func(inst topology.Instance) cluster.SlotRef

// fabric moves events between instances, delaying each delivery by the
// network latency of the endpoints' current placement while preserving
// per-(sender,receiver) FIFO order — the property the sequential
// checkpoint waves (rearguard PREPARE, swept COMMIT) rely on.
//
// It is a sharded delivery scheduler: a fixed pool of shard goroutines
// (default GOMAXPROCS), each owning a min-heap of pending deliveries
// keyed by (deliverAt, enqueue seq). Links hash to shards, so the
// goroutine count is O(shards) regardless of topology size.
//
// The unit of work is a per-link micro-batch, not a single event, and
// batching is ack-clocked (Nagle's self-clocking rule, RFC 896): Send
// flushes at once when its link has no batch in flight; otherwise it
// appends to the link's staging vector, which flushes when it reaches
// batchSize or when the shard hands off the link's last in-flight batch,
// whichever comes first. An idle link therefore pays no batching delay,
// and a busy one coalesces exactly the events that arrived during its
// previous batch's wire time. A flushed batch costs one heap push, one
// scheduler pop, and one destination hand-off regardless of how many
// events it carries. A batch of one (batchSize 1) is full as soon as it
// holds its event, so Send always flushes it inline.
//
// The FIFO guarantee holds because (a) all deliveries of a link land on
// one shard and batches flush in staging order, (b) a link's per-event
// deliverAt is clamped monotone non-decreasing across batch boundaries
// (a rebalance can shorten the latency of a later send; the clamp models
// the earlier event still occupying the wire), and (c) equal deadlines
// pop in flush-seq order.
type fabric struct {
	clock        timex.Clock
	net          cluster.NetworkModel
	slotOf       slotFn
	slotOfInst   slotInstFn
	deliverBatch deliverBatchFn
	// discard is the last owner's release of an event lost in the fabric
	// (the engine's discard, which also counts it out of the live count).
	discard func(*tuple.Event)

	// batchSize is the flush watermark of a link with a batch in flight;
	// 1 makes every Send flush its event inline as a batch of one.
	batchSize int

	shards []*fabShard
	seed   maphash.Seed
	wg     sync.WaitGroup

	// start anchors the elapsed-run-time coordinate of the network
	// model's partition windows; sendSeq numbers deliveries for its
	// deterministic per-delivery jitter.
	start   time.Time
	sendSeq atomic.Uint64

	// dropped counts events lost at delivery (down executor or closed
	// fabric); with acking on, these are exactly the events the acker
	// later replays.
	dropped atomic.Uint64
}

// fabricParams bundles the fabric's construction knobs.
type fabricParams struct {
	clock        timex.Clock
	net          cluster.NetworkModel
	slotOf       slotFn
	slotOfInst   slotInstFn
	deliverBatch deliverBatchFn
	discard      func(*tuple.Event) // nil means Release
	shards       int                // 0 means GOMAXPROCS
	batchSize    int                // <= 1 means batches of one
}

type linkKey struct {
	from string
	to   topology.Instance
}

// fabBatch is one scheduled per-link batch, ordered by (at, seq) where
// at is the clamped deliverAt of its first undelivered event. Batches
// are pooled, and their event vectors come from the tuple vector pool,
// so the steady-state path does not allocate.
type fabBatch struct {
	vec *tuple.Vec
	ats []time.Time // per-event clamped deliverAt, parallel to vec.Ev
	st  *linkStage  // the link the batch travels on
	// start indexes the first undelivered event: when only a prefix of
	// the batch is due, the prefix is delivered and the batch is re-keyed
	// at ats[start] — later batches of the link carry larger seqs and
	// deadlines >= this batch's tail, so FIFO is preserved.
	start int
	at    time.Time // == ats[start]; the heap key
	seq   uint64
}

var batchPool = sync.Pool{New: func() any { return new(fabBatch) }}

func (b *fabBatch) release() {
	b.vec.Release()
	*b = fabBatch{ats: b.ats[:0]}
	batchPool.Put(b)
}

// linkStage is one link's state on its shard, guarded by the shard lock:
// the staging vector events wait in while an earlier batch of the link is
// in flight, the count of such batches, and the link's FIFO clamp. It is
// also the link's handle: link creates it once, and Send takes it, so the
// send path resolves neither the shard nor the link.
type linkStage struct {
	key linkKey
	sh  *fabShard  // the shard every delivery of the link goes through
	vec *tuple.Vec // nil when nothing is staged
	// inFlight counts the link's batches flushed but not yet fully handed
	// off (in the intake or the heap). A non-empty stage always has one in
	// flight — Send flushes on an idle link, and the hand-off of the last
	// in-flight batch flushes the stage — so the stage never needs a timer
	// and Close drains it by draining the heap.
	inFlight int
	// lastAt is the link's last clamped deliverAt, applied at intake drain.
	lastAt time.Time
}

// shardBuffer is the per-shard in-flight capacity (staged + scheduled);
// senders block when a shard is saturated (network backpressure,
// previously per-link).
const shardBuffer = 1 << 16

// fabShard is one scheduler shard: a single goroutine draining a min-heap
// of pending batches in deadline order.
//
// Senders do not touch the heap: they stage events on their link's stage
// (O(1) under the lock), flush batches onto the intake slice, and wake
// the consumer only when it is actually parked or sleeping past a new
// deadline — a burst of sends costs one wakeup and one heap push per
// batch instead of one signal and one O(log n) push per event.
type fabShard struct {
	mu       sync.Mutex
	notEmpty *sync.Cond // consumer waits for work
	notFull  *sync.Cond // senders wait out backpressure

	// links is read only by link, which keeps one stage per pair.
	links  map[linkKey]*linkStage
	intake []*fabBatch // flushed batches, drained wholesale by the consumer
	h      batchHeap
	queued int // events staged + scheduled (backpressure accounting)

	seq     uint64        // monotone flush counter (heap tie-break)
	sleepTo time.Time     // deadline the consumer sleeps toward (zero: not sleeping)
	waiting bool          // consumer is parked on notEmpty
	wake    chan struct{} // interrupts the consumer's sleep
	closed  bool
}

// newFabric builds a fabric and starts the shard goroutines; Close joins
// them.
func newFabric(p fabricParams) *fabric {
	shards := p.shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	slotOfInst := p.slotOfInst
	if slotOfInst == nil {
		slotOfInst = func(inst topology.Instance) cluster.SlotRef { return p.slotOf(inst.String()) }
	}
	discard := p.discard
	if discard == nil {
		discard = (*tuple.Event).Release
	}
	batchSize := max(p.batchSize, 1)
	f := &fabric{
		clock:        p.clock,
		net:          p.net,
		slotOf:       p.slotOf,
		slotOfInst:   slotOfInst,
		deliverBatch: p.deliverBatch,
		discard:      discard,
		batchSize:    batchSize,
		shards:       make([]*fabShard, shards),
		seed:         maphash.MakeSeed(),
		start:        p.clock.Now(),
	}
	for i := range f.shards {
		sh := &fabShard{
			links: make(map[linkKey]*linkStage),
			wake:  make(chan struct{}, 1),
		}
		sh.notEmpty = sync.NewCond(&sh.mu)
		sh.notFull = sync.NewCond(&sh.mu)
		f.shards[i] = sh
		f.wg.Add(1)
		go f.runShard(sh)
	}
	return f
}

// link returns the handle of the link from the sender key to the
// destination, creating its stage on the owning shard the first time.
// Every route between one (sender, destination) pair gets the same stage,
// data and checkpoint alike: per-link FIFO holds only within one stage,
// and a COMMIT on a stage of its own could overtake the data sent before
// it and break the sequential rearguard.
func (f *fabric) link(fromKey string, to topology.Instance) *linkStage {
	key := linkKey{from: fromKey, to: to}
	h := maphash.String(f.seed, key.from)
	h ^= maphash.String(f.seed, key.to.Task)
	h = tuple.Mix64(h ^ uint64(key.to.Index))
	sh := f.shards[h%uint64(len(f.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.links[key]
	if st == nil {
		st = &linkStage{key: key, sh: sh}
		sh.links[key] = st
	}
	return st
}

// Send schedules ev for delivery over the link st (see link), after the
// one-way latency between its endpoints' current slots. On an idle link
// the event flushes at once as a batch; behind an in-flight batch it is
// staged and flushes with the stage (see fabric). The latency is computed
// when the batch flushes — the wire frames a batch, then sends it.
// Sending concurrently with Close is safe: the event is dropped and
// counted.
func (f *fabric) Send(st *linkStage, ev *tuple.Event) {
	sh := st.sh
	sh.mu.Lock()
	for sh.queued >= shardBuffer && !sh.closed {
		sh.notFull.Wait()
	}
	if sh.closed {
		sh.mu.Unlock()
		f.drop(ev) // dropped before hand-off
		return
	}
	if st.vec == nil {
		st.vec = tuple.GetVec()
	}
	st.vec.Ev = append(st.vec.Ev, ev)
	sh.queued++
	if st.inFlight > 0 && len(st.vec.Ev) < f.batchSize {
		// The hand-off of the link's in-flight batch flushes this stage.
		sh.mu.Unlock()
		return
	}
	// Wake the consumer if it is parked, or sleeping past the flushed
	// batch's first delivery. That at is pre-clamp, which can only be
	// earlier than its final deadline, so the sleep interrupt errs on the
	// safe (spurious wake) side.
	at := f.flushStage(sh, st).ats[0]
	if sh.waiting {
		sh.notEmpty.Signal()
	} else if !sh.sleepTo.IsZero() && at.Before(sh.sleepTo) {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
	sh.mu.Unlock()
}

// flushStage moves a link's staged vector into the intake as a scheduled
// batch, computing each event's deliverAt against the link's CURRENT
// placement — one clock read, one placement resolution, and one sendSeq
// reservation for the whole batch; the per-event network jitter stays
// per-event (seq-keyed), so a seeded run delivers with the same jitter
// sequence regardless of batch size. Callers hold sh.mu.
func (f *fabric) flushStage(sh *fabShard, st *linkStage) *fabBatch {
	vec := st.vec
	st.vec = nil
	st.inFlight++

	now := f.clock.Now()
	from := f.slotOf(st.key.from)
	toSlot := f.slotOfInst(st.key.to)
	elapsed := now.Sub(f.start)
	n := uint64(len(vec.Ev))
	seq := f.sendSeq.Add(n) - n + 1

	b := batchPool.Get().(*fabBatch)
	b.vec = vec
	b.st = st
	b.ats = b.ats[:0]
	for i := range vec.Ev {
		lat := f.net.LatencyAt(from, toSlot, seq+uint64(i), elapsed)
		b.ats = append(b.ats, now.Add(lat))
	}
	sh.intake = append(sh.intake, b)
	return b
}

// drainIntake moves flushed batches into the heap, applying the per-link
// FIFO clamp per event in flush order (the intake preserves staging
// order, so the clamp result is identical to clamping each event at its
// own enqueue). Callers hold sh.mu.
func (f *fabric) drainIntake(sh *fabShard) {
	for i, b := range sh.intake {
		last := b.st.lastAt
		for j := range b.ats {
			if b.ats[j].Before(last) {
				b.ats[j] = last
			}
			last = b.ats[j]
		}
		b.st.lastAt = last
		sh.seq++
		b.seq = sh.seq
		b.start = 0
		b.at = b.ats[0]
		heap.Push(&sh.h, b)
		sh.intake[i] = nil
	}
	sh.intake = sh.intake[:0]
}

// runShard drains one shard in deadline order, delaying each batch to
// its head deadline with sub-oversleep precision (per-hop latencies are
// a millisecond of paper time, far below the OS timer's oversleep under
// a compressed clock). Only the due prefix of a batch is delivered; the
// remainder is re-keyed at its next deadline, so per-event delivery
// instants are exactly what a batch-of-one fabric would have produced for
// the same (deliverAt, clamp) sequence; each handed-off event carries its
// deliverAt in Event.DeliverAt, so a late hand-off (this goroutine or the
// executor's descheduled) is not charged as service time downstream.
// Handing off a link's last
// in-flight batch flushes the link's stage in the same critical section,
// so staged events ride directly behind it. After Close it keeps draining
// until everything — staged events included — is delivered.
func (f *fabric) runShard(sh *fabShard) {
	defer f.wg.Done()
	for {
		sh.mu.Lock()
		var b *fabBatch
		var now time.Time
		for {
			now = f.clock.Now()
			f.drainIntake(sh)
			if len(sh.h) > 0 && !sh.h[0].at.After(now) {
				b = sh.h[0]
				break
			}
			if len(sh.h) == 0 {
				if sh.closed {
					sh.mu.Unlock()
					return // closed and drained: a non-empty stage has a batch in the heap
				}
				sh.waiting = true
				sh.notEmpty.Wait()
				sh.waiting = false
				continue
			}
			// Sleep toward the earliest deadline, interruptible by a
			// newly flushed earlier one.
			next := sh.h[0].at
			sh.sleepTo = next
			sh.mu.Unlock()
			timex.WaitUntil(f.clock, next, sh.wake)
			sh.mu.Lock()
			sh.sleepTo = time.Time{}
		}
		// Deliver the due prefix of the head batch.
		evs := b.vec.Ev
		k := b.start
		for k < len(evs) && !b.ats[k].After(now) {
			evs[k].DeliverAt = b.ats[k]
			k++
		}
		due := evs[b.start:k]
		done := k == len(evs)
		if done {
			heap.Pop(&sh.h)
			b.st.inFlight--
			if b.st.inFlight == 0 && b.st.vec != nil {
				f.flushStage(sh, b.st)
			}
		} else {
			b.start = k
			b.at = b.ats[k]
			heap.Fix(&sh.h, 0)
		}
		sh.queued -= len(due)
		sh.notFull.Broadcast()
		sh.mu.Unlock()
		f.handOff(b.st.key.to, due)
		if done {
			b.release()
		}
	}
}

// handOff delivers a due batch to its destination in one call (one
// queue append, one wakeup). Rejected events are lost at delivery.
func (f *fabric) handOff(to topology.Instance, evs []*tuple.Event) {
	for _, ev := range f.deliverBatch(to, evs) {
		f.drop(ev)
	}
}

// drop counts an event lost in the fabric and discards it: the fabric
// was its last owner.
func (f *fabric) drop(ev *tuple.Event) {
	f.dropped.Add(1)
	f.discard(ev)
}

// Dropped reports events lost at delivery so far.
func (f *fabric) Dropped() uint64 { return f.dropped.Load() }

// ShardCount reports the number of scheduler shards (and goroutines).
func (f *fabric) ShardCount() int { return len(f.shards) }

// Close stops the fabric after all queued deliveries — staged batches
// included — drain. Concurrent Sends are safe: once a shard is marked
// closed, its senders drop (and count) instead of enqueueing — there is
// no channel to race against.
func (f *fabric) Close() {
	for _, sh := range f.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.notEmpty.Broadcast()
		sh.notFull.Broadcast()
		sh.mu.Unlock()
	}
	f.wg.Wait()
}

// batchHeap is a min-heap of pending batches ordered by (at, seq); the
// seq tie-break keeps equal deadlines in flush order, which within a
// link is FIFO order.
type batchHeap []*fabBatch

func (h batchHeap) Len() int { return len(h) }
func (h batchHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h batchHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *batchHeap) Push(x any)   { *h = append(*h, x.(*fabBatch)) }
func (h *batchHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return b
}
