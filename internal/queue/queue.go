// Package queue provides the single-consumer blocking FIFO used as the
// input queue of every task executor.
//
// Storm's executor input queue is single-threaded: exactly one goroutine
// pops and processes events, while any number of upstream links push. The
// migration strategies lean on two extra operations that ordinary Go
// channels cannot express:
//
//   - CloseAndDrain: an executor kill must reject further pushes and
//     capture the queued remainder in one atomic step, so no concurrent
//     push can slip between the two and be lost uncounted.
//   - Len inspection for drain diagnostics and metrics.
//
// The batch is the only unit: PushBatch and PopBatch are the one push and
// the one pop implementation, and Push and Pop are batches of one.
package queue

import (
	"sync"

	"repro/internal/tuple"
)

// Queue is an unbounded multi-producer single-consumer FIFO of events,
// backed by a growable ring buffer. The earlier slice-based implementation
// (items = items[1:]) retained the whole backing array for the lifetime of
// the queue — under sustained load the array only ever grows; the ring
// reuses slots and shrinks again after bursts drain.
// The zero value is not usable; construct with New.
type Queue struct {
	mu               sync.Mutex
	nonEmptyOrClosed *sync.Cond
	buf              []*tuple.Event // ring storage; len(buf) is the capacity
	head             int            // index of the oldest event
	n                int            // number of queued events
	closed           bool
}

// minCap is the smallest non-zero ring capacity; shrinking stops here so
// steady trickles of events do not thrash allocations. It holds one full
// delivered batch (the fabric's default of 64 events), so a flow that
// arrives a batch at a time never regrows the ring.
const minCap = 64

// New returns an empty open queue.
func New() *Queue {
	q := &Queue{}
	q.nonEmptyOrClosed = sync.NewCond(&q.mu)
	return q
}

// Push appends e to the tail as a batch of one. It reports false if the
// queue is closed (the event is dropped), which models delivery to a
// killed executor.
func (q *Queue) Push(e *tuple.Event) bool { return q.PushBatch([]*tuple.Event{e}) }

// PushBatch appends evs to the tail as one atomic ring append: one lock
// acquisition, at most one ring grow (the ring is pre-sized to hold the
// whole batch before any element lands), and one consumer wakeup. It is
// all-or-nothing — it reports false and enqueues nothing if the queue is
// closed, so a delivery batch either lands intact or the sender accounts
// for every event. An empty batch is a no-op reporting true.
func (q *Queue) PushBatch(evs []*tuple.Event) bool {
	if len(evs) == 0 {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if need := q.n + len(evs); need > len(q.buf) {
		capacity := max(minCap, 2*len(q.buf))
		for capacity < need {
			capacity *= 2
		}
		q.resize(capacity)
	}
	for i, e := range evs {
		q.buf[(q.head+q.n+i)%len(q.buf)] = e
	}
	q.n += len(evs)
	q.nonEmptyOrClosed.Signal()
	return true
}

// PopBatch blocks until at least one event is available (or the queue is
// closed), then moves up to cap(buf) events into buf in FIFO order and
// returns the filled prefix. One lock acquisition drains a whole
// delivered batch — the consumer-side mirror of PushBatch. It returns
// ok=false only when the queue is closed and empty.
func (q *Queue) PopBatch(buf []*tuple.Event) (out []*tuple.Event, ok bool) {
	if cap(buf) == 0 {
		return nil, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.nonEmptyOrClosed.Wait()
	}
	if q.n == 0 {
		return nil, false
	}
	out = buf[:0]
	k := min(cap(buf), q.n)
	for i := 0; i < k; i++ {
		idx := (q.head + i) % len(q.buf)
		out = append(out, q.buf[idx])
		q.buf[idx] = nil // allow GC of the drained slot
	}
	q.head = (q.head + k) % len(q.buf)
	q.n -= k
	// Shrink once for the whole drain instead of per element.
	capacity := len(q.buf)
	for capacity > minCap && q.n <= capacity/4 {
		capacity /= 2
	}
	if capacity != len(q.buf) {
		q.resize(max(capacity, minCap))
	}
	return out, true
}

// Pop blocks until an event is available or the queue is closed, and
// removes it as a batch of one. It reports ok=false only when the queue is
// closed and empty.
func (q *Queue) Pop() (e *tuple.Event, ok bool) {
	var one [1]*tuple.Event
	out, ok := q.PopBatch(one[:])
	if !ok {
		return nil, false
	}
	return out[0], true
}

// resize moves the queued events into a fresh ring of the given capacity
// (>= q.n). Callers hold q.mu.
func (q *Queue) resize(capacity int) {
	buf := make([]*tuple.Event, capacity)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// Len returns the number of queued events.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// CloseAndDrain atomically closes the queue and removes all queued events,
// returning them in FIFO order. Because both happen under one critical
// section, every concurrent Push lands either before the drain (and is
// returned here) or after the close (and is rejected, so the sender counts
// the drop) — an event can never slip through uncounted. This is the kill
// path of an executor.
func (q *Queue) CloseAndDrain() []*tuple.Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.nonEmptyOrClosed.Broadcast()
	}
	out := make([]*tuple.Event, q.n)
	for i := range out {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head, q.n = nil, 0, 0
	return out
}
