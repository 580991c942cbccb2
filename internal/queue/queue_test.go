package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
)

func ev(id tuple.ID) *tuple.Event {
	return &tuple.Event{ID: id, Root: id, Kind: tuple.Data}
}

// queued returns the queued events in FIFO order without removing them,
// read straight from the ring.
func queued(q *Queue) []*tuple.Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*tuple.Event, q.n)
	for i := range out {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return out
}

// closeOnly marks q closed without draining it. The engine only ever
// closes a queue through CloseAndDrain; tests use this to pin down how
// Pop and PopBatch treat events still queued when the close lands.
func closeOnly(q *Queue) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.nonEmptyOrClosed.Broadcast()
}

func TestFIFOOrder(t *testing.T) {
	q := New()
	for i := 1; i <= 100; i++ {
		if !q.Push(ev(tuple.ID(i))) {
			t.Fatal("Push rejected on open queue")
		}
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 1; i <= 100; i++ {
		e, ok := q.Pop()
		if !ok {
			t.Fatal("Pop reported closed on non-empty queue")
		}
		if e.ID != tuple.ID(i) {
			t.Fatalf("popped ID %d, want %d", e.ID, i)
		}
	}
}

func TestPopBlocksUntilPush(t *testing.T) {
	q := New()
	got := make(chan *tuple.Event, 1)
	go func() {
		e, ok := q.Pop()
		if ok {
			got <- e
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer block
	q.Push(ev(42))
	select {
	case e := <-got:
		if e.ID != 42 {
			t.Fatalf("got ID %d, want 42", e.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop never unblocked after Push")
	}
}

func TestCloseUnblocksPop(t *testing.T) {
	q := New()
	done := make(chan bool, 1)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.CloseAndDrain()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop returned ok=true after Close on empty queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop never unblocked after Close")
	}
}

func TestCloseDrainsRemainingItems(t *testing.T) {
	q := New()
	q.Push(ev(1))
	q.Push(ev(2))
	closeOnly(q)
	if q.Push(ev(3)) {
		t.Fatal("Push accepted after Close")
	}
	e1, ok1 := q.Pop()
	e2, ok2 := q.Pop()
	_, ok3 := q.Pop()
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("post-close pops = %v %v %v, want true true false", ok1, ok2, ok3)
	}
	if e1.ID != 1 || e2.ID != 2 {
		t.Fatalf("post-close drain out of order: %d %d", e1.ID, e2.ID)
	}
}

func TestClosedAccessor(t *testing.T) {
	q := New()
	if q.closed {
		t.Fatal("new queue reports closed")
	}
	q.CloseAndDrain()
	if !q.closed {
		t.Fatal("closed queue reports open")
	}
	q.CloseAndDrain() // idempotent
}

func TestSnapshotDoesNotConsume(t *testing.T) {
	q := New()
	q.Push(ev(1))
	q.Push(ev(2))
	snap := queued(q)
	if len(snap) != 2 || snap[0].ID != 1 || snap[1].ID != 2 {
		t.Fatalf("queued = %v", snap)
	}
	if q.Len() != 2 {
		t.Fatalf("reading the ring consumed items, Len = %d", q.Len())
	}
}

func TestConcurrentProducersSingleConsumer(t *testing.T) {
	q := New()
	const producers = 8
	const perProducer = 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(ev(tuple.ID(p*perProducer + i + 1)))
			}
		}()
	}
	go func() {
		wg.Wait()
		closeOnly(q)
	}()
	seen := make(map[tuple.ID]bool)
	perProducerLast := make(map[int]tuple.ID)
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		if seen[e.ID] {
			t.Fatalf("duplicate delivery of %d", e.ID)
		}
		seen[e.ID] = true
		// Per-producer FIFO: IDs from one producer must arrive ascending.
		p := (int(e.ID) - 1) / perProducer
		if last := perProducerLast[p]; e.ID <= last {
			t.Fatalf("producer %d events reordered: %d after %d", p, e.ID, last)
		}
		perProducerLast[p] = e.ID
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("consumed %d events, want %d", len(seen), producers*perProducer)
	}
}

func TestRingWrapAround(t *testing.T) {
	q := New()
	// Interleave pushes and pops so head circles the ring repeatedly
	// while the queue stays short enough not to grow.
	next := tuple.ID(1)
	want := tuple.ID(1)
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.Push(ev(next))
			next++
		}
		for i := 0; i < 3; i++ {
			e, ok := q.Pop()
			if !ok || e.ID != want {
				t.Fatalf("round %d: popped (%v, %v), want %d", round, e, ok, want)
			}
			want++
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after balanced rounds", q.Len())
	}
}

func TestRingShrinksAfterBurst(t *testing.T) {
	q := New()
	const burst = 4096
	for i := 1; i <= burst; i++ {
		q.Push(ev(tuple.ID(i)))
	}
	grown := len(q.buf)
	if grown < burst {
		t.Fatalf("Cap = %d after %d pushes", grown, burst)
	}
	for i := 1; i <= burst; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatalf("Pop failed at %d", i)
		}
	}
	if c := len(q.buf); c >= grown {
		t.Fatalf("Cap = %d after drain, want shrunk below %d", c, grown)
	}
}

func TestCloseAndDrainReturnsRemainder(t *testing.T) {
	q := New()
	for i := 1; i <= 5; i++ {
		q.Push(ev(tuple.ID(i)))
	}
	drained := q.CloseAndDrain()
	if len(drained) != 5 {
		t.Fatalf("drained %d, want 5", len(drained))
	}
	for i, e := range drained {
		if e.ID != tuple.ID(i+1) {
			t.Fatalf("drain out of order at %d: %d", i, e.ID)
		}
	}
	if !q.closed {
		t.Fatal("queue open after CloseAndDrain")
	}
	if q.Push(ev(9)) {
		t.Fatal("Push accepted after CloseAndDrain")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop returned an event after CloseAndDrain emptied the queue")
	}
}

// TestCloseAndDrainAccountsEveryPush is the regression test for the
// kill-vs-deliver race: with close and drain in one critical section,
// every concurrent Push is either captured by the drain or rejected —
// never silently lost. Run under -race.
func TestCloseAndDrainAccountsEveryPush(t *testing.T) {
	for round := 0; round < 100; round++ {
		q := New()
		const producers = 4
		const perProducer = 50
		var accepted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perProducer; i++ {
					if q.Push(ev(tuple.ID(p*perProducer + i + 1))) {
						accepted.Add(1)
					}
				}
			}()
		}
		drained := make(chan int, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			drained <- len(q.CloseAndDrain())
		}()
		close(start)
		wg.Wait()
		// Pushes that won the race before the close were drained; every
		// later push was rejected. Nothing vanishes in between.
		if got, want := int64(<-drained), accepted.Load(); got != want {
			t.Fatalf("round %d: drained %d events, accepted %d", round, got, want)
		}
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	q := New()
	e := ev(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(e)
		q.Pop()
	}
}

// BenchmarkQueueBurst measures a fill-then-drain cycle, the pattern the
// old slice implementation handled worst (its backing array never shrank).
func BenchmarkQueueBurst(b *testing.B) {
	q := New()
	e := ev(1)
	const burst = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			q.Push(e)
		}
		for j := 0; j < burst; j++ {
			q.Pop()
		}
	}
}

// Property: any push sequence pops back in identical order.
func TestFIFOProperty(t *testing.T) {
	f := func(ids []uint32) bool {
		q := New()
		for _, id := range ids {
			q.Push(ev(tuple.ID(id)))
		}
		for _, id := range ids {
			e, ok := q.Pop()
			if !ok || e.ID != tuple.ID(id) {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ring holds exactly the not-yet-popped suffix after k pops.
func TestSnapshotProperty(t *testing.T) {
	f := func(n, k uint8) bool {
		total := int(n%50) + 1
		pops := int(k) % total
		q := New()
		for i := 1; i <= total; i++ {
			q.Push(ev(tuple.ID(i)))
		}
		for i := 0; i < pops; i++ {
			q.Pop()
		}
		snap := queued(q)
		if len(snap) != total-pops {
			return false
		}
		for i, e := range snap {
			if e.ID != tuple.ID(pops+i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- batch operations -----------------------------------------------------

func evs(n int, base int) []*tuple.Event {
	out := make([]*tuple.Event, n)
	for i := range out {
		out[i] = ev(tuple.ID(base + i + 1))
	}
	return out
}

func TestPushBatchFIFOWithSingles(t *testing.T) {
	q := New()
	if !q.Push(ev(1)) {
		t.Fatal("Push rejected")
	}
	if !q.PushBatch(evs(5, 1)) { // IDs 2..6
		t.Fatal("PushBatch rejected on open queue")
	}
	if !q.Push(ev(7)) {
		t.Fatal("Push rejected")
	}
	if !q.PushBatch(nil) {
		t.Fatal("empty PushBatch must succeed")
	}
	for i := 1; i <= 7; i++ {
		e, ok := q.Pop()
		if !ok || e.ID != tuple.ID(i) {
			t.Fatalf("pop %d: got %v ok=%v", i, e, ok)
		}
	}
}

func TestPushBatchAllOrNothingOnClosed(t *testing.T) {
	q := New()
	q.CloseAndDrain()
	if q.PushBatch(evs(3, 0)) {
		t.Fatal("PushBatch accepted on closed queue")
	}
	if q.Len() != 0 {
		t.Fatalf("closed queue holds %d events after rejected batch", q.Len())
	}
}

// TestPushBatchPreSizesRing: a batch append grows the ring at most once,
// no matter how far the batch exceeds the current capacity.
func TestPushBatchPreSizesRing(t *testing.T) {
	q := New()
	q.Push(ev(1))
	before := len(q.buf) // minCap
	if !q.PushBatch(evs(1000, 1)) {
		t.Fatal("PushBatch rejected")
	}
	if len(q.buf) < 1001 {
		t.Fatalf("ring cap %d cannot hold %d queued events", len(q.buf), q.Len())
	}
	// The grow is a single resize: capacity is the first power-of-two
	// step that fits, not the result of repeated doubling-and-copying.
	if len(q.buf) != 1024 && before == minCap {
		t.Fatalf("ring cap %d, want one grow to 1024 from %d", len(q.buf), before)
	}
	for i := 1; i <= 1001; i++ {
		e, ok := q.Pop()
		if !ok || e.ID != tuple.ID(i) {
			t.Fatalf("pop %d: got %v ok=%v", i, e, ok)
		}
	}
}

func TestPopBatchDrainsFIFO(t *testing.T) {
	q := New()
	q.PushBatch(evs(10, 0))
	buf := make([]*tuple.Event, 4)
	want := tuple.ID(1)
	for popped := 0; popped < 10; {
		out, ok := q.PopBatch(buf)
		if !ok {
			t.Fatal("PopBatch reported closed on non-empty queue")
		}
		if len(out) > 4 {
			t.Fatalf("PopBatch returned %d > cap 4", len(out))
		}
		for _, e := range out {
			if e.ID != want {
				t.Fatalf("got ID %d, want %d", e.ID, want)
			}
			want++
		}
		popped += len(out)
	}
	q.CloseAndDrain()
	if _, ok := q.PopBatch(buf); ok {
		t.Fatal("PopBatch reported ok on closed empty queue")
	}
}

func TestPopBatchBlocksUntilPushBatch(t *testing.T) {
	q := New()
	got := make(chan int, 1)
	go func() {
		out, ok := q.PopBatch(make([]*tuple.Event, 8))
		if ok {
			got <- len(out)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer block
	q.PushBatch(evs(3, 0))
	select {
	case n := <-got:
		if n != 3 {
			t.Fatalf("PopBatch drained %d, want 3", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PopBatch never unblocked after PushBatch")
	}
}

// TestCloseAndDrainAccountsEveryBatchPush mirrors the single-push
// accounting guarantee for batches: with concurrent PushBatch racing a
// CloseAndDrain, every event is either drained (counted by the kill) or
// its whole batch was rejected (counted by the sender) — all-or-nothing,
// never a partial batch.
func TestCloseAndDrainAccountsEveryBatchPush(t *testing.T) {
	for round := 0; round < 200; round++ {
		q := New()
		const producers = 4
		const batches = 8
		const batchLen = 5
		var rejected atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < batches; i++ {
					if !q.PushBatch(evs(batchLen, i*batchLen)) {
						rejected.Add(int64(batchLen))
					}
				}
			}()
		}
		drained := make(chan int)
		go func() {
			<-start
			drained <- len(q.CloseAndDrain())
		}()
		close(start)
		n := <-drained
		wg.Wait()
		// Late rejections after the drain returned are still counted.
		leftover := q.Len()
		if total := n + leftover + int(rejected.Load()); total != producers*batches*batchLen {
			t.Fatalf("round %d: drained %d + leftover %d + rejected %d != %d",
				round, n, leftover, rejected.Load(), producers*batches*batchLen)
		}
	}
}

// BenchmarkQueueBurstBatch is BenchmarkQueueBurst through the batch API:
// one pre-sized ring append and one batched drain per burst.
func BenchmarkQueueBurstBatch(b *testing.B) {
	const burst = 1024
	batch := evs(burst, 0)
	buf := make([]*tuple.Event, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := New()
		q.PushBatch(batch)
		for drained := 0; drained < burst; {
			out, ok := q.PopBatch(buf)
			if !ok {
				b.Fatal("queue closed")
			}
			drained += len(out)
		}
	}
}
