package runtime

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// collectingDeliver records deliveries per destination, and the IDs of
// every accepted hand-off in hand-off order, optionally rejecting some
// instances.
type collectingDeliver struct {
	mu      sync.Mutex
	got     map[topology.Instance][]*tuple.Event
	batches [][]tuple.ID
	reject  map[topology.Instance]bool
}

func newCollectingDeliver() *collectingDeliver {
	return &collectingDeliver{
		got:    make(map[topology.Instance][]*tuple.Event),
		reject: make(map[topology.Instance]bool),
	}
}

func (c *collectingDeliver) deliverBatch(to topology.Instance, evs []*tuple.Event) []*tuple.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reject[to] {
		return evs
	}
	c.got[to] = append(c.got[to], evs...)
	ids := make([]tuple.ID, len(evs))
	for i, ev := range evs {
		ids[i] = ev.ID
	}
	c.batches = append(c.batches, ids)
	return nil
}

func (c *collectingDeliver) handOffs() [][]tuple.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]tuple.ID(nil), c.batches...)
}

func (c *collectingDeliver) events(to topology.Instance) []*tuple.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*tuple.Event, len(c.got[to]))
	copy(out, c.got[to])
	return out
}

// testFabric builds a fabric with small batches (size 4) so the
// general-purpose tests exercise the batched staging, flush, and drain
// paths.
func testFabric(col *collectingDeliver) (*fabric, *timex.ScaledClock) {
	clock := timex.NewScaled(1)
	slots := func(key string) cluster.SlotRef {
		// Everyone on one VM except "far" senders.
		if key == "far[0]" {
			return cluster.SlotRef{VM: "vm-9", Slot: 0}
		}
		return cluster.SlotRef{VM: "vm-0", Slot: 0}
	}
	net := cluster.NetworkModel{
		SameSlot: 0,
		IntraVM:  time.Millisecond,
		InterVM:  5 * time.Millisecond,
	}
	f := newFabric(fabricParams{
		clock: clock, net: net, slotOf: slots, deliverBatch: col.deliverBatch,
		batchSize: 4,
	})
	return f, clock
}

func TestFabricDeliversInFIFOOrder(t *testing.T) {
	col := newCollectingDeliver()
	f, _ := testFabric(col)
	defer f.Close()
	to := topology.Instance{Task: "T", Index: 0}
	const n = 200
	for i := 1; i <= n; i++ {
		f.Send(f.link("src[0]", to), &tuple.Event{ID: tuple.ID(i), Kind: tuple.Data})
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(col.events(to)) < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", len(col.events(to)), n)
		}
		time.Sleep(time.Millisecond)
	}
	for i, ev := range col.events(to) {
		if ev.ID != tuple.ID(i+1) {
			t.Fatalf("delivery %d has ID %d (reordered)", i, ev.ID)
		}
	}
}

func TestFabricCountsDrops(t *testing.T) {
	col := newCollectingDeliver()
	f, _ := testFabric(col)
	defer f.Close()
	down := topology.Instance{Task: "Down", Index: 0}
	col.mu.Lock()
	col.reject[down] = true
	col.mu.Unlock()
	for i := 0; i < 10; i++ {
		f.Send(f.link("src[0]", down), &tuple.Event{ID: tuple.ID(i + 1), Kind: tuple.Data})
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.Dropped() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("Dropped = %d, want 10", f.Dropped())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFabricChargesLatency(t *testing.T) {
	col := newCollectingDeliver()
	f, clock := testFabric(col)
	defer f.Close()
	to := topology.Instance{Task: "T", Index: 0}
	start := clock.Now()
	f.Send(f.link("far[0]", to), &tuple.Event{ID: 1, Kind: tuple.Data}) // inter-VM: 5ms
	deadline := time.Now().Add(5 * time.Second)
	for len(col.events(to)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never delivered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if elapsed := clock.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("inter-VM delivery took %v, want >= ~5ms", elapsed)
	}
}

func TestFabricSendAfterCloseIsDropped(t *testing.T) {
	col := newCollectingDeliver()
	f, _ := testFabric(col)
	f.Close()
	f.Send(f.link("src[0]", topology.Instance{Task: "T", Index: 0}), &tuple.Event{ID: 1})
	if f.Dropped() != 1 {
		t.Fatalf("Dropped = %d after post-close send", f.Dropped())
	}
	f.Close() // idempotent
}

func TestFabricConcurrentSenders(t *testing.T) {
	col := newCollectingDeliver()
	f, _ := testFabric(col)
	defer f.Close()
	to := topology.Instance{Task: "T", Index: 0}
	const senders = 8
	const each = 100
	var wg sync.WaitGroup
	var idc atomic.Uint64
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := string(rune('a'+s)) + "[0]"
			for i := 0; i < each; i++ {
				f.Send(f.link(from, to), &tuple.Event{ID: tuple.ID(idc.Add(1)), Kind: tuple.Data})
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for len(col.events(to)) < senders*each {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", len(col.events(to)), senders*each)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFabricFIFOStress is the dedicated per-link FIFO stress test for the
// sharded scheduler: many senders fan into many destinations while the
// placement (and hence latency) of the endpoints flips mid-stream, so
// later sends on a link can compute a *shorter* latency than earlier ones.
// The monotone deadline clamp must still deliver every link in send order
// — the ordering contract the sequential checkpoint waves rely on.
func TestFabricFIFOStress(t *testing.T) {
	col := newCollectingDeliver()
	clock := timex.NewScaled(1)
	// Placement flips between a far VM (5ms) and the local VM (1ms) on
	// every lookup, exercising out-of-order deliverAt computations.
	var flip atomic.Uint64
	slots := func(key string) cluster.SlotRef {
		if flip.Add(1)%2 == 0 {
			return cluster.SlotRef{VM: "vm-9", Slot: 0}
		}
		return cluster.SlotRef{VM: "vm-0", Slot: 0}
	}
	net := cluster.NetworkModel{SameSlot: 0, IntraVM: time.Millisecond, InterVM: 5 * time.Millisecond}
	f := newFabric(fabricParams{
		clock: clock, net: net, slotOf: slots, deliverBatch: col.deliverBatch, shards: 4,
		batchSize: 4,
	})
	defer f.Close()

	const senders = 8
	const dests = 8
	const each = 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := string(rune('a'+s)) + "[0]"
			for i := 1; i <= each; i++ {
				for d := 0; d < dests; d++ {
					to := topology.Instance{Task: "T", Index: d}
					// Encode (sender, sequence) in the ID to check per-link order.
					f.Send(f.link(from, to), &tuple.Event{ID: tuple.ID(s*1_000_000 + i), Kind: tuple.Data})
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for d := 0; d < dests; d++ {
		to := topology.Instance{Task: "T", Index: d}
		for len(col.events(to)) < senders*each {
			if time.Now().After(deadline) {
				t.Fatalf("dest %d: delivered %d of %d", d, len(col.events(to)), senders*each)
			}
			time.Sleep(time.Millisecond)
		}
		// Per-link FIFO: for each sender, IDs must arrive in ascending order.
		last := make(map[int]tuple.ID)
		for _, ev := range col.events(to) {
			s := int(ev.ID) / 1_000_000
			if prev, ok := last[s]; ok && ev.ID <= prev {
				t.Fatalf("dest %d: link from sender %d reordered: %d after %d", d, s, ev.ID, prev)
			}
			last[s] = ev.ID
		}
	}
}

// TestFabricFIFOStressUnderJitter repeats the FIFO stress with
// deterministic per-delivery network jitter on top of the flipping
// placement: consecutive sends on one link can now differ by up to the
// full jitter amplitude in either direction, which is exactly the
// reordering pressure the monotone clamp must absorb.
func TestFabricFIFOStressUnderJitter(t *testing.T) {
	col := newCollectingDeliver()
	clock := timex.NewScaled(1)
	var flip atomic.Uint64
	slots := func(key string) cluster.SlotRef {
		if flip.Add(1)%2 == 0 {
			return cluster.SlotRef{VM: "vm-9", Slot: 0}
		}
		return cluster.SlotRef{VM: "vm-0", Slot: 0}
	}
	net := cluster.NetworkModel{
		SameSlot: 0, IntraVM: time.Millisecond, InterVM: 5 * time.Millisecond,
		Jitter: 4 * time.Millisecond, JitterSeed: 42,
	}
	f := newFabric(fabricParams{
		clock: clock, net: net, slotOf: slots, deliverBatch: col.deliverBatch, shards: 4,
		batchSize: 4,
	})
	defer f.Close()

	const senders = 8
	const dests = 4
	const each = 75
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := string(rune('a'+s)) + "[0]"
			for i := 1; i <= each; i++ {
				for d := 0; d < dests; d++ {
					to := topology.Instance{Task: "T", Index: d}
					f.Send(f.link(from, to), &tuple.Event{ID: tuple.ID(s*1_000_000 + i), Kind: tuple.Data})
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for d := 0; d < dests; d++ {
		to := topology.Instance{Task: "T", Index: d}
		for len(col.events(to)) < senders*each {
			if time.Now().After(deadline) {
				t.Fatalf("dest %d: delivered %d of %d", d, len(col.events(to)), senders*each)
			}
			time.Sleep(time.Millisecond)
		}
		last := make(map[int]tuple.ID)
		for _, ev := range col.events(to) {
			s := int(ev.ID) / 1_000_000
			if prev, ok := last[s]; ok && ev.ID <= prev {
				t.Fatalf("dest %d: link from sender %d reordered under jitter: %d after %d", d, s, ev.ID, prev)
			}
			last[s] = ev.ID
		}
	}
}

// TestFabricPartitionStallsDelivery: a delivery sent into an active
// cross-VM partition window is not lost — it completes after the window
// heals, one LAN hop later.
func TestFabricPartitionStallsDelivery(t *testing.T) {
	col := newCollectingDeliver()
	clock := timex.NewScaled(1)
	slots := func(key string) cluster.SlotRef {
		if key == "far[0]" {
			return cluster.SlotRef{VM: "vm-9", Slot: 0}
		}
		return cluster.SlotRef{VM: "vm-0", Slot: 0}
	}
	net := cluster.NetworkModel{
		SameSlot: 0, IntraVM: time.Millisecond, InterVM: 2 * time.Millisecond,
		Partitions: []cluster.Partition{{From: 0, Until: 60 * time.Millisecond}},
	}
	// Full-size batches: the lone event flushes at send time on its idle
	// link, and its partition stall is computed at flush time.
	f := newFabric(fabricParams{
		clock: clock, net: net, slotOf: slots, deliverBatch: col.deliverBatch, shards: 2,
		batchSize: 64,
	})
	defer f.Close()
	to := topology.Instance{Task: "T", Index: 0}
	start := clock.Now()
	f.Send(f.link("far[0]", to), &tuple.Event{ID: 1, Kind: tuple.Data})
	deadline := time.Now().Add(5 * time.Second)
	for len(col.events(to)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partitioned delivery never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := clock.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("partitioned delivery arrived after %v, want >= ~60ms (post-heal)", elapsed)
	}
}

// TestFabricSendCloseRace is the regression test for the old
// send-on-closed-channel panic: Send hammered concurrently with Close
// must neither panic nor lose accounting — after everything settles,
// every sent event was either delivered or counted as dropped.
func TestFabricSendCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		col := newCollectingDeliver()
		f, _ := testFabric(col)
		const senders = 8
		const each = 50
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < senders; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				from := string(rune('a'+s)) + "[0]"
				to := topology.Instance{Task: "T", Index: s % 4}
				for i := 0; i < each; i++ {
					f.Send(f.link(from, to), &tuple.Event{ID: tuple.ID(s*each + i + 1), Kind: tuple.Data})
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f.Close()
		}()
		close(start)
		wg.Wait()
		f.Close() // idempotent; all shards drained after this
		delivered := 0
		col.mu.Lock()
		for _, evs := range col.got {
			delivered += len(evs)
		}
		col.mu.Unlock()
		if got, want := delivered+int(f.Dropped()), senders*each; got != want {
			t.Fatalf("round %d: delivered %d + dropped %d != sent %d",
				round, delivered, f.Dropped(), want)
		}
	}
}

// TestFabricGoroutineCountIsOShards proves the tentpole property: the
// fabric's goroutine count is the shard count, independent of how many
// (sender, receiver) links exist. The old per-link design would spawn
// 4096 goroutines here.
func TestFabricGoroutineCountIsOShards(t *testing.T) {
	col := newCollectingDeliver()
	clock := timex.NewScaled(1)
	slots := func(key string) cluster.SlotRef { return cluster.SlotRef{VM: "vm-0", Slot: 0} }
	net := cluster.NetworkModel{SameSlot: 0, IntraVM: 0, InterVM: 0}
	before := runtime.NumGoroutine()
	const shards = 8
	f := newFabric(fabricParams{
		clock: clock, net: net, slotOf: slots, deliverBatch: col.deliverBatch, shards: shards,
		batchSize: 64,
	})
	const links = 4096 // 64 senders x 64 destinations
	for s := 0; s < 64; s++ {
		from := fmt.Sprintf("s%d[0]", s)
		for d := 0; d < 64; d++ {
			f.Send(f.link(from, topology.Instance{Task: "T", Index: d}), &tuple.Event{ID: 1, Kind: tuple.Data})
		}
	}
	after := runtime.NumGoroutine()
	if growth := after - before; growth > shards+4 {
		t.Fatalf("goroutine growth %d for %d links, want <= shards (%d) + slack", growth, links, shards)
	}
	if f.ShardCount() != shards {
		t.Fatalf("ShardCount = %d, want %d", f.ShardCount(), shards)
	}
	f.Close()
}

// BenchmarkFabricThroughput measures delivery throughput across many
// concurrent links with zero modeled latency (pure scheduler overhead)
// at the default batch cap (64).
func BenchmarkFabricThroughput(b *testing.B) {
	benchFabricThroughput(b, 64)
}

// BenchmarkFabricThroughputUnbatched is the same run with batches of one
// (BatchMaxSize=1), each flushed inline at send time; the gap against
// BenchmarkFabricThroughput is the amortization win.
func BenchmarkFabricThroughputUnbatched(b *testing.B) {
	benchFabricThroughput(b, 1)
}

func benchFabricThroughput(b *testing.B, batchSize int) {
	var delivered atomic.Uint64
	clock := timex.NewScaled(1)
	slots := func(key string) cluster.SlotRef { return cluster.SlotRef{VM: "vm-0", Slot: 0} }
	net := cluster.NetworkModel{}
	f := newFabric(fabricParams{
		clock: clock, net: net, slotOf: slots,
		deliverBatch: func(to topology.Instance, evs []*tuple.Event) []*tuple.Event {
			delivered.Add(uint64(len(evs)))
			return nil
		},
		batchSize: batchSize,
	})
	defer f.Close()
	ev := &tuple.Event{ID: 1, Kind: tuple.Data}
	links := benchLinks(f)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f.Send(links[i%64], ev)
			i++
		}
	})
	b.StopTimer()
}

// benchLinks precomputes the links the send benchmarks use, from 16
// senders to 64 destinations (destination d from sender d%16), so they
// measure Send, not link set-up.
func benchLinks(f *fabric) []*linkStage {
	out := make([]*linkStage, 64)
	for d := range out {
		out[d] = f.link(fmt.Sprintf("s%d[0]", d%16), topology.Instance{Task: "T", Index: d})
	}
	return out
}

// BenchmarkFabricThroughputLatency measures throughput with the realistic
// latency model, where deliveries must be scheduled, not just forwarded.
func BenchmarkFabricThroughputLatency(b *testing.B) {
	var delivered atomic.Uint64
	clock := timex.NewScaled(1)
	slots := func(key string) cluster.SlotRef { return cluster.SlotRef{VM: "vm-0", Slot: 0} }
	net := cluster.NetworkModel{SameSlot: 0, IntraVM: 100 * time.Microsecond, InterVM: 300 * time.Microsecond}
	f := newFabric(fabricParams{
		clock: clock, net: net, slotOf: slots,
		deliverBatch: func(to topology.Instance, evs []*tuple.Event) []*tuple.Event {
			delivered.Add(uint64(len(evs)))
			return nil
		},
		batchSize: 64,
	})
	defer f.Close()
	ev := &tuple.Event{ID: 1, Kind: tuple.Data}
	links := benchLinks(f)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f.Send(links[i%64], ev)
			i++
		}
	})
	b.StopTimer()
}

// fabricScriptResult is one run of the deterministic send script:
// per-link delivery sequences plus total and dropped counts.
type fabricScriptResult struct {
	perLink   map[string][]tuple.ID
	delivered int
	dropped   uint64
}

// runFabricScript replays a fixed multi-sender send script through a
// fabric with the given batch settings: 6 senders (two of them on a far
// VM) × 5 destinations × each events per link, under deterministic
// seeded jitter. Senders run concurrently; per-link send order is fixed
// by construction, so two runs are comparable link by link.
func runFabricScript(t *testing.T, batchSize int, jitterSeed uint64, each int) fabricScriptResult {
	t.Helper()
	col := newCollectingDeliver()
	clock := timex.NewScaled(1)
	slots := func(key string) cluster.SlotRef {
		if strings.HasPrefix(key, "far") {
			return cluster.SlotRef{VM: "vm-9", Slot: 0}
		}
		return cluster.SlotRef{VM: "vm-0", Slot: 0}
	}
	net := cluster.NetworkModel{
		SameSlot: 0, IntraVM: time.Millisecond, InterVM: 5 * time.Millisecond,
		Jitter: 3 * time.Millisecond, JitterSeed: jitterSeed,
	}
	f := newFabric(fabricParams{
		clock: clock, net: net, slotOf: slots, deliverBatch: col.deliverBatch, shards: 4,
		batchSize: batchSize,
	})
	const senders = 6
	const dests = 5
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := fmt.Sprintf("near%d[0]", s)
			if s >= 4 {
				from = fmt.Sprintf("far%d[0]", s)
			}
			for i := 1; i <= each; i++ {
				for d := 0; d < dests; d++ {
					to := topology.Instance{Task: "T", Index: d}
					f.Send(f.link(from, to), &tuple.Event{ID: tuple.ID(s*1_000_000 + i), Kind: tuple.Data})
				}
			}
		}()
	}
	wg.Wait()
	f.Close() // drains everything, staged batches included
	res := fabricScriptResult{perLink: make(map[string][]tuple.ID), dropped: f.Dropped()}
	for d := 0; d < dests; d++ {
		to := topology.Instance{Task: "T", Index: d}
		for _, ev := range col.events(to) {
			s := int(ev.ID) / 1_000_000
			link := fmt.Sprintf("s%d->d%d", s, d)
			res.perLink[link] = append(res.perLink[link], ev.ID)
			res.delivered++
		}
	}
	return res
}

// TestFabricBatchingEquivalence is the batching correctness property:
// for a fixed send script on a fixed seed, a batched fabric must deliver
// byte-identical per-link sequences and identical totals to the
// batch-of-one (BatchMaxSize=1) fabric — across batch sizes and jitter
// seeds. Batching may only change WHEN a delivery happens, never WHAT
// arrives or in which per-link order.
func TestFabricBatchingEquivalence(t *testing.T) {
	const each = 40
	for _, seed := range []uint64{1, 42} {
		base := runFabricScript(t, 1, seed, each)
		if base.dropped != 0 {
			t.Fatalf("seed %d: unbatched run dropped %d", seed, base.dropped)
		}
		for _, size := range []int{2, 7, 64} {
			got := runFabricScript(t, size, seed, each)
			if got.dropped != 0 {
				t.Errorf("seed %d batch %d: dropped %d", seed, size, got.dropped)
			}
			if got.delivered != base.delivered {
				t.Errorf("seed %d batch %d: delivered %d, want %d",
					seed, size, got.delivered, base.delivered)
			}
			if len(got.perLink) != len(base.perLink) {
				t.Errorf("seed %d batch %d: %d links, want %d",
					seed, size, len(got.perLink), len(base.perLink))
			}
			for link, want := range base.perLink {
				have := got.perLink[link]
				if len(have) != len(want) {
					t.Fatalf("seed %d batch %d: link %s delivered %d, want %d",
						seed, size, link, len(have), len(want))
				}
				for i := range want {
					if have[i] != want[i] {
						t.Fatalf("seed %d batch %d: link %s delivery %d is ID %d, want %d",
							seed, size, link, i, have[i], want[i])
					}
				}
			}
		}
	}
}

// waitHandOffs polls (in wall time) until col holds n hand-offs.
func waitHandOffs(t *testing.T, col *collectingDeliver, n int) [][]tuple.ID {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := col.handOffs()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d hand-offs %v, want %d", len(got), got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// manualFabric builds a one-shard fabric on a manual clock with a fixed
// one-way latency and the default batch cap.
func manualFabric(col *collectingDeliver, latency time.Duration) (*fabric, *timex.ManualClock) {
	clock := timex.NewManual()
	f := newFabric(fabricParams{
		clock:        clock,
		net:          cluster.NetworkModel{SameSlot: latency, IntraVM: latency, InterVM: latency},
		slotOf:       func(string) cluster.SlotRef { return cluster.SlotRef{VM: "vm-0"} },
		deliverBatch: col.deliverBatch,
		shards:       1,
		batchSize:    64,
	})
	return f, clock
}

// TestFabricIdleLinkFlushesAtSend: a send on a link with nothing in flight
// leaves at once. The clock never moves, so a flush deadline would never
// come due; the lone event must still be delivered.
func TestFabricIdleLinkFlushesAtSend(t *testing.T) {
	col := newCollectingDeliver()
	f, _ := manualFabric(col, 0)
	defer f.Close()
	f.Send(f.link("src[0]", topology.Instance{Task: "T", Index: 0}), &tuple.Event{ID: 1, Kind: tuple.Data})
	if got := waitHandOffs(t, col, 1); len(got[0]) != 1 || got[0][0] != 1 {
		t.Fatalf("hand-offs %v, want [[1]]", got)
	}
}

// TestFabricStagesBehindInFlightBatch pins the ack clock: events sent
// while a link's batch is on the wire stage behind it, flush as one batch
// when it is handed off, and arrive in order; Close delivers a stage that
// still sits behind an in-flight batch.
func TestFabricStagesBehindInFlightBatch(t *testing.T) {
	col := newCollectingDeliver()
	f, clock := manualFabric(col, time.Millisecond)
	to := topology.Instance{Task: "T", Index: 0}
	send := func(id tuple.ID) { f.Send(f.link("src[0]", to), &tuple.Event{ID: id, Kind: tuple.Data}) }

	send(1) // idle link: in flight at once
	for id := tuple.ID(2); id <= 4; id++ {
		send(id) // staged behind e1
	}
	if got := col.handOffs(); len(got) != 0 {
		t.Fatalf("delivered %v before any latency elapsed", got)
	}
	clock.Advance(time.Millisecond)
	if got := waitHandOffs(t, col, 1); len(got) != 1 || len(got[0]) != 1 || got[0][0] != 1 {
		t.Fatalf("after one hop: hand-offs %v, want [[1]]", got)
	}
	clock.Advance(time.Millisecond)
	got := waitHandOffs(t, col, 2)
	if len(got) != 2 || fmt.Sprint(got[1]) != "[2 3 4]" {
		t.Fatalf("after two hops: hand-offs %v, want [[1] [2 3 4]]", got)
	}

	// Link idle again: e5 goes in flight, e6 stages behind it. Close must
	// deliver both, in order, as the clock moves on.
	send(5)
	send(6)
	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for done := false; !done; {
		select {
		case <-closed:
			done = true
		default:
			if time.Now().After(deadline) {
				t.Fatalf("Close did not drain: hand-offs %v", col.handOffs())
			}
			clock.Advance(time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	got = col.handOffs()
	if len(got) != 4 || fmt.Sprint(got[2:]) != "[[5] [6]]" {
		t.Fatalf("after Close: hand-offs %v, want [[1] [2 3 4] [5] [6]]", got)
	}
}
