package main

// layers.go times each layer from outside, through its public functions:
// one tight loop per layer, on this process, with nothing else running.
// The numbers are what a hop through the engine is made of; what is left
// of runtime.hop_cpu_ns after them is the fabric, executor loop and
// wake-up share that has no public entry point yet.

import (
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"repro/internal/acker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/dataflows"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/statestore"
	"repro/internal/timex"
	"repro/internal/topology"
	"repro/internal/tuple"
	wl "repro/internal/workload"
)

// defaultIters is the loop length of the per-operation drivers in a run.
// The sleep drivers and the per-million scans take a thousandth of it:
// 1000 sleeps carry a p99, and their time is wall time, not CPU.
const defaultIters = 1_000_000

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink any

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	t0 := wall.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(wall.Since(t0)) / float64(n)
}

// a driver measures one layer and sets its metrics.
type driver struct {
	layer string
	run   func(m metricSet, n int)
}

var drivers = []driver{
	{"tuple", driveTuple},
	{"queue", driveQueue},
	{"timex", driveTimex},
	{"workload", driveWorkload},
	{"metrics", driveMetrics},
	{"runtime", driveAudit},
	{"acker", driveAcker},
	{"statestore", driveStatestore},
	{"checkpoint", driveCheckpoint},
	{"scheduler", driveScheduler},
}

// runDrivers runs every driver with loops of n iterations.
func runDrivers(m metricSet, n int, tr *tracer, parent int) {
	for _, d := range drivers {
		tr.timed(d.layer, d.layer, parent, func() { d.run(m, n) })
	}
}

func payloadEvent(seq int64) *tuple.Event {
	return &tuple.Event{ID: tuple.ID(seq + 1), Root: tuple.ID(seq + 1), Kind: tuple.Data, Key: uint64(seq),
		Value: wl.Payload{Seq: seq, Body: "obs"}, RootEmit: wall.Now()}
}

func driveTuple(m metricSet, n int) {
	parent := payloadEvent(1)
	m.set("tuple.child_release_ns", perOp(n, func(i int) {
		parent.Child(tuple.ID(i), "T1", 0, parent.Value).Release()
	}), n)
	m.set("tuple.vec_cycle_ns", perOp(n, func(int) {
		v := tuple.GetVec()
		v.Ev = append(v.Ev, parent)
		v.Release()
	}), n)
}

func driveQueue(m metricSet, n int) {
	q, ev := queue.New(), payloadEvent(1)
	m.set("queue.push_pop_ns", perOp(n, func(int) {
		q.Push(ev)
		sink, _ = q.Pop()
	}), n)
	batch, buf := make([]*tuple.Event, 64), make([]*tuple.Event, 0, 64)
	for i := range batch {
		batch[i] = ev
	}
	m.set("queue.batch64_ns_per_event", perOp(n/64+1, func(int) {
		q.PushBatch(batch)
		buf, _ = q.PopBatch(buf[:0])
	})/64, n)
}

func driveTimex(m metricSet, n int) {
	sleeps := n/1000 + 1
	var over []float64
	for i := 0; i < sleeps; i++ {
		t0 := wall.Now()
		wall.Sleep(time.Millisecond)
		over = append(over, us(wall.Since(t0)-time.Millisecond))
	}
	m.set("timex.real_sleep_overshoot_us_p50", median(over), sleeps)
	m.set("timex.real_sleep_overshoot_us_p99", percentile(over, 0.99), sleeps)

	m.set("timex.afterfunc_stop_ns", perOp(n, func(int) {
		wall.AfterFunc(time.Hour, func() {}).Stop()
	}), n)

	// The clock the tier-1 suite runs on: 100 ms of paper time at 50×
	// compression is 2 ms of wall time; the overshoot is in paper time,
	// which is what a test waiting on it sees.
	scaled := timex.NewScaled(0.02)
	over = over[:0]
	for i := 0; i < sleeps; i++ {
		due := scaled.Now().Add(100 * time.Millisecond)
		timex.SleepUntil(scaled, due)
		over = append(over, us(scaled.Now().Sub(due)))
	}
	m.set("timex.scaled_sleepuntil_overshoot_us_p99", percentile(over, 0.99), sleeps)
}

func driveWorkload(m metricSet, n int) {
	logic, ev := wl.NewCountLogic(), payloadEvent(1)
	emit := func(any, uint64) {}
	m.set("workload.count_process_ns", perOp(n, func(int) { logic.Process(ev, emit) }), n)
}

// perMillion scales a duration over n records to milliseconds per 10⁶.
func perMillion(d time.Duration, n int) float64 { return ms(d) * 1e6 / float64(n) }

func driveMetrics(m metricSet, n int) {
	heap0 := heapAfterGC()
	c := metrics.NewCollector(wall)
	c.MarkMigrationRequested() // record into the post-request digest, as a measured window does
	rep, ev := c.Reporter(), payloadEvent(1)
	m.set("metrics.record_ns", perOp(n, func(int) {
		rep.SourceEmit(false)
		rep.SinkReceive(ev)
	}), n)
	t0 := wall.Now()
	sink = c.Compute(metrics.DefaultStabilization(1), 0)
	_, sink = c.PhaseLatencies()
	m.set("metrics.compute_ms_per_million", perMillion(wall.Since(t0), n), n)
	m.set("metrics.retained_bytes_per_event", (float64(heapAfterGC())-float64(heap0))/float64(n), n)
	goruntime.KeepAlive(c)
}

func driveAudit(m metricSet, n int) {
	heap0 := heapAfterGC()
	a, ev, now := runtime.NewAudit(), payloadEvent(1), wall.Now()
	m.set("runtime.audit_record_ns", perOp(n, func(i int) {
		ev.Value = wl.Payload{Seq: int64(i), Body: "obs"}
		a.RecordEmit(int64(i), 0, now)
		a.RecordSink(ev, now)
	}), n)
	t0 := wall.Now()
	sink = a.Lost(now)
	m.set("runtime.audit_lost_scan_ms_per_million", perMillion(wall.Since(t0), n), n)
	m.set("runtime.audit_retained_bytes_per_event", (float64(heapAfterGC())-float64(heap0))/float64(n), n)
	goruntime.KeepAlive(a)
}

// driveAcker completes one causal tree of six hops per iteration, the
// shape of a Linear root: register, anchor six children, ack all seven.
func driveAcker(m metricSet, n int) {
	svc := acker.New(wall, 30*time.Second, 3)
	defer svc.Close()
	var gen tuple.IDGen
	done := func(tuple.ID, acker.Outcome) {}
	var ids [6]tuple.ID
	m.set("acker.tree6_ns", perOp(n/6+1, func(int) {
		root := gen.Next()
		svc.Register(root, done)
		for i := range ids {
			ids[i] = gen.Next()
			svc.Anchor(root, ids[i])
		}
		svc.Ack(root, root)
		for _, id := range ids {
			svc.Ack(root, id)
		}
	}), n/6+1)
	if p := svc.Pending(); p != 0 {
		panic(fmt.Sprintf("bench: acker driver left %d trees pending", p))
	}
}

// ccrBlob mirrors what a CCR executor persists at COMMIT: the encoded
// user state wrapped with the events it captured.
type ccrBlob struct {
	UserState []byte
	Pending   []ccrSaved
	Wave      uint64
}

type ccrSaved struct {
	ID, Root     tuple.ID
	Key          uint64
	Value        any
	RootEmit     time.Time
	Replayed     bool
	PreMigration bool
	Gen          uint64
}

func driveStatestore(m metricSet, n int) {
	state := &wl.CountState{Processed: 1 << 20, LastSeq: 1 << 20, ByKey: map[uint64]int64{}}
	for k := uint64(0); k < 16; k++ {
		state.ByKey[k] = 1 << 16
	}
	var user any = state
	blob := ccrBlob{Wave: 7, Pending: make([]ccrSaved, 64)}
	for i := range blob.Pending {
		blob.Pending[i] = ccrSaved{ID: tuple.ID(i + 1), Root: tuple.ID(i + 1), Key: uint64(i),
			Value: wl.Payload{Seq: int64(i), Body: "obs"}, RootEmit: wall.Now(), PreMigration: true, Gen: 3}
	}
	var data []byte
	encode := func(int) {
		inner, err := statestore.Encode(&user)
		if err != nil {
			panic(err)
		}
		blob.UserState = inner
		if data, err = statestore.Encode(blob); err != nil {
			panic(err)
		}
	}
	// gob compiles a codec per type on first use; the engine pays that
	// once per process, so it is kept out of the per-blob cost.
	encode(0)
	n = n/100 + 1
	m.set("statestore.encode_ns", perOp(n, encode), n)
	m.set("statestore.blob_bytes", float64(len(data)), 1)
	m.set("statestore.decode_ns", perOp(n, func(int) {
		var out ccrBlob
		if err := statestore.Decode(data, &out); err != nil {
			panic(err)
		}
		var restored any
		if err := statestore.Decode(out.UserState, &restored); err != nil {
			panic(err)
		}
		sink = restored
	}), n)
}

// loopback is a checkpoint transport whose 21 task instances acknowledge
// every wave at once: what is left is the coordinator's own bookkeeping.
type loopback struct {
	coord *checkpoint.Coordinator
	keys  []string
}

func (l *loopback) SendBroadcast(ev *tuple.Event) {
	for _, k := range l.keys {
		l.coord.Ack(k, ev.Wave)
	}
}
func (l *loopback) SendFirstLayer(ev *tuple.Event) { l.SendBroadcast(ev) }
func (l *loopback) ExpectedAckers() []string       { return l.keys }

func gridInner() []topology.Instance {
	return dataflows.Grid().Topology.Instances(topology.RoleInner)
}

func driveCheckpoint(m metricSet, n int) {
	l := &loopback{}
	for _, inst := range gridInner() {
		l.keys = append(l.keys, inst.String())
	}
	l.coord = checkpoint.NewCoordinator(wall, l, &tuple.IDGen{})
	defer l.coord.Close()
	n = n/100 + 1
	m.set("checkpoint.wave21_us", perOp(n, func(int) {
		if err := l.coord.RunWave(tuple.Prepare, checkpoint.Broadcast, 0, time.Minute); err != nil {
			panic(err)
		}
	})/1000, n)
}

// driveScheduler plans one scale-out of Grid: place on the default D2
// fleet, place on one D1 per instance, and diff the two.
func driveScheduler(m metricSet, n int) {
	inner, clus, spec := gridInner(), cluster.New(), dataflows.Grid()
	slots := func(t cluster.VMType, vms int) []cluster.SlotRef {
		var out []cluster.SlotRef
		for _, vm := range clus.Provision(t, vms, wall.Now()) {
			out = append(out, vm.Slots()...)
		}
		return out
	}
	from, to := slots(cluster.D2, spec.DefaultVMs), slots(cluster.D1, spec.ScaleOutVMs)
	n = n/100 + 1
	m.set("scheduler.place_diff_us", perOp(n, func(int) {
		a, err := scheduler.RoundRobin{}.Place(inner, from)
		if err != nil {
			panic(err)
		}
		b, err := scheduler.RoundRobin{}.Place(inner, to)
		if err != nil {
			panic(err)
		}
		sink = scheduler.Diff(a, b)
	})/1000, n)
}

// driverShare is the part of one hop's CPU the drivers account for on w,
// in nanoseconds: per hop one event child and the user logic, per sink
// event the collector and audit records, per link batch one vector and
// one flush timer, and a queue transfer whose fixed cost the batch
// shares. A link stages rate × 1 ms events before its deadline flushes
// it, at most 64; an acked workload adds a sixth of a six-hop tree.
func driverShare(w workload, m metricSet, sendsPerSinkEvent float64) float64 {
	v := func(name string) float64 { return m[name].Value }
	batch := math.Min(64, math.Max(1, w.cfg.rate/1000))
	perEvent := v("queue.batch64_ns_per_event")
	share := v("tuple.child_release_ns") + v("workload.count_process_ns") + perEvent +
		(v("queue.push_pop_ns")-perEvent+v("tuple.vec_cycle_ns")+v("timex.afterfunc_stop_ns"))/batch +
		(v("metrics.record_ns")+v("runtime.audit_record_ns"))/sendsPerSinkEvent
	if w.cfg.acked {
		share += v("acker.tree6_ns") / 6
	}
	return share
}
