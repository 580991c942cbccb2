// Package tuple defines the events that flow through a streaming dataflow:
// user data events and the checkpoint-protocol control events (PREPARE,
// COMMIT, ROLLBACK, INIT) used by the migration strategies.
//
// Every data event belongs to a causal tree rooted at a source emission.
// The root's ID anchors the at-least-once acking protocol: descendants are
// XORed into the root's hash when emitted and again when acknowledged
// (see internal/acker).
package tuple

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 64-bit unique event identifier, mirroring Storm's 64-bit
// message IDs.
type ID uint64

// Kind discriminates data events from checkpoint-protocol events.
type Kind int

// Event kinds. Data carries user payload; the rest drive the three-phase
// checkpoint protocol of §2–3 of the paper.
const (
	Data Kind = iota + 1
	Prepare
	Commit
	Rollback
	Init
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Prepare:
		return "PREPARE"
	case Commit:
		return "COMMIT"
	case Rollback:
		return "ROLLBACK"
	case Init:
		return "INIT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsCheckpoint reports whether the kind is part of the checkpoint protocol.
func (k Kind) IsCheckpoint() bool { return k != Data && k != 0 }

// Event is a message flowing through the dataflow. Events are treated as
// immutable after creation; derived events are built with Child.
type Event struct {
	// ID uniquely identifies this event within a run.
	ID ID
	// Root is the ID of the causal-tree root (the source emission this
	// event descends from). For a root event, Root == ID. Zero for
	// checkpoint events that are tracked by wave instead.
	Root ID
	// Kind discriminates data from checkpoint events.
	Kind Kind
	// Wave is the checkpoint wave number for checkpoint events (zero for
	// data events).
	Wave uint64
	// Round is the resend round of a checkpoint event within its wave.
	// The coordinator re-emits INIT events for waves that have not fully
	// acknowledged (every 1 s for DCR/CCR, every ack-timeout for DSM);
	// tasks deduplicate forwarding per round.
	Round int
	// Broadcast marks checkpoint events delivered over the hub-and-spoke
	// channel (CCR's wiring): tasks act on receipt and do not forward
	// them. Sequential checkpoint events sweep the dataflow edges and are
	// forwarded downstream.
	Broadcast bool
	// SrcTask is the logical task that emitted the event.
	SrcTask string
	// SrcInstance is the emitting task instance index within SrcTask.
	SrcInstance int
	// Key is the partitioning key used by fields grouping.
	Key uint64
	// Value is the user payload.
	Value any
	// RootEmit is the paper-time instant the causal root was emitted by
	// the source; sink latency is measured against it.
	RootEmit time.Time
	// Replayed marks events regenerated by the acking service after a
	// timeout (counted for Fig. 6).
	Replayed bool
	// PreMigration marks events whose causal root was emitted before the
	// migration request; the catchup metric tracks the last of these.
	PreMigration bool
	// Gen is the migration generation the causal root was emitted in: 0
	// before the first migration request, g after the g-th request. The
	// audit uses it to check every enactment's old/new boundary separately
	// — PreMigration alone collapses back-to-back migrations into one
	// epoch. Replays keep the original root's generation.
	Gen uint64
	// DeliverAt is the paper-time instant the fabric scheduled this
	// event's delivery at its current hop (zero for events that did not
	// arrive over the fabric). The executor starts service no earlier than
	// this instant, not at the later one its goroutine happened to run at.
	DeliverAt time.Time

	// pooled marks events drawn from the event pool; Release returns only
	// those, so releasing a heap-allocated event is always a safe no-op.
	pooled bool
}

// eventPool recycles the data events that fan out on every edge hop —
// the single largest allocation source on the steady-state path. An
// event is drawn by Child, flows fabric → executor queue → processing,
// and is returned by Release once its final owner is done with it.
var eventPool = sync.Pool{New: func() any { return new(Event) }}

// NewPooledEvent returns a zeroed event from the pool. The caller owns
// it until it hands the event off (to the fabric) or Releases it.
func NewPooledEvent() *Event {
	e := eventPool.Get().(*Event)
	*e = Event{pooled: true}
	return e
}

// Release returns a pooled event for reuse. It must only be called by
// the event's final owner, after which the event must not be touched.
// Calling Release on a heap-allocated (non-pooled) event is a no-op, so
// cleanup paths may release unconditionally.
func (e *Event) Release() {
	if e == nil || !e.pooled {
		return
	}
	*e = Event{} // drop payload references; also clears pooled
	eventPool.Put(e)
}

// IsData reports whether e carries user payload.
func (e *Event) IsData() bool { return e.Kind == Data }

// Vec is a reusable event vector drawn from a pool. The delivery fabric
// stages per-link micro-batches in Vecs so the batching path allocates
// nothing in steady state: a Vec is drawn when a link's first event is
// staged, travels with the flushed batch, and is released once every
// event in it has been handed off.
type Vec struct {
	Ev []*Event
}

// vecCap is the initial capacity of a pooled Vec, sized for the default
// delivery batch. Larger batches grow the slice once and the grown
// capacity is retained across reuses.
const vecCap = 64

var vecPool = sync.Pool{New: func() any { return &Vec{Ev: make([]*Event, 0, vecCap)} }}

// GetVec returns an empty vector from the pool. The caller owns it until
// it calls Release.
func GetVec() *Vec {
	return vecPool.Get().(*Vec)
}

// Release empties the vector (dropping event references so pooled events
// it held can be reclaimed independently) and returns it for reuse. The
// events themselves are NOT released: ownership of the events must have
// been handed off or released individually before the vector is.
func (v *Vec) Release() {
	clear(v.Ev)
	v.Ev = v.Ev[:0]
	vecPool.Put(v)
}

// Child derives a new data event caused by e, preserving the causal root,
// root emit time, and migration epoch markers. Children come from the
// event pool: they are created once per edge hop on the hot path, and
// the consuming executor (or a drop path) Releases them.
func (e *Event) Child(id ID, srcTask string, srcInstance int, value any) *Event {
	c := NewPooledEvent()
	c.ID = id
	c.Root = e.Root
	c.Kind = Data
	c.SrcTask = srcTask
	c.SrcInstance = srcInstance
	c.Key = e.Key
	c.Value = value
	c.RootEmit = e.RootEmit
	c.Replayed = e.Replayed
	c.PreMigration = e.PreMigration
	c.Gen = e.Gen
	return c
}

// Clone returns a shallow copy of e. Fan-out edges deliver clones so each
// downstream task owns its event. Clones are heap-allocated, not pooled:
// cloning is confined to the rare checkpoint-wave paths whose ownership
// is spread across coordinator resend rounds.
func (e *Event) Clone() *Event {
	cp := *e
	cp.pooled = false
	return &cp
}

// String implements fmt.Stringer for debugging output.
func (e *Event) String() string {
	if e.Kind == Data {
		return fmt.Sprintf("Data{id=%d root=%d src=%s[%d]}", e.ID, e.Root, e.SrcTask, e.SrcInstance)
	}
	return fmt.Sprintf("%s{id=%d wave=%d}", e.Kind, e.ID, e.Wave)
}

// IDGen issues unique event IDs. The zero value is ready to use and safe
// for concurrent use.
//
// IDs are produced by applying the splitmix64 finalizer to an atomic
// counter: the mapping is bijective, so IDs stay unique, while their bit
// patterns are uniformly distributed. Uniformity matters because the
// acking service XORs IDs together (see internal/acker) and relies — like
// Storm's random 64-bit message IDs — on strict subsets of IDs almost
// never XORing to zero, which sequential IDs would do constantly
// (1^2^3 == 0).
type IDGen struct {
	next atomic.Uint64
}

// Next returns a fresh, non-zero ID.
func (g *IDGen) Next() ID {
	for {
		if id := Mix64(g.next.Add(1)); id != 0 {
			return ID(id)
		}
	}
}

// Issued reports how many counter values have been consumed.
func (g *IDGen) Issued() uint64 { return g.next.Load() }

// Mix64 is the splitmix64 finalizer, a bijection on uint64 with uniform
// bit dispersion. It generates event IDs here and is the shared hash for
// everything keyed by them (acker shard routing, fields grouping) — one
// definition, so the dispersion properties cannot silently diverge.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DefaultShards is the default shard count for the per-event sharded
// structures keyed by event IDs (the acker's tree shards, the metrics
// collector's recording shards): GOMAXPROCS with a floor of 4, because
// even on small-GOMAXPROCS hosts many engine goroutines interleave
// through them and a few extra shards cost only small per-shard state.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}
