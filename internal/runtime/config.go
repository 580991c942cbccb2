// Package runtime is the Storm-like stream processing engine the
// migration strategies operate on. Its concurrency structure mirrors
// Storm's: every task instance runs one executor goroutine consuming a
// single-threaded input queue; events travel over per-sender FIFO links
// with placement-dependent network latency; an acker service provides
// at-least-once delivery; a checkpoint coordinator drives the three-phase
// state protocol; and a rebalance operation kills migrating executors and
// respawns them on their new slots after realistic worker start delays.
//
// All durations are paper time (see internal/timex): the engine runs
// identically under a real, scaled, or manual clock.
package runtime

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/statestore"
)

// Mode selects the migration strategy the engine is provisioned for. The
// mode decides which reliability machinery is active during normal
// operation (DSM keeps acking and periodic checkpointing always on; DCR
// and CCR enable reliability just in time) and how checkpoint waves are
// delivered.
type Mode int

// Engine modes, one per §3 strategy.
const (
	// ModeDSM is Default Storm Migration: acking enabled for every data
	// event, periodic checkpointing, rebalance kills tasks immediately and
	// lost events replay after the ack timeout.
	ModeDSM Mode = iota + 1
	// ModeDCR is Drain-Checkpoint-Restore: sources pause, a sequential
	// PREPARE wave drains the dataflow, a JIT checkpoint commits, INIT
	// restores with 1 s aggressive resends.
	ModeDCR
	// ModeCCR is Capture-Checkpoint-Resume: PREPARE and INIT broadcast
	// directly to every task; in-flight events are captured into task
	// state and resumed after the rebalance.
	ModeCCR
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDSM:
		return "DSM"
	case ModeDCR:
		return "DCR"
	case ModeCCR:
		return "CCR"
	default:
		return "unknown"
	}
}

// Config carries every tunable of the engine, expressed in paper time.
// Zero values are invalid; start from DefaultConfig.
type Config struct {
	// Mode selects the migration strategy machinery.
	Mode Mode

	// TaskLatency is the per-event compute time of inner tasks (the
	// paper's dummy logic sleeps 100 ms).
	TaskLatency time.Duration
	// SourceRate is each source's steady emission rate in events/sec
	// (8 ev/s, 20% below the 10 ev/s per-instance peak).
	SourceRate float64
	// SourceBurstRate caps the backlog drain rate after sources unpause;
	// the paper's timeline plots show a bounded input spike (Fig. 7b/c).
	SourceBurstRate float64

	// AckTimeout is the at-least-once replay timeout (Storm default 30 s).
	AckTimeout time.Duration
	// AckBuckets is the rotating-wheel bucket count of the acker.
	AckBuckets int
	// MaxSpoutPending caps unacked causal trees per source when acking is
	// on (Storm's topology.max.spout.pending). Without it, an outage lets
	// new roots pile into queues faster than they complete, trees time
	// out while merely queued, and the replay traffic compounds into a
	// storm the dataflow never recovers from. Replays themselves bypass
	// the cap (they resolve pending trees). Zero disables the cap.
	MaxSpoutPending int

	// CheckpointInterval is DSM's periodic checkpoint period (30 s).
	CheckpointInterval time.Duration
	// InitResend is the aggressive INIT re-emission interval used by DCR
	// and CCR (1 s). DSM resends INIT only after AckTimeout.
	InitResend time.Duration
	// WaveTimeout bounds PREPARE/COMMIT waves before rollback.
	WaveTimeout time.Duration
	// MaxInitWait bounds the post-rebalance INIT phase.
	MaxInitWait time.Duration

	// Network models delivery latency between slots.
	Network cluster.NetworkModel
	// StoreLatency models checkpoint persistence cost.
	StoreLatency statestore.LatencyModel

	// TransportBufferCap bounds the per-destination transport queue that
	// holds data events for a worker still starting on a known assignment
	// (Storm's netty client buffers a bounded number of messages while
	// reconnecting; the overflow is dropped and, with acking on, later
	// replayed). Small relative to an outage's traffic, it is what makes
	// DSM's replay counts grow with dataflow size while keeping per-task
	// backlogs (and hence processing delays) bounded below the ack
	// timeout, so recovery converges. Zero leaves the buffer unbounded.
	TransportBufferCap int

	// FabricShards sets the delivery scheduler's shard (goroutine) count.
	// Zero means GOMAXPROCS. Shards bound fabric concurrency regardless of
	// topology size; links are hashed across them.
	FabricShards int

	// BatchMaxSize caps the per-link delivery micro-batch. Batching is
	// ack-clocked: a send on a (sender, receiver) link with no batch in
	// flight leaves at once; behind an in-flight batch it is staged, and
	// the stage flushes when the in-flight batch is handed off or when it
	// reaches this size, whichever comes first. No timer is involved.
	// Values <= 1 make every batch a batch of one, so each Send flushes
	// inline.
	BatchMaxSize int

	// RebalanceCmdTime is the runtime of the rebalance command itself
	// (kill, reassign, supervisor sync) — ~7 s in the paper, roughly
	// constant across dataflows and cluster sizes.
	RebalanceCmdTime time.Duration
	// WorkerBaseDelay is the minimum extra time after the rebalance
	// command before a migrated executor is running on its new slot
	// (worker JVM spawn).
	WorkerBaseDelay time.Duration
	// WorkerStagger adds per-instance serialization to worker startup:
	// instance i becomes ready WorkerStagger*i later. This is why larger
	// dataflows miss more 30 s INIT rounds under DSM and their restore
	// time grows in jumps (§5.1).
	WorkerStagger time.Duration
	// WorkerJitter adds uniform random startup noise in [0, WorkerJitter).
	WorkerJitter time.Duration

	// HeartbeatInterval, when positive, makes every executor publish a
	// liveness heartbeat each interval (paper time). The supervisor's
	// failure detector consumes them; zero disables the pulse entirely
	// (unsupervised jobs pay nothing).
	HeartbeatInterval time.Duration

	// KeySelector, when set, derives each root event's routing key from
	// its payload sequence number instead of the default uniform hash —
	// the hook adversarial workloads use to inject key skew and hot
	// partitions. It must be a pure function of the sequence number
	// (replayed payloads re-derive their key) and safe for concurrent use.
	KeySelector func(seq int64) uint64

	// Seed drives all randomness (jitter, key hashing) for reproducible
	// runs.
	Seed int64
}

// DefaultConfig returns the paper's experiment configuration for the
// given mode. Periodic checkpointing is configured only for DSM — DCR and
// CCR checkpoint just in time (§3.1) — but any mode may opt back in by
// setting CheckpointInterval.
func DefaultConfig(mode Mode) Config {
	interval := time.Duration(0)
	if mode == ModeDSM {
		interval = 30 * time.Second
	}
	return Config{
		Mode:               mode,
		TaskLatency:        100 * time.Millisecond,
		SourceRate:         8,
		SourceBurstRate:    64,
		AckTimeout:         30 * time.Second,
		AckBuckets:         3,
		MaxSpoutPending:    256,
		CheckpointInterval: interval,
		InitResend:         time.Second,
		WaveTimeout:        60 * time.Second,
		MaxInitWait:        5 * time.Minute,
		Network:            cluster.DefaultNetwork(),
		StoreLatency:       statestore.DefaultLatency(),
		TransportBufferCap: 64,
		BatchMaxSize:       64,
		RebalanceCmdTime:   7 * time.Second,
		WorkerBaseDelay:    6 * time.Second,
		WorkerStagger:      1800 * time.Millisecond,
		WorkerJitter:       3 * time.Second,
		Seed:               1,
	}
}

// AckDataEvents reports whether data events are tracked by the acker
// (always-on acking is a DSM-only cost; DCR/CCR ack only checkpoint
// events, §3.1).
func (c Config) AckDataEvents() bool { return c.Mode == ModeDSM }

// PausesSources reports whether the strategy pauses sources during
// migration (DCR and CCR do; DSM does not).
func (c Config) PausesSources() bool { return c.Mode != ModeDSM }
