// Package autoscale closes the elasticity loop the paper scopes out.
//
// The ICDCS'18 paper contributes reliable, low-latency *enactment* of a
// new schedule (the DCR and CCR migration strategies) and explicitly
// leaves *deciding* the schedule to a planner: "having a new schedule is
// a precursor to the dynamic enactment of the schedule, which we target."
// Its conclusion argues that dependable migration is what makes "diverse
// elastic scheduling scenarios" practical. This package supplies those
// scenarios as a first-class monitor → plan → enact subsystem:
//
//   - Observe samples the running dataflow into a Snapshot: offered rate,
//     per-instance queue depths, trailing sink throughput and latency
//     quantiles (metrics.Collector.Window), and the current VM fleet.
//   - A Policy inspects the Snapshot and recommends a scale direction.
//     Three are shipped: UtilizationBand (offered load vs. slot
//     capacity), QueueBackpressure (queue depth as the overload signal),
//     and LatencySLO (tail latency against a target).
//   - Hysteresis debounces recommendations — a decision must persist for
//     Confirm consecutive observations, and after every enactment the
//     loop holds for a Cooldown — so migration churn (pause, burst drain,
//     worker start) cannot re-trigger the controller and thrash.
//   - An Allocator turns a confirmed direction into a concrete Target
//     fleet: consolidate onto few multi-slot VMs (D3 in the paper) or
//     spread onto one-slot VMs (D1), one slot per task instance
//     (parallelism is fixed at deployment, Table 1).
//   - The Enactor provisions the target fleet, places the inner
//     instances with a scheduler.Scheduler, migrates live via any
//     core.Strategy (DSM/DCR/CCR), and releases the old fleet — the
//     billing motivation of the paper's Fig. 1.
//   - Loop wires all of the above to a clock: Tick runs one observation
//     round; Run polls at an interval.
//
// Because enactment goes through core.Strategy, every scale-out and
// scale-in inherits the strategy's guarantees: with DCR or CCR, zero
// message loss, zero duplicates, and exact state preservation.
package autoscale

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/topology"
)

// Fleet describes the homogeneous VM pool the inner tasks run on.
type Fleet struct {
	// Type is the VM flavor of the fleet.
	Type cluster.VMType
	// VMs is how many of them are provisioned.
	VMs int
}

// Slots returns the fleet's total slot count.
func (f Fleet) Slots() int { return f.Type.Slots * f.VMs }

// Snapshot is one observation of the running dataflow — everything a
// Policy may base a scaling decision on.
type Snapshot struct {
	// Time is the paper-time observation instant.
	Time time.Time

	// OfferedRate is the aggregate source emission rate observed over the
	// trailing window (ev/s, replays included).
	OfferedRate float64
	// ConfiguredRate is the engine's current per-source target rate times
	// the number of sources — the rate the generators are pacing to.
	ConfiguredRate float64
	// SinkRate is the sink arrival rate observed over the trailing window.
	SinkRate float64
	// ExpectedSinkRate is the steady-state sink rate at ConfiguredRate.
	ExpectedSinkRate float64
	// Latency digests sink latencies over the trailing window.
	Latency metrics.LatencyDigest

	// QueueDepths is the input queue depth per live inner instance.
	QueueDepths map[topology.Instance]int
	// MaxQueue and TotalQueue aggregate QueueDepths.
	MaxQueue, TotalQueue int

	// Slots is the structural slot need: one per inner instance.
	Slots int
	// CapacityPerSlot is the per-slot processing capacity in ev/s
	// (1 / task latency).
	CapacityPerSlot float64
	// DemandPerSourceEv is the aggregate instance demand generated by one
	// source event per second (e.g. 8 for Diamond: four 1× stages plus a
	// 4× fan-in stage).
	DemandPerSourceEv float64

	// Fleet is the current inner-task VM pool.
	Fleet Fleet
}

// Utilization is the fraction of aggregate slot capacity the offered
// load consumes: rate × demand / (slots × capacity). 1.0 means every
// slot is saturated.
func (s Snapshot) Utilization() float64 {
	if s.Slots == 0 || s.CapacityPerSlot <= 0 {
		return 0
	}
	return s.OfferedRate * s.DemandPerSourceEv / (float64(s.Slots) * s.CapacityPerSlot)
}

// Observe samples eng into a Snapshot. window sets the trailing interval
// rates and latency quantiles are computed over; fleet names the current
// inner-task pool (the engine does not track VM ownership — the caller,
// usually a Loop, does).
func Observe(eng *runtime.Engine, fleet Fleet, window time.Duration) Snapshot {
	topo := eng.Topology()
	cfg := eng.Config()
	// Window merges the collector's sharded per-event accumulators under
	// its mutex before summarizing — an observation is a consistent
	// cross-reporter snapshot, and the periodic tick keeps each merge
	// small. Recording goroutines are never blocked behind this read.
	// The window ends where the sources' input record is final, so a
	// source running late on a busy host does not read as a rate dip.
	w := eng.Collector().WindowEnding(eng.SourcesSettled(), window)

	depths := eng.QueueDepths()
	maxQ, totalQ := 0, 0
	for _, d := range depths {
		totalQ += d
		if d > maxQ {
			maxQ = d
		}
	}

	rates := topo.InputRate(1) // demand per 1 ev/s of source rate
	demand := 0.0
	for _, task := range topo.Inner() {
		demand += rates[task.Name]
	}

	sources := topo.TotalInstances(topology.RoleSource)
	rate := eng.SourceRate() // read once: a ramp may land mid-observation
	return Snapshot{
		Time:              eng.Clock().Now(),
		OfferedRate:       w.InputRate,
		ConfiguredRate:    rate * float64(sources),
		SinkRate:          w.OutputRate,
		ExpectedSinkRate:  eng.ExpectedSinkRateAt(rate),
		Latency:           w.Latency,
		QueueDepths:       depths,
		MaxQueue:          maxQ,
		TotalQueue:        totalQ,
		Slots:             topo.TotalInstances(topology.RoleInner),
		CapacityPerSlot:   float64(time.Second) / float64(cfg.TaskLatency),
		DemandPerSourceEv: demand,
		Fleet:             fleet,
	}
}
