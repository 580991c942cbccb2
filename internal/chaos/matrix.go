package chaos

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/runtime"
	"repro/internal/supervisor"
	"repro/internal/timex"
	"repro/internal/topology"
)

// Cell is one matrix entry: a strategy enacting a live migration of a
// generated scenario, with an executor crash injected at Phase (empty
// Phase = no crash — a pure workload-stress cell).
type Cell struct {
	Strategy core.Strategy
	Phase    runtime.MigrationPhase
	Scenario Scenario
	// Unplanned injects the crash with NO paired restart: the job runs
	// under supervision, and the supervisor alone must detect the death
	// by heartbeat loss and restore the instance (respawn + checkpoint
	// INIT + DSM replay where acking is on). With Phase empty the kill
	// lands in steady state after warmup; with a Phase it lands
	// mid-enactment, racing the supervisor against the migration's own
	// rebalance and INIT wave.
	Unplanned bool
}

// ID names the cell for subtests and summaries:
// "DSM@rebalance-start/chain-hot" ("+unplanned" for supervised cells).
func (c Cell) ID() string {
	phase := "steady"
	if c.Phase != "" {
		phase = string(c.Phase)
	}
	id := fmt.Sprintf("%s@%s/%s", c.Strategy.Name(), phase, c.Scenario.Name)
	if c.Unplanned {
		id += "+unplanned"
	}
	return id
}

// Matrix builds the full phase×strategy crash matrix for a seed. Every
// cell's scenario gets its own derived seed, so one -chaos.seed value
// pins the whole matrix. Cell/phase pairing follows the reliability
// physics spelled out in the package doc: DSM crashes on chains at its
// three phases; DCR and CCR crash at their quiesced phases; each
// strategy also gets a crash-free cell (DCR/CCR's carrying the network
// partition scenario that crash cells must avoid overlapping).
func Matrix(seed int64) []Cell {
	s := func(i int64) int64 { return seed + i*101 }
	return []Cell{
		{core.DSM{}, runtime.PhaseRequested, ChainSkew(s(1)), false},
		{core.DSM{}, runtime.PhaseRebalanceStart, ChainHot(s(2)), false},
		{core.DSM{}, runtime.PhaseRebalanceEnd, ChainBurst(s(3)), false},
		{core.DSM{}, "", ChainSkew(s(4)), false},
		// The batch-boundary cell: oversized micro-batches keep whole
		// link batches staged in flight, and the crash lands mid-flush.
		{core.DSM{}, runtime.PhaseRebalanceStart, ChainBatch(s(13)), false},
		{core.DCR{}, runtime.PhaseDrainEnd, DagDeep(s(5)), false},
		{core.DCR{}, runtime.PhaseRebalanceStart, DagJitter(s(6)), false},
		{core.DCR{}, runtime.PhaseRebalanceEnd, DagSkew(s(7)), false},
		{core.DCR{}, "", ChainPartition(s(8)), false},
		{core.CCR{}, runtime.PhaseDrainEnd, DagJitter(s(9)), false},
		{core.CCR{}, runtime.PhaseRebalanceStart, DagSkew(s(10)), false},
		{core.CCR{}, runtime.PhaseRebalanceEnd, DagDeep(s(11)), false},
		{core.CCR{}, "", ChainPartition(s(12)), false},
	}
}

// SupervisedMatrix builds the unplanned-crash matrix: every cell kills
// an executor with no paired restart and relies on the supervisor to
// converge back to full strength with zero loss. Steady cells (empty
// Phase) crash after warmup and must record a supervisor incident before
// the migrations run; phase cells crash mid-enactment, where either the
// rebalance's own respawn or the supervisor may heal the victim — the
// audit, not the incident count, is the assertion there. DSM cells stay
// on chains (replay physics, see the package doc); DCR/CCR cells crash
// after the JIT checkpoint has persisted the victim's state. That does
// not make them lossless: in the CCR@rebalance-end/dag-skew+unplanned
// cell every migrating inner is down, so the victim falls back to
// Sink[0], which nothing restarts. Until the supervisor notices, the
// data INIT resumes is delivered to the dead sink and dropped (ROADMAP
// item 2a).
func SupervisedMatrix(seed int64) []Cell {
	s := func(i int64) int64 { return seed + i*113 }
	return []Cell{
		{core.DSM{}, "", ChainSkew(s(1)), true},
		{core.DSM{}, "", ChainBurst(s(2)), true},
		{core.DSM{}, runtime.PhaseRebalanceStart, ChainHot(s(3)), true},
		{core.DCR{}, runtime.PhaseDrainEnd, DagDeep(s(4)), true},
		{core.CCR{}, runtime.PhaseDrainEnd, DagJitter(s(5)), true},
		{core.CCR{}, runtime.PhaseRebalanceEnd, DagSkew(s(6)), true},
	}
}

// supervisionPolicy is the detection/recovery tuning supervised cells
// run under: 2 s pulse, dead after 3 missed beats (~6 s to detection),
// 2 s retry cadence. All paper time, so it compresses with TimeScale.
func supervisionPolicy() supervisor.Policy {
	return supervisor.Policy{
		HeartbeatInterval:  2 * time.Second,
		MissedBeats:        3,
		RestoreTimeout:     30 * time.Second,
		RetryInterval:      2 * time.Second,
		MaxRestoreFailures: 3,
	}
}

// Options tunes a cell run.
type Options struct {
	// TimeScale compresses paper time (default 0.05 — fast enough for
	// -short -race CI, slack enough for loaded boxes).
	TimeScale float64
	// Migrations is how many live migrations to enact: 1 (default)
	// scales out; 2 scales out, settles, then scales back in — the
	// double-migration shape that exercises per-generation accounting.
	Migrations int
	// CatchupDeadline bounds the post-migration recovery wait in paper
	// time (default 420 s, sized for DSM's ack-timeout replay tail).
	CatchupDeadline time.Duration
}

func (o Options) withDefaults() Options {
	if o.TimeScale == 0 {
		o.TimeScale = 0.05
	}
	if o.Migrations == 0 {
		o.Migrations = 1
	}
	if o.CatchupDeadline == 0 {
		o.CatchupDeadline = 420 * time.Second
	}
	return o
}

// Result is one cell's audited outcome.
type Result struct {
	Cell Cell
	// Emitted and Arrived are the audit's distinct-root and sink-arrival
	// totals after the final drain.
	Emitted, Arrived int
	// Lost and Duplicates are the strict post-drain audit verdicts.
	Lost, Duplicates int
	// Generations is the per-migration boundary accounting; GenSum is
	// the per-generation emit counts summed (must equal Emitted).
	Generations []runtime.GenerationStat
	GenSum      int
	// Boundary sums boundary violations across generations.
	Boundary int
	// Victims names the executors crashed, one per injected crash.
	Victims []string
	// Incidents and MeanMTTR report the supervisor's detect→recover
	// record (unplanned cells only; zero otherwise). Mid-enactment kills
	// can legitimately record no incident: the migration's own rebalance
	// respawn may heal the victim before detection fires.
	Incidents int
	MeanMTTR  time.Duration
	// Err is the first failed assertion, nil when the cell passed.
	Err error
}

// failf records the first failure (later ones would be cascades).
func (r *Result) failf(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf(format, args...)
	}
}

// RunCell runs one matrix cell end to end: submit the scenario's job,
// replay its rate schedule, enact the migration(s) with a crash
// injected at the cell's phase, wait for recovery, drain, and audit.
func RunCell(ctx context.Context, cell Cell, o Options) Result {
	o = o.withDefaults()
	sc := cell.Scenario
	res := Result{Cell: cell}

	opts := []job.Option{
		job.WithTimeScale(o.TimeScale),
		job.WithSeed(sc.Seed),
		job.WithStrategy(cell.Strategy),
		job.WithSourceRate(sc.BaseRate),
		job.WithConfigOverrides(func(cfg *runtime.Config) {
			if sc.Keys != nil {
				cfg.KeySelector = sc.Keys
			}
			cfg.Network.Jitter = sc.Jitter
			cfg.Network.JitterSeed = uint64(sc.Seed)
			cfg.Network.Partitions = sc.Partitions
			if sc.BatchSize != 0 {
				cfg.BatchMaxSize = sc.BatchSize
			}
			// Chaos probes correctness, not §5 enactment timing: compress
			// the operational delays so a 13-cell matrix fits in CI.
			cfg.RebalanceCmdTime = 2 * time.Second
			cfg.WorkerBaseDelay = 2 * time.Second
			cfg.WorkerStagger = 500 * time.Millisecond
			cfg.WorkerJitter = time.Second
		}),
	}
	if cell.Unplanned {
		opts = append(opts, job.WithSupervision(supervisionPolicy()))
	}
	j, err := job.Submit(ctx, sc.Spec, opts...)
	if err != nil {
		res.failf("submit: %w", err)
		return res
	}
	defer j.Stop()

	eng := j.Engine()
	clock := j.Clock()

	// The crash injector: armed once per migration; at the matching
	// phase it kills and immediately restarts one executor. Victim
	// choice prefers a live inner instance; at rebalance-end every
	// migrating inner is down awaiting respawn, so the sink — always
	// live, never paused, never migrated — is the fallback. The hook
	// runs on the migrating goroutine with no engine lock held, and
	// CrashExecutor/RestartExecutor take no control token, so injecting
	// from inside the enactment cannot deadlock.
	inner := sc.Spec.Topology.Instances(topology.RoleInner)
	sinks := sc.Spec.Topology.Instances(topology.RoleSink)
	var armed atomic.Bool
	var victimMu sync.Mutex
	var victims []string
	j.OnPhase(func(p runtime.MigrationPhase) {
		if cell.Phase == "" || p != cell.Phase {
			return
		}
		if !armed.CompareAndSwap(true, false) {
			return
		}
		victim := sinks[0]
		for _, in := range inner {
			if eng.Executor(in) != nil {
				victim = in
				break
			}
		}
		j.CrashExecutor(victim)
		if !cell.Unplanned {
			// Planned cells pair the kill with an immediate restart; the
			// unplanned matrix leaves the corpse for the supervisor.
			j.RestartExecutor(victim)
		}
		victimMu.Lock()
		victims = append(victims, victim.String())
		victimMu.Unlock()
	})

	if err := j.Start(); err != nil {
		res.failf("start: %w", err)
		return res
	}

	// Replay the adversarial rate schedule against the live job.
	stopReplay := make(chan struct{})
	var stopOnce sync.Once
	var replayWG sync.WaitGroup
	if len(sc.Rates) > 0 {
		replayWG.Add(1)
		go func() {
			defer replayWG.Done()
			sc.Rates.Replay(clock, stopReplay, j.SetSourceRate)
		}()
	}
	defer func() {
		stopOnce.Do(func() { close(stopReplay) })
		replayWG.Wait()
	}()

	clock.Sleep(30 * time.Second) // warmup under the scenario schedule

	if cell.Strategy.Mode() == runtime.ModeDSM && (cell.Phase != "" || cell.Unplanned) {
		// Pin a committed checkpoint before the crash so the victim's
		// INIT restore has a blob — the periodic DSM checkpointer would
		// provide one eventually; doing it explicitly keeps the cell
		// independent of where the 30 s checkpoint tick happens to fall.
		if err := j.Checkpoint(ctx); err != nil {
			res.failf("pre-crash checkpoint: %w", err)
			return res
		}
	}

	if cell.Unplanned && cell.Phase == "" {
		// Steady-state unplanned kill: no restart, no migration in
		// flight — detection and restore are entirely the supervisor's.
		victim := sinks[0]
		for _, in := range inner {
			if eng.Executor(in) != nil {
				victim = in
				break
			}
		}
		j.CrashExecutor(victim)
		victimMu.Lock()
		victims = append(victims, victim.String())
		victimMu.Unlock()
		// The incident must close before the migrations add their own
		// churn — this is where MTTR is genuinely the supervisor's.
		if err := waitSupervised(j, clock, 1, 180*time.Second); err != nil {
			res.failf("steady-state recovery: %w", err)
			return res
		}
	}

	dirs := []job.Direction{job.ScaleOut, job.ScaleIn}
	for i := 0; i < o.Migrations; i++ {
		if i > 0 {
			clock.Sleep(20 * time.Second) // settle between migrations
		}
		armed.Store(true)
		var err error
		if cell.Unplanned {
			// A supervised enactment rides out transient contention with
			// the recovery loop (its restore wave holds the control token
			// in bursts) instead of failing fast on ErrBusy.
			err = j.ScaleWithRetry(ctx, dirs[i%len(dirs)], job.RetryPolicy{
				MaxAttempts: 8,
				BaseDelay:   2 * time.Second,
				MaxDelay:    10 * time.Second,
				JitterSeed:  sc.Seed,
			})
		} else {
			err = j.ScaleWith(ctx, dirs[i%len(dirs)], cell.Strategy)
		}
		if err != nil {
			res.failf("migration %d: %w", i+1, err)
			return res
		}
	}

	if cell.Unplanned {
		// Whether the rebalance respawn or the supervisor healed the
		// mid-enactment victim, the job must be back at full strength
		// before the audit cutoff means anything.
		if err := waitSupervised(j, clock, 0, 180*time.Second); err != nil {
			res.failf("post-migration convergence: %w", err)
			return res
		}
	}

	// Recovery wait, against a FIXED cutoff taken after the last
	// migration: every crash- or rebalance-killed tree was emitted
	// before this instant, so polling Lost(cut) to zero guarantees the
	// whole replay tail (DSM's 30 s ack timeouts, possibly re-killed and
	// re-replayed) has landed. A sliding horizon would not: recently
	// killed roots age into it only after Drain has paused the sources,
	// and a paused source never re-emits its replay backlog. JIT
	// strategies clear the cutoff in seconds (in-flight data only).
	cut := clock.Now()
	deadline := cut.Add(o.CatchupDeadline)
	for len(eng.Audit().Lost(cut)) != 0 {
		if clock.Now().After(deadline) {
			res.failf("catchup: %d roots emitted before the last migration still missing after %v",
				len(eng.Audit().Lost(cut)), o.CatchupDeadline)
			return res
		}
		clock.Sleep(5 * time.Second)
	}

	// Stop the schedule and drain completely for a strict audit: every
	// root ever emitted must have reached the sink, no cutoff slack.
	stopOnce.Do(func() { close(stopReplay) })
	replayWG.Wait()
	if err := j.Drain(ctx); err != nil {
		res.failf("drain: %w", err)
		return res
	}

	victimMu.Lock()
	res.Victims = append([]string(nil), victims...)
	victimMu.Unlock()

	if cell.Unplanned {
		st := j.Status()
		res.Incidents = st.Incidents
		res.MeanMTTR = st.MeanMTTR
	}

	aud := eng.Audit()
	now := clock.Now()
	res.Emitted = aud.EmittedCount()
	res.Arrived = aud.SinkArrivals()
	res.Lost = len(aud.Lost(now))
	res.Duplicates = aud.Duplicates(eng.Fanout())
	res.Generations = aud.GenerationStats()
	for _, g := range res.Generations {
		res.GenSum += g.Emitted
		res.Boundary += g.Violations
	}

	audit(&res, o)
	return res
}

// audit applies the cell's acceptance assertions to the collected
// numbers, in severity order.
func audit(res *Result, o Options) {
	cell := res.Cell
	if res.Emitted == 0 {
		res.failf("no events emitted")
	}
	if res.Lost > 0 {
		res.failf("%d roots lost (emitted %d, sink arrivals %d)", res.Lost, res.Emitted, res.Arrived)
	}
	if res.Duplicates > 0 {
		res.failf("%d duplicated roots", res.Duplicates)
	}
	if want := o.Migrations + 1; len(res.Generations) != want {
		res.failf("%d audit generations, want %d", len(res.Generations), want)
	}
	if res.GenSum != res.Emitted {
		res.failf("per-generation emits sum to %d, want emit total %d", res.GenSum, res.Emitted)
	}
	if cell.Phase != "" && len(res.Victims) != o.Migrations {
		res.failf("crash injected %d times (%v), want once per migration (%d)",
			len(res.Victims), res.Victims, o.Migrations)
	}
	if cell.Unplanned && cell.Phase == "" && res.Incidents == 0 {
		res.failf("unplanned steady-state kill recorded no supervisor incident")
	}
	// Only DCR promises a strict old/new boundary per migration (§3.2):
	// the drain lands every pre-migration event before any post-
	// migration event is emitted. DSM never pauses; CCR resumes captured
	// events concurrently with new input.
	if cell.Strategy.Name() == (core.DCR{}).Name() && res.Boundary > 0 {
		res.failf("%d boundary violations across %d migrations (DCR promises 0)",
			res.Boundary, o.Migrations)
	}
}

// waitSupervised polls the supervised job until it is back at full
// strength: health healthy, every inner+sink executor running, no
// pending respawns, and at least wantIncidents closed incidents. The
// deadline is paper time, so it compresses with the cell's TimeScale.
func waitSupervised(j *job.Job, clock timex.Clock, wantIncidents int, deadline time.Duration) error {
	all := len(j.Spec().Topology.Instances(topology.RoleInner, topology.RoleSink))
	limit := clock.Now().Add(deadline)
	for {
		st := j.Status()
		if st.Health == supervisor.Healthy && st.Incidents >= wantIncidents &&
			st.RunningExecutors == all && st.PendingRespawns == 0 {
			return nil
		}
		if clock.Now().After(limit) {
			return fmt.Errorf("not converged after %v: health=%v incidents=%d running=%d/%d pending=%d",
				deadline, st.Health, st.Incidents, st.RunningExecutors, all, st.PendingRespawns)
		}
		clock.Sleep(2 * time.Second)
	}
}

// RunMatrix runs cells sequentially, reporting each result to report
// (if non-nil) as it lands. It never stops early: a failed cell is
// recorded and the matrix continues.
func RunMatrix(ctx context.Context, cells []Cell, o Options, report func(Result)) []Result {
	out := make([]Result, 0, len(cells))
	for _, cell := range cells {
		r := RunCell(ctx, cell, o)
		out = append(out, r)
		if report != nil {
			report(r)
		}
	}
	return out
}

// Summary renders results as a fixed-width table with a verdict line,
// the form the elastic-bench chaos artifact and stormlet -chaos print.
func Summary(results []Result, seed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %8s %8s %5s %5s %9s %5s %9s %s\n",
		"cell", "emitted", "arrived", "lost", "dups", "boundary", "incid", "mttr", "verdict")
	failed := 0
	for _, r := range results {
		verdict := "ok"
		if r.Err != nil {
			verdict = "FAIL: " + r.Err.Error()
			failed++
		}
		mttr := "-"
		if r.Incidents > 0 {
			mttr = r.MeanMTTR.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-44s %8d %8d %5d %5d %9d %5d %9s %s\n",
			r.Cell.ID(), r.Emitted, r.Arrived, r.Lost, r.Duplicates, r.Boundary,
			r.Incidents, mttr, verdict)
	}
	if failed > 0 {
		fmt.Fprintf(&b, "\n%d/%d cells FAILED — replay with -chaos.seed=%d\n", failed, len(results), seed)
	} else {
		fmt.Fprintf(&b, "\nall %d cells passed (seed %d)\n", len(results), seed)
	}
	return b.String()
}
