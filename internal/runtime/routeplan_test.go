package runtime

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataflows"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// routeOf returns instance 0 of task from's compiled route to task to.
func routeOf(t *testing.T, e *Engine, from, to string) *route {
	t.Helper()
	s := e.plan[topology.Instance{Task: from}]
	for i := range s.routes {
		if s.routes[i].links[0].key.to.Task == to {
			return &s.routes[i]
		}
	}
	t.Fatalf("no route %s -> %s", from, to)
	return nil
}

// TestRoutePlanMatchesTopology checks the compiled plan against the
// topology it was compiled from: every sender instance has one route per
// outgoing edge with one link per target instance, every grouping picks
// what the topology prescribes, and a (sender, destination) pair has one
// fabric stage whichever route reaches it — a checkpoint event on a stage
// of its own could overtake the data sent before it.
func TestRoutePlanMatchesTopology(t *testing.T) {
	topos := []*topology.Topology{dataflows.Linear().Topology, dataflows.Grid().Topology}
	for seed := int64(1); seed <= 20; seed++ {
		topos = append(topos, topology.Random(seed, topology.DefaultRandomConfig()))
	}
	for _, topo := range topos {
		e := newHarness(t, topo, ModeCCR).eng
		for _, inst := range topo.Instances() {
			s := e.plan[inst]
			edges := topo.Outgoing(inst.Task)
			if s == nil || s.inst != inst || len(s.routes) != len(edges) {
				t.Fatalf("%s: %s has plan %+v for %d edges", topo.Name(), inst, s, len(edges))
			}
			for i, edge := range edges {
				r := &s.routes[i]
				to := topo.Task(edge.To)
				if r.grouping != edge.Grouping || len(r.links) != to.Parallelism || r.toInner != (to.Role == topology.RoleInner) {
					t.Fatalf("%s: %s route %d = {%v, %d links, inner %v}, want edge %+v to %+v",
						topo.Name(), inst, i, r.grouping, len(r.links), r.toInner, edge, to)
				}
				for j, st := range r.links {
					want := linkKey{from: inst.String(), to: topology.Instance{Task: edge.To, Index: j}}
					if st.key != want {
						t.Fatalf("%s: %s route %d link %d is %v, want %v", topo.Name(), inst, i, j, st.key, want)
					}
					if got := e.fab.link(want.from, want.to); got != st {
						t.Fatalf("%s: link %v has two stages", topo.Name(), want)
					}
				}
				last := topology.Instance{Task: inst.Task, Index: topo.Task(inst.Task).Parallelism - 1}
				if e.plan[last].routes[i].shuffle != r.shuffle {
					t.Fatalf("%s: %s route %d does not share its edge's shuffle counter", topo.Name(), inst, i)
				}
				par := uint64(to.Parallelism)
				next := r.shuffle.Load()
				for k := uint64(0); k < 2*par+8; k++ {
					var want uint64
					switch edge.Grouping {
					case topology.Fields:
						want = hash64(k) % par
					case topology.Global:
						want = 0
					default:
						want = next % par
						next++
					}
					if got := r.pick(k).key.to; got != (topology.Instance{Task: edge.To, Index: int(want)}) {
						t.Fatalf("%s: %s %v pick(%d) = %v, want index %d", topo.Name(), inst, edge.Grouping, k, got, want)
					}
				}
			}
		}
		for i, inst := range e.statefulInsts {
			if st := e.broadcast[i]; st != e.fab.link(coordinatorKey, inst) {
				t.Fatalf("%s: broadcast link %d is %v, want the coordinator's link to %s", topo.Name(), i, st.key, inst)
			}
		}
		for _, st := range e.firstLayer {
			if st.key.from != coordinatorKey || topo.Task(st.key.to.Task).Role != topology.RoleInner {
				t.Fatalf("%s: first-layer link %v", topo.Name(), st.key)
			}
		}
	}
}

// TestHopAllocs pins the hot path at zero allocations under CCR: a
// source root fanned out to the first layer, one executor hop, and a
// Send on an existing link. The payload is boxed once, outside the
// measured function, as the source boxes it once when it generates it:
// the one allocation left per root.
func TestHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cfg := testConfig(ModeCCR)
	cfg.Network = cluster.NetworkModel{} // due at once: no shard sleeps
	e := newHarnessCfg(t, dataflows.Grid().Topology, cfg).eng
	src := newSource(e, topology.Instance{Task: dataflows.SourceName})
	hop := e.plan[e.topo.Instances(topology.RoleInner)[0]]
	link := hop.routes[0].links[0]
	var payload any = workload.Payload{Seq: 1, Body: "obs"}
	now := e.clock.Now()
	// Wait for each round's events to be handed off (and, with no
	// executor running, dropped and released) before the next round
	// draws from the pools again: AllocsPerRun runs on one P, where the
	// shard goroutines would otherwise fall behind and leave the pools
	// empty.
	sent := e.fab.Dropped()
	perRound := uint64(len(src.plan.routes) + len(hop.routes) + 1)
	allocs := testing.AllocsPerRun(200, func() {
		src.emitRoot(payload, false, now, now, true, 0)
		parent := tuple.NewPooledEvent()
		parent.ID, parent.Root, parent.Kind, parent.Value = 1, 1, tuple.Data, payload
		e.routeData(hop, parent, payload, 7)
		parent.Release()
		e.fab.Send(link, tuple.NewPooledEvent())
		sent += perRound
		for e.fab.Dropped() < sent {
			runtime.Gosched()
		}
	})
	if allocs != 0 {
		t.Fatalf("hop allocates %.0f objects, want 0", allocs)
	}
}
