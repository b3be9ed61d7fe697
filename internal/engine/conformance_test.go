package engine_test

// Backend conformance sweep: every generator in internal/workloads runs
// through both backends — the simulator natively, the live runtime via a
// spec-to-submission bridge — on a single single-core node, so execution
// is fully serialised and the engine's head selection alone determines
// the schedule. Start orders, launch counts, transfer books and
// dependency-edge statistics must match exactly.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
	"repro/internal/workloads"
)

type sweepOutcome struct {
	order     []int // started spec indices, re-starts included
	launched  int
	transfers int
	bytes     int64
	edges     deps.Stats
}

// sweepSim runs the case natively on the simulator, with a gate task (ID
// 1) mirroring the live side's fully-queued start.
func sweepSim(t *testing.T, c workloads.ConformanceCase) sweepOutcome {
	return sweepSimAvail(t, c, engine.AvailRunAnyway)
}

func sweepSimAvail(t *testing.T, c workloads.ConformanceCase, avail engine.Availability) sweepOutcome {
	t.Helper()
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("pn0", c.Node))
	specs := []infra.TaskSpec{{ID: 1, Class: "gate", Duration: time.Second}}
	for i, spec := range c.Specs {
		spec.ID = int64(i + 2)
		specs = append(specs, spec)
	}
	tr := trace.New()
	sim, err := infra.New(infra.Config{
		Pool:         pool,
		Net:          simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:       sched.FIFO{},
		Tracer:       tr,
		StageIn:      c.StageIn,
		Availability: avail,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := sim.EngineStats()
	return sweepOutcome{
		order:     specOrder(tr),
		launched:  st.Launched,
		transfers: st.Transfers,
		bytes:     st.BytesMoved,
		edges:     res.DepEdges,
	}
}

// sweepLive bridges the specs onto the live runtime: one task definition
// per spec (instant body returning one value per written access, declared
// output sizes), handles per data ID, stage-in via SetInitial, and a gate
// occupying the single core until the whole workflow is queued.
func sweepLive(t *testing.T, c workloads.ConformanceCase) sweepOutcome {
	t.Helper()
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("pn0", c.Node))
	tr := trace.New()
	rt := core.New(core.Config{
		Pool:      pool,
		Policy:    sched.FIFO{},
		Tracer:    tr,
		Locations: transfer.NewRegistry(),
		Net:       simnet.New(simnet.Link{BandwidthMBps: 1000}),
	})
	defer rt.Shutdown()

	release := make(chan struct{})
	mustRegister(t, rt, core.TaskDef{Name: "gate", Fn: func(_ context.Context, _ []any) ([]any, error) {
		<-release
		return nil, nil
	}})
	for i, spec := range c.Specs {
		writes := 0
		for _, a := range spec.Accesses {
			if a.Dir.Writes() {
				writes++
			}
		}
		n := writes
		mustRegister(t, rt, core.TaskDef{
			Name: fmt.Sprintf("t%d", i),
			Fn: func(_ context.Context, _ []any) ([]any, error) {
				out := make([]any, n)
				for j := range out {
					out[j] = 1
				}
				return out, nil
			},
			Constraints: spec.Constraints,
		})
	}

	if _, err := rt.Submit("gate"); err != nil {
		t.Fatal(err)
	}
	handles := map[deps.DataID]*core.Handle{}
	h := func(d deps.DataID) *core.Handle {
		if handles[d] == nil {
			handles[d] = rt.NewData()
		}
		return handles[d]
	}
	for d, size := range c.StageIn {
		rt.SetInitial(h(d), size, core.WithSize(size))
	}
	for i, spec := range c.Specs {
		params := make([]core.Param, 0, len(spec.Accesses))
		for _, a := range spec.Accesses {
			p := core.Param{Handle: h(a.Data), Dir: a.Dir}
			if a.Dir.Writes() {
				p.Size = spec.OutputBytes[a.Data]
			}
			params = append(params, p)
		}
		if _, err := rt.Submit(fmt.Sprintf("t%d", i), params...); err != nil {
			t.Fatalf("%s task %d: %v", c.Name, i, err)
		}
	}
	close(release)
	rt.Barrier()

	st := rt.EngineStats()
	return sweepOutcome{
		order:     specOrder(tr),
		launched:  st.Launched,
		transfers: st.Transfers,
		bytes:     st.BytesMoved,
		edges:     rt.Stats().DepsEdges,
	}
}

// specOrder maps the TaskStarted sequence back to spec indices (task ID
// i+2 is spec i; the gate is skipped).
func specOrder(tr *trace.Tracer) []int {
	var order []int
	for _, ev := range tr.Events() {
		if ev.Kind != trace.TaskStarted || ev.Task == 1 {
			continue
		}
		order = append(order, int(ev.Task)-2)
	}
	return order
}

// TestConformanceAvailabilityNeutral: with no partition scripted, the
// availability policies must be invisible — every conformance generator
// produces the identical schedule, transfer books and dependency stats
// under run-anyway, defer and recompute, with nothing parked and nothing
// run missing.
func TestConformanceAvailabilityNeutral(t *testing.T) {
	for _, c := range workloads.ConformanceSuite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			base := sweepSim(t, c)
			for _, avail := range []engine.Availability{engine.AvailDefer, engine.AvailRecompute} {
				got := sweepSimAvail(t, c, avail)
				if len(got.order) != len(base.order) {
					t.Fatalf("%s: start sequence length %d vs baseline %d", avail, len(got.order), len(base.order))
				}
				for i := range base.order {
					if got.order[i] != base.order[i] {
						t.Fatalf("%s: start order diverges at %d: %v vs baseline %v", avail, i, got.order, base.order)
					}
				}
				if got.launched != base.launched || got.transfers != base.transfers ||
					got.bytes != base.bytes || got.edges != base.edges {
					t.Fatalf("%s: outcome diverges from run-anyway baseline: %+v vs %+v", avail, got, base)
				}
			}
		})
	}
}

func TestWorkloadConformanceSweep(t *testing.T) {
	for _, c := range workloads.ConformanceSuite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			sim := sweepSim(t, c)
			live := sweepLive(t, c)
			if len(live.order) != len(c.Specs) {
				t.Fatalf("live started %d tasks, want %d", len(live.order), len(c.Specs))
			}
			if len(sim.order) != len(live.order) {
				t.Fatalf("start sequences differ in length: sim %d vs live %d",
					len(sim.order), len(live.order))
			}
			for i := range sim.order {
				if sim.order[i] != live.order[i] {
					t.Fatalf("start order diverges at %d: sim %v vs live %v",
						i, sim.order, live.order)
				}
			}
			if sim.launched != live.launched {
				t.Fatalf("launch counts diverge: sim %d vs live %d", sim.launched, live.launched)
			}
			if sim.transfers != live.transfers {
				t.Fatalf("transfer counts diverge: sim %d vs live %d", sim.transfers, live.transfers)
			}
			if sim.bytes != live.bytes {
				t.Fatalf("bytes moved diverge: sim %d vs live %d", sim.bytes, live.bytes)
			}
			if sim.edges != live.edges {
				t.Fatalf("dependency stats diverge: sim %+v vs live %+v", sim.edges, live.edges)
			}
		})
	}
}
