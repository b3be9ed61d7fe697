package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	wtrace "repro/internal/workloads/trace"
	"repro/internal/workloads/trace/report"
)

// simPlacement replays bursty multi-tenant traces on the simulator, with
// no checkpointing. Records are re-tagged into a few (cores, memory,
// tier) signatures and placed by the locality policy on a heterogeneous
// hpc/cloud/fog pool sized so that bursts exceed capacity and a backlog
// forms. A step registers one trace's DAG and runs it to completion; a
// job replays each of simTraces traces generated from the seed once, and
// every later replay of a trace must reproduce its first one exactly.
type simPlacement struct {
	specs [][]infra.TaskSpec
	metas []map[int64]report.TraceMeta
	first []*simOutcome // each trace's first replay, nil until run

	eng          engineLayer
	build, runSp []float64 // traced: seconds per replay
}

// simOutcome is what a deterministic replay must reproduce.
type simOutcome struct {
	makespan   time.Duration
	completed  int
	bytesMoved int64
	launched   int
	qwP99S     float64 // virtual ready→start p99
}

// simTraces traces of simTraceTasks tasks make one job: enough steps per
// run for a p99 with ten samples beyond it, and enough traces that one
// seed's burst pattern does not decide the result.
const (
	simTraces     = 16
	simTraceTasks = 1250
)

func (p *simPlacement) setup(o options) error {
	traces := simTraces
	if o.tiny {
		traces = 2
	}
	p.specs, p.metas = nil, nil
	p.first = make([]*simOutcome, traces)
	for i := 0; i < traces; i++ {
		seed := o.seed*simTraces + int64(i)
		tr, err := placementTrace(seed, simTraceTasks)
		if err != nil {
			return err
		}
		p.specs = append(p.specs, tr.Specs())
		p.metas = append(p.metas, report.MetaOf(tr))
	}
	// Build the pool once, as a job does, so setup_s covers it.
	_, _, err := placementPool()
	return err
}

// placementTrace generates a poisson-burst trace with four tenants and
// cohort fan-out dependencies, then re-tags every record into one of four
// constraint signatures.
func placementTrace(seed int64, tasks int) (*wtrace.Trace, error) {
	g := wtrace.DefaultGen(wtrace.ShapePoissonBurst)
	g.Seed = seed
	g.Tasks = tasks
	// The arrival density is fixed, so a 1250-task trace spans half an
	// hour with a two-minute burst every ten, and any trace size keeps the
	// same backlog on the same pool.
	g.Horizon = time.Duration(tasks) * 1440 * time.Millisecond
	g.Windows = 48
	g.MeanDur = time.Minute
	g.SigmaLog = 0.5
	g.BurstEvery = g.Horizon / 12
	g.BurstLen = g.BurstEvery / 5
	g.BurstFactor = 8
	g.Tenants = 4
	g.CohortSize = 4
	g.CohortDeps = true
	g.OutputBytes = 256 << 20
	tr, err := wtrace.Generate(g)
	if err != nil {
		return nil, err
	}
	sigs := []struct {
		cores int
		mem   int64
		tier  string
		share float64
	}{
		{1, 2000, "", 0.45},
		{4, 16000, "hpc", 0.20},
		{2, 4000, "cloud", 0.25},
		{1, 1000, "fog", 0.10},
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range tr.Tasks {
		x := rng.Float64()
		for _, s := range sigs {
			if x < s.share {
				tr.Tasks[i].Cores, tr.Tasks[i].MemMB, tr.Tasks[i].Tier = s.cores, s.mem, s.tier
				break
			}
			x -= s.share
		}
	}
	return tr, nil
}

// placementPool is the heterogeneous pool: 2 HPC nodes (96 cores), 6
// cloud VMs (48 cores) and 16 fog devices (64 slow cores), with the
// continuum network between their tiers.
func placementPool() (*resources.Pool, *simnet.Network, error) {
	pool := resources.NewPool()
	add := func(prefix string, n int, d resources.Description) error {
		for i := 0; i < n; i++ {
			if err := pool.Add(resources.NewNode(fmt.Sprintf("%s%03d", prefix, i), d)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := add("hpc", 2, resources.MareNostrumNode); err != nil {
		return nil, nil, err
	}
	if err := add("cloud", 6, resources.CloudVM); err != nil {
		return nil, nil, err
	}
	if err := add("fog", 16, resources.FogDevice); err != nil {
		return nil, nil, err
	}
	net := simnet.Continuum()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	return pool, net, nil
}

func (p *simPlacement) close() {}

func (p *simPlacement) job(t *tally, tr *tracer) error {
	for i := range p.specs {
		if err := p.replay(i, t, tr); err != nil {
			return err
		}
	}
	t.jobs++
	return nil
}

// replay registers trace i's DAG, runs it to completion and checks it.
func (p *simPlacement) replay(i int, t *tally, tr *tracer) error {
	specs := p.specs[i]
	var reg *obsv.Registry
	if tr != nil {
		reg = obsv.NewRegistry()
	}
	step := tr.nextStep()
	t0 := time.Now()
	pool, net, err := placementPool()
	if err != nil {
		return err
	}
	sp := tr.begin("infra.New", 0, step)
	sim, err := infra.New(infra.Config{Pool: pool, Net: net, Policy: sched.ByName("locality"), Metrics: reg}, specs)
	tr.end(sp)
	if err != nil {
		return err
	}
	t1 := time.Now()
	sp = tr.begin("infra.Run", 0, step)
	res, runErr := sim.Run()
	tr.end(sp)
	t2 := time.Now()

	// The step is the replay itself, without DAG registration.
	t.done(i, len(specs), t2.Sub(t0))
	t.stepsMS = append(t.stepsMS, float64(t2.Sub(t1))/1e6)
	t.makespanS = append(t.makespanS, res.Makespan.Seconds())
	if runErr != nil || res.TasksCompleted != len(specs) || res.TasksFailed != 0 {
		t.fail(len(specs), "sim-placement trace %d: completed %d of %d specs, %d failed, err %v",
			i, res.TasksCompleted, len(specs), res.TasksFailed, runErr)
		return nil
	}
	got := &simOutcome{makespan: res.Makespan, completed: res.TasksCompleted,
		bytesMoved: res.BytesMoved, launched: sim.EngineStats().Launched}
	if p.first[i] == nil {
		got.qwP99S = report.Build(sim.Timings(), p.metas[i]).QueueWait.P99 / 1e3
		if got.qwP99S <= 0 {
			t.fail(len(specs), "sim-placement trace %d: no backlog formed (queue-wait p99 is 0)", i)
		}
		p.first[i] = got
	} else if f := p.first[i]; got.makespan != f.makespan || got.completed != f.completed ||
		got.bytesMoved != f.bytesMoved || got.launched != f.launched {
		t.fail(len(specs), "sim-placement trace %d: replay differs from the first (makespan %v vs %v, bytes %d vs %d)",
			i, got.makespan, f.makespan, got.bytesMoved, f.bytesMoved)
	}
	t.add("sim_queue_wait_p99_s", p.first[i].qwP99S)
	if tr != nil {
		p.build = append(p.build, t1.Sub(t0).Seconds())
		p.runSp = append(p.runSp, t2.Sub(t1).Seconds())
		p.eng.tasks += len(specs)
		p.eng.edges += res.DepEdges.Total()
		p.eng.addStats(sim.EngineStats())
		p.eng.addTimings(sim.Timings(), p.metas[i])
		p.eng.addRegistry(reg)
	}
	return nil
}

func (p *simPlacement) layers(t *tally, tr *tracer) map[string]float64 {
	out := map[string]float64{
		"infra.build_s":        median(p.build),
		"infra.run_s":          median(p.runSp),
		"sim_queue_wait_p99_s": t.med("sim_queue_wait_p99_s"),
	}
	p.eng.metrics(out)
	return out
}
