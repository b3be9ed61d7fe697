// Autoscale benchmark: prices the cost-aware multi-tier autoscaler
// (internal/autoscale) against the legacy cost-blind single-tier
// ElasticManager on the generator's bursty and diurnal arrival shapes.
// Both arms replay the identical trace through internal/infra on the
// virtual clock, so the only difference is the scaling policy; cost is
// reconstructed from the run's node trace (node_added/node_removed
// events) priced at each tier's CostPerNodeHour, plus the static base
// pool for the whole makespan. The headline metric is cost per 1000
// completed tasks — the cost-per-throughput the analyzer scores — and
// the report feeds the BENCH_scale.json "autoscale" section the nightly
// gate diffs.
package scalebench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	rtrace "repro/internal/trace"
	wtrace "repro/internal/workloads/trace"
)

// Tier prices for the benchmark arms, in cost units per node-hour. The
// base pool is one always-on edge sensor — the paper's continuum story:
// a device that is simply there, with elastic fog and cloud behind it —
// priced identically in both arms, so it cancels out of the comparison.
const (
	benchCloudRate = 1.0
	benchFogRate   = 0.25
	benchEdgeRate  = 0.05
)

// AutoscaleConfig parameterises the comparison.
type AutoscaleConfig struct {
	// Tasks per shape (0 ⇒ 250). The default targets the regime where
	// the tier decision is non-trivial: demand of order a few reference
	// cores, where a fog fleet can undercut a cloud VM on the baseline
	// and the bursts still need real elastic response. At much higher
	// task counts sustained demand exceeds the fog break-even and the
	// cost-optimal policy degenerates to "hold one big VM" — which the
	// legacy baseline already does by accident.
	Tasks int
	// Seed drives the trace generator; both arms replay the same trace.
	Seed int64
	// Every is the scaling evaluation period (0 ⇒ 10s virtual).
	Every time.Duration
	// Progress, when set, receives one line per finished arm.
	Progress func(string)
}

// AutoscaleArm is one policy's run: completions, makespan, and the
// priced node-hours it consumed.
type AutoscaleArm struct {
	TasksCompleted int     `json:"tasks_completed"`
	MakespanSec    float64 `json:"makespan_seconds"`
	// CostUnits prices the run: elastic node spans from the node trace
	// at their tier rates, plus the base pool for the whole makespan.
	CostUnits float64 `json:"cost_units"`
	// CostPer1kTasks is CostUnits normalised per 1000 completions — the
	// cost-per-throughput figure the arms are compared on.
	CostPer1kTasks float64 `json:"cost_per_1k_tasks"`
	PeakNodes      int     `json:"peak_nodes"`
	NodesAdded     int     `json:"nodes_added"`
	NodesRemoved   int     `json:"nodes_removed"`
}

// AutoscaleShape is one arrival shape's two-arm comparison.
type AutoscaleShape struct {
	Shape  string       `json:"shape"`
	Tasks  int          `json:"tasks"`
	Legacy AutoscaleArm `json:"legacy"`
	// CostAware is the multi-tier analyzer arm (cloud + fog variants).
	CostAware AutoscaleArm `json:"cost_aware"`
	// LegacyOverCostAware is the cost-per-task ratio; > 1 means the
	// cost-aware analyzer ran the same trace cheaper.
	LegacyOverCostAware float64 `json:"legacy_over_cost_aware"`
}

// AutoscaleReport is the BENCH_scale.json "autoscale" section.
type AutoscaleReport struct {
	EvalEverySec float64          `json:"eval_every_seconds"`
	Seed         int64            `json:"seed"`
	Shapes       []AutoscaleShape `json:"shapes"`
}

// RunAutoscale runs the two-arm comparison on the bursty and diurnal
// shapes and returns the report section.
func RunAutoscale(cfg AutoscaleConfig) (*AutoscaleReport, error) {
	if cfg.Tasks <= 0 {
		cfg.Tasks = 250
	}
	if cfg.Every <= 0 {
		cfg.Every = 10 * time.Second
	}
	rep := &AutoscaleReport{EvalEverySec: cfg.Every.Seconds(), Seed: cfg.Seed}
	for _, shape := range []string{wtrace.ShapePoissonBurst, wtrace.ShapeDiurnal} {
		gen := wtrace.DefaultGen(shape)
		gen.Tasks = cfg.Tasks
		gen.Seed = cfg.Seed
		tr, err := wtrace.Generate(gen)
		if err != nil {
			return nil, err
		}
		sh := AutoscaleShape{Shape: shape, Tasks: len(tr.Tasks)}
		if sh.Legacy, err = runAutoscaleArm(tr, false, cfg.Every); err != nil {
			return nil, fmt.Errorf("scalebench: %s legacy arm: %w", shape, err)
		}
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("%s legacy: %.1f cost units (%.2f/1k tasks)", shape, sh.Legacy.CostUnits, sh.Legacy.CostPer1kTasks))
		}
		if sh.CostAware, err = runAutoscaleArm(tr, true, cfg.Every); err != nil {
			return nil, fmt.Errorf("scalebench: %s cost-aware arm: %w", shape, err)
		}
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("%s cost-aware: %.1f cost units (%.2f/1k tasks)", shape, sh.CostAware.CostUnits, sh.CostAware.CostPer1kTasks))
		}
		if sh.CostAware.CostPer1kTasks > 0 {
			sh.LegacyOverCostAware = sh.Legacy.CostPer1kTasks / sh.CostAware.CostPer1kTasks
		}
		rep.Shapes = append(rep.Shapes, sh)
	}
	return rep, nil
}

// runAutoscaleArm replays one trace with one scaling policy over a
// one-fog-node base pool and prices the run from its node trace.
func runAutoscaleArm(tr *wtrace.Trace, costAware bool, every time.Duration) (AutoscaleArm, error) {
	pool := resources.NewPool()
	if err := pool.Add(resources.NewNode("base-0", resources.EdgeSensor)); err != nil {
		return AutoscaleArm{}, err
	}
	tracer := rtrace.New()
	cfg := infra.Config{
		Pool:         pool,
		Net:          simnet.New(simnet.Link{BandwidthMBps: 1000, Latency: 100 * time.Microsecond}),
		Policy:       sched.MinLoad{},
		Tracer:       tracer,
		ElasticEvery: every,
	}
	if costAware {
		scaler, err := autoscale.New(autoscale.DefaultPolicy(), []autoscale.Variant{
			benchVariant("cloud", resources.CloudVM, benchCloudRate, 30*time.Second, 8),
			benchVariant("fog", resources.FogDevice, benchFogRate, 5*time.Second, 16),
		})
		if err != nil {
			return AutoscaleArm{}, err
		}
		cfg.Autoscale = scaler
	} else {
		// The legacy baseline scales the cloud tier only, with the
		// cost-blind rule: same growth threshold, shrink once a whole
		// VM's worth of cores idles.
		cfg.Autoscale = autoscale.Legacy{
			Manager: resources.NewElasticManager(
				resources.NewSimProvider("cloud", resources.CloudVM, 8, 30*time.Second),
				resources.ScalePolicy{MaxNodes: 8, CostPerNodeHour: benchCloudRate},
			),
			TasksPerCore:      2,
			IdleCoresToShrink: 8,
		}
	}
	sim, err := infra.New(cfg, tr.Specs())
	if err != nil {
		return AutoscaleArm{}, err
	}
	res, err := sim.Run()
	if err != nil {
		return AutoscaleArm{}, err
	}
	arm := AutoscaleArm{
		TasksCompleted: res.TasksCompleted,
		MakespanSec:    res.Makespan.Seconds(),
		PeakNodes:      res.PeakNodes,
	}
	arm.CostUnits = benchEdgeRate * res.Makespan.Hours() // base-0, present throughout
	arm.CostUnits += priceNodeTrace(tracer, res.Makespan, &arm)
	if arm.TasksCompleted > 0 {
		arm.CostPer1kTasks = arm.CostUnits * 1000 / float64(arm.TasksCompleted)
	}
	return arm, nil
}

// benchVariant builds one autoscaler tier for the comparison arm.
func benchVariant(name string, desc resources.Description, rate float64, delay time.Duration, max int) autoscale.Variant {
	return autoscale.Variant{
		Name: name,
		Desc: desc,
		Manager: resources.NewElasticManager(
			resources.NewSimProvider(name, desc, max, delay),
			resources.ScalePolicy{MaxNodes: max, CostPerNodeHour: rate},
		),
	}
}

// priceNodeTrace integrates elastic node lifetimes from the run's
// node_added/node_removed events, priced by the tier encoded in the
// node-name prefix (SimProvider names nodes "tier-N"). Nodes still in
// the pool when the run ends are billed to the makespan.
func priceNodeTrace(tracer *rtrace.Tracer, makespan time.Duration, arm *AutoscaleArm) float64 {
	added := map[string]time.Duration{}
	cost := 0.0
	for _, e := range tracer.Events() {
		switch e.Kind {
		case rtrace.NodeAdded:
			added[e.Node] = e.At
			arm.NodesAdded++
		case rtrace.NodeRemoved:
			at, ok := added[e.Node]
			if !ok {
				continue // base pool or fault-injected node: not elastic
			}
			cost += tierRate(e.Node) * (e.At - at).Hours()
			delete(added, e.Node)
			arm.NodesRemoved++
		}
	}
	for node, at := range added {
		cost += tierRate(node) * (makespan - at).Hours()
	}
	return cost
}

// tierRate maps a provisioned node's name prefix to its tier price.
func tierRate(node string) float64 {
	if i := strings.LastIndex(node, "-"); i > 0 {
		switch node[:i] {
		case "cloud":
			return benchCloudRate
		case "fog":
			return benchFogRate
		}
	}
	return benchCloudRate // unknown tier: price conservatively
}
