// Command flowgo-sim runs a workload on the computing-continuum simulator
// from the command line: pick a workload, a pool shape and a scheduling
// policy, get makespan / transfers / energy / utilisation back. This is
// the exploration tool behind the experiment tables.
//
// Examples:
//
//	flowgo-sim -workload gwas -nodes 16 -policy locality
//	flowgo-sim -workload nmmb -nodes 8 -policy eft
//	flowgo-sim -workload mix -tasks 200 -nodes 4 -node-type fog -policy energy
//	flowgo-sim -workload gwas -nodes 8 -faults "crash@2m:hpc001,slow@3m:hpc002x2"
//	flowgo-sim -workload skew -nodes 8 -node-type fog -policy wait-fast -steal on-idle
//
// Partition-recovery drill (E15): cut the producer tier away from the
// consumer tier, pick how placement handles the unreachable data, heal:
//
//	flowgo-sim -workload partition -tasks 8 -nodes 4 -node-type cloud \
//	  -faults "cut@5s:hpc-cloud,heal@40s:hpc-cloud" -availability defer
//
// Crash-restart drill (E14): checkpoint periodically, simulate the whole
// process dying mid-run, then resume from the latest valid snapshot:
//
//	flowgo-sim -workload gwas -nodes 8 -checkpoint every:25 -checkpoint-dir /tmp/ckpt -halt-at 5m
//	flowgo-sim -workload gwas -nodes 8 -restore /tmp/ckpt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"errors"

	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/mlpredict"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/scalebench"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workloads"
	wtrace "repro/internal/workloads/trace"
	latreport "repro/internal/workloads/trace/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowgo-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "gwas", "gwas | nmmb | mix | mapreduce | stencil | skew | partition")
		nodes    = flag.Int("nodes", 4, "pool size")
		nodeType = flag.String("node-type", "hpc", "hpc | cloud | fog")
		policy   = flag.String("policy", "min-load", "fifo | min-load | p2c | locality | eft | ml | energy | wait-fast")
		tasks    = flag.Int("tasks", 100, "task count (mix/skew workloads)")
		seed     = flag.Int64("seed", 1, "workload seed")
		gantt    = flag.Bool("gantt", false, "render a per-node Gantt chart")
		faultStr = flag.String("faults", "", `fault script: "crash@2s:n0,slow@3s:n1x2,cut@4s:n0-n2,heal@8s:n0-n2,drain@10s:n1"`)
		stealStr = flag.String("steal", "off", "work stealing: off | on-idle | threshold:<n>")
		availStr = flag.String("availability", "run-anyway", "placement with unreachable inputs: run-anyway | defer | recompute")
		ckptStr  = flag.String("checkpoint", "off", "checkpoint policy: off | interval:<d> | every:<n> | on-drain")
		ckptDir  = flag.String("checkpoint-dir", "checkpoints", "snapshot directory for -checkpoint")
		restore  = flag.String("restore", "", "resume from the latest valid snapshot in this directory")
		haltAt   = flag.Duration("halt-at", 0, "kill the engine at this virtual instant (simulated process death)")

		ckptDelta   = flag.Bool("checkpoint-delta", false, "persist checkpoints as delta chains (base + O(changes) deltas)")
		ckptCompact = flag.Int("checkpoint-compact", 0, "compact a delta chain into a fresh base every n deltas (0 = default)")
		pprofDir    = flag.String("pprof", "", "write cpu.pprof / heap.pprof / mutex.pprof into this directory")

		scale         = flag.Bool("scale", false, "run the million-task scale benchmark instead of a workload (see internal/scalebench)")
		scaleWidth    = flag.Int("scale-width", 0, "scale mode: independent chain count (0 = tasks/100)")
		scaleInterval = flag.Duration("scale-interval", 2*time.Minute, "scale mode: virtual checkpoint interval")
		benchOut      = flag.String("bench-out", "BENCH_scale.json", "scale/trace mode: report output path")
		autoBench     = flag.Bool("autoscale-bench", false, "run the cost-aware vs legacy autoscale comparison and merge its section into -bench-out (also runs as part of -scale)")
		noProbe       = flag.Bool("no-mutex-probe", false, "scale mode: skip the concurrent contention probe")

		autoscaleStr = flag.String("autoscale", "off", `cost-aware autoscaling over elastic tiers: off | "tier[:max],..." with tiers hpc|cloud|fog (e.g. "cloud:4,fog:8")`)
		tenantsN     = flag.Int("tenants", 0, "with -trace-gen: spread arrivals over this many tenant tags")
		quota        = flag.Int("quota", 0, "per-tenant max in-flight tasks (admission control; 0 = off)")

		traceFile = flag.String("trace", "", "replay this JSON-lines trace file instead of a workload")
		traceGen  = flag.String("trace-gen", "", "generate and replay a temporal shape: poisson-burst | diurnal | heavy-tail")
		traceOut  = flag.String("trace-out", "", "with -trace-gen: also write the generated trace to this file")

		timelineOut  = flag.String("timeline-out", "", "write a Chrome trace-event JSON timeline (load at ui.perfetto.dev) to this file")
		metricsEvery = flag.Duration("metrics-every", 0, "sample the metrics registry at this virtual-clock interval")
		metricsOut   = flag.String("metrics-out", "", "write the sampled metrics time-series (deterministic text) to this file; implies -metrics-every 10s if unset")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while the run lasts")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *pprofDir != "" {
		stop, err := startProfiles(*pprofDir)
		if err != nil {
			return err
		}
		defer stop()
	}

	// One registry feeds every consumer: the live /metrics endpoint, the
	// virtual-clock sampler, and the scale report's time-series section.
	if *metricsOut != "" && *metricsEvery == 0 {
		*metricsEvery = 10 * time.Second
	}
	var reg *obsv.Registry
	if *metricsAddr != "" || *metricsEvery > 0 {
		reg = obsv.NewRegistry()
	}
	if *metricsAddr != "" {
		bound, shutdown, err := obsv.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer func() { _ = shutdown() }()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
	}

	if *scale {
		// Scale mode has its own defaults (a million tasks over a thousand
		// nodes, delta persistence on); explicitly-passed flags override.
		cfg := scalebench.Default()
		if set["tasks"] {
			cfg.Tasks = *tasks
		}
		if set["nodes"] {
			cfg.Nodes = *nodes
		}
		if *scaleWidth > 0 {
			cfg.Width = *scaleWidth
		}
		cfg.Interval = *scaleInterval
		if set["checkpoint-delta"] {
			cfg.Delta = *ckptDelta
		}
		cfg.CompactEvery = *ckptCompact
		cfg.Seed = *seed
		cfg.MutexProbe = !*noProbe
		cfg.Dir = *ckptDir
		cfg.Metrics = reg
		cfg.SampleEvery = *metricsEvery
		tempDir := !set["checkpoint-dir"]
		if tempDir {
			dir, err := os.MkdirTemp("", "flowgo-scale-ckpt")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			cfg.Dir = dir
		}
		return runScale(cfg, *benchOut)
	}

	if *autoBench {
		return runAutoscaleBench(*seed, *benchOut)
	}

	script, err := faults.Parse(*faultStr)
	if err != nil {
		return err
	}
	steal, err := parseSteal(*stealStr)
	if err != nil {
		return err
	}
	avail, err := engine.ParseAvailability(*availStr)
	if err != nil {
		return err
	}
	ckptPolicy, err := checkpoint.ParsePolicy(*ckptStr)
	if err != nil {
		return err
	}

	var desc resources.Description
	switch *nodeType {
	case "hpc":
		desc = resources.MareNostrumNode
	case "cloud":
		desc = resources.CloudVM
	case "fog":
		desc = resources.FogDevice
	default:
		return fmt.Errorf("unknown node type %q", *nodeType)
	}
	pool := resources.NewPool()
	poolDesc := fmt.Sprintf("%d × %s", *nodes, *nodeType)
	if *workload == "skew" && *nodeType != "hpc" {
		// The skew demo needs a fast tier for its long tasks: one
		// reference-speed node ahead of the slow fleet.
		if err := pool.Add(resources.NewNode("fast000", resources.Description{
			Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
		})); err != nil {
			return err
		}
		poolDesc = "1 × fast + " + poolDesc
	}
	if *workload == "partition" {
		// The partition demo needs a producer tier the consumers can be
		// cut away from: one HPC node named to win MinLoad's idle-pool
		// name tie-break, so the producer (and its output replica) lands
		// on it.
		if err := pool.Add(resources.NewNode("a-src0", resources.Description{
			Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
		})); err != nil {
			return err
		}
		poolDesc = "1 × a-src0 + " + poolDesc
	}
	for i := 0; i < *nodes; i++ {
		if err := pool.Add(resources.NewNode(fmt.Sprintf("%s%03d", *nodeType, i), desc)); err != nil {
			return err
		}
	}
	net := simnet.Continuum()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}

	var specs []infra.TaskSpec
	cfg := infra.Config{
		Pool: pool, Net: net, Policy: sched.ByName(*policy),
		Faults: script, Steal: steal, Availability: avail, HaltAt: *haltAt,
	}
	var ckptStore *checkpoint.Store
	if ckptPolicy.Mode != checkpoint.ModeOff {
		ckptStore, err = checkpoint.NewStore(*ckptDir)
		if err != nil {
			return err
		}
		cfg.Checkpoint = &checkpoint.Config{
			Store: ckptStore, Policy: ckptPolicy,
			Delta: *ckptDelta, CompactEvery: *ckptCompact,
		}
	}
	var restoredFrom *checkpoint.Snapshot
	if *restore != "" {
		store, err := checkpoint.NewStore(*restore)
		if err != nil {
			return err
		}
		restoredFrom, err = store.Latest()
		if err != nil {
			return err
		}
		cfg.Restore = restoredFrom
	}
	if *policy == "ml" {
		cfg.Predictor = mlpredict.NewPredictor(10 * time.Second)
	}
	var tracer *trace.Tracer
	if *gantt || *timelineOut != "" {
		tracer = trace.New()
		cfg.Tracer = tracer
	}
	// Metrics sampling on the virtual clock: the sampled series is
	// deterministic run-to-run (checkpoint capture wall time excepted).
	if reg != nil {
		cfg.Metrics = reg
		cfg.SampleEvery = *metricsEvery
	}
	// Cost-aware autoscaling over elastic tiers, and per-tenant admission.
	if *autoscaleStr != "" && *autoscaleStr != "off" {
		scaler, err := parseAutoscale(*autoscaleStr)
		if err != nil {
			return err
		}
		if reg != nil {
			scaler.SetMetrics(obsv.NewAutoscaleMetrics(reg))
		}
		cfg.Autoscale = scaler
	}
	if *quota > 0 {
		adm := autoscale.NewAdmission(autoscale.Quota{MaxInFlight: *quota})
		if reg != nil {
			adm.SetMetrics(obsv.NewAdmissionMetrics(reg))
		}
		cfg.Admission = adm
	}
	// Trace mode: replay a file or a freshly generated temporal shape.
	// The trace carries its own arrival offsets (spec Release instants),
	// durations and constraints; pool/policy/fault flags apply as usual.
	var replayed *wtrace.Trace
	workloadName := *workload
	switch {
	case *traceFile != "" && *traceGen != "":
		return fmt.Errorf("-trace and -trace-gen are mutually exclusive")
	case *traceFile != "":
		replayed, err = wtrace.Load(*traceFile)
		if err != nil {
			return err
		}
		workloadName = fmt.Sprintf("trace %s", *traceFile)
	case *traceGen != "":
		gen := wtrace.DefaultGen(*traceGen)
		gen.Seed = *seed
		if set["tasks"] {
			gen.Tasks = *tasks
		}
		if set["tenants"] {
			gen.Tenants = *tenantsN
		}
		replayed, err = wtrace.Generate(gen)
		if err != nil {
			return err
		}
		if *traceOut != "" {
			if err := replayed.Save(*traceOut); err != nil {
				return err
			}
		}
		workloadName = fmt.Sprintf("trace-gen %s", *traceGen)
	}
	if replayed != nil {
		sim, err := runReplay(cfg, replayed, workloadName, poolDesc, *policy, *benchOut, set["bench-out"])
		if err != nil {
			return err
		}
		return writeObsOutputs(tracer, sim, *timelineOut, *metricsOut)
	}

	switch *workload {
	case "gwas":
		g := workloads.DefaultGWAS()
		g.Seed = *seed
		s, st := workloads.GWAS(g)
		specs = s
		cfg.StageIn = st
	case "nmmb":
		n := workloads.DefaultNMMB()
		n.ParallelInit = true
		specs = workloads.NMMB(n)
	case "mix":
		specs = workloads.HeterogeneousMix(*tasks, *seed)
	case "mapreduce":
		specs = workloads.MapReduce(*tasks, *tasks/8+1, 30*time.Second, time.Minute, 50e6)
	case "stencil":
		specs = workloads.IterativeStencil(10, *tasks/10+1, 20*time.Second)
	case "skew":
		// Long tasks first, shorts behind them in the same bucket: the
		// work-stealing demonstration workload (pair with a heterogeneous
		// pool, -policy wait-fast and -steal on-idle).
		specs = workloads.SkewedTiers(*tasks/20+1, *tasks, 100*time.Second, 5*time.Second)
	case "partition":
		// Producer on one tier, consumers pinned to another, released
		// after a scripted cut: the availability demonstration workload
		// (pair with -faults "cut@...:hpc-cloud,heal@...:hpc-cloud" and
		// -availability defer|recompute; the a-src0 producer node was
		// prepended above — set -node-type cloud for the consumer fleet).
		specs = workloads.PartitionPipeline(*tasks, 2*time.Second, 5*time.Second, 50e6, 10*time.Second)
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}

	sim, err := infra.New(cfg, specs)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sim.Run()
	halted := errors.Is(err, infra.ErrHalted)
	if err != nil && !halted {
		return err
	}

	fmt.Printf("workload:        %s (%d tasks)\n", *workload, len(specs))
	fmt.Printf("pool:            %s (%d cores)\n", poolDesc, pool.TotalCores())
	fmt.Printf("policy:          %s\n", *policy)
	if steal.Mode != engine.StealOff {
		st := sim.EngineStats()
		fmt.Printf("work stealing:   %s (%d stolen)\n", steal.Mode, st.Steals)
	}
	if len(script) > 0 {
		fmt.Printf("faults:          %d scripted, %d tasks killed, %d re-executions\n",
			len(script), res.TasksFailed, res.TasksReExecuted)
	}
	if avail != engine.AvailRunAnyway || res.TasksRanMissing > 0 {
		fmt.Printf("availability:    %s (%d deferred, %d ran-missing)\n",
			avail, res.TasksDeferred, res.TasksRanMissing)
	}
	if ckptStore != nil {
		mode := ""
		if *ckptDelta {
			mode = ", delta chains"
		}
		fmt.Printf("checkpoints:     %s → %s (%d on disk%s)\n",
			ckptPolicy, ckptStore.Dir(), len(ckptStore.Snapshots()), mode)
	}
	if restoredFrom != nil {
		fmt.Printf("restored:        %d tasks from snapshot %d (%s)\n",
			res.TasksRestored, restoredFrom.Seq, *restore)
	}
	if halted {
		fmt.Printf("HALTED:          simulated process death at %v — %d/%d tasks completed; resume with -restore\n",
			res.Makespan.Round(time.Second), res.TasksCompleted, len(specs))
	}
	fmt.Printf("makespan:        %v (simulated)\n", res.Makespan.Round(time.Second))
	fmt.Printf("tasks completed: %d\n", res.TasksCompleted)
	fmt.Printf("data moved:      %.2f GB over %v\n", float64(res.BytesMoved)/1e9, res.TransferTime.Round(time.Second))
	fmt.Printf("utilisation:     %.1f%%\n", res.Utilization*100)
	fmt.Printf("energy:          %.0f J active, %.0f J total\n", float64(res.ActiveEnergy), float64(res.TotalEnergy))
	fmt.Printf("dep edges:       %d RAW\n", res.DepEdges.RAW)
	fmt.Printf("wall time:       %v\n", time.Since(start).Round(time.Millisecond))
	printScalingSummary(cfg)
	if *gantt && tracer != nil {
		spans := trace.Timeline(tracer.Events())
		fmt.Printf("\nGantt (virtual time, digit = concurrent tasks):\n%s", trace.RenderASCII(spans, 72))
		fmt.Println("per-node busy time:")
		for _, u := range trace.Utilization(spans) {
			fmt.Printf("  %-10s %10v over %d tasks (avg concurrency %.1f)\n",
				u.Node, u.BusyTime.Round(time.Second), u.Tasks, u.AvgConcurrency)
		}
	}
	return writeObsOutputs(tracer, sim, *timelineOut, *metricsOut)
}

// writeObsOutputs flushes the observability artefacts requested on the
// command line: the Perfetto-loadable Chrome trace and the sampled
// metrics time-series (deterministic text, suitable for diffing runs).
func writeObsOutputs(tracer *trace.Tracer, sim *infra.Sim, timelineOut, metricsOut string) error {
	if timelineOut != "" && tracer != nil {
		f, err := os.Create(timelineOut)
		if err != nil {
			return err
		}
		if err := tracer.ExportChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("timeline:        %s (load at https://ui.perfetto.dev)\n", timelineOut)
	}
	if metricsOut != "" && sim != nil && sim.Sampler() != nil {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := sim.Sampler().WriteText(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics:         %s\n", metricsOut)
	}
	return nil
}

// traceBench is the bench JSON a trace replay writes: run shape plus
// the full latency summary (queue-wait percentiles, per-tenant
// makespans) from internal/workloads/trace/report.
type traceBench struct {
	Schema         int               `json:"schema"`
	Trace          string            `json:"trace"`
	Shape          string            `json:"shape,omitempty"`
	Seed           int64             `json:"seed,omitempty"`
	Tasks          int               `json:"tasks"`
	Nodes          int               `json:"nodes"`
	Policy         string            `json:"policy"`
	SimMakespanSec float64           `json:"sim_makespan_seconds"`
	Latency        latreport.Summary `json:"latency"`
}

// runReplay replays a trace on the simulator and reports latency
// percentiles overall and per tenant. It returns the sim so the caller
// can flush observability outputs (sampler series).
func runReplay(cfg infra.Config, tr *wtrace.Trace, name, poolDesc, policy, benchPath string, writeBench bool) (*infra.Sim, error) {
	specs := tr.Specs()
	sim, err := infra.New(cfg, specs)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	sum := latreport.Build(sim.Timings(), latreport.MetaOf(tr))

	fmt.Printf("workload:        %s (%d tasks, arrival span %v)\n",
		name, len(specs), tr.Span().Round(time.Second))
	fmt.Printf("pool:            %s (%d cores)\n", poolDesc, cfg.Pool.TotalCores())
	fmt.Printf("policy:          %s\n", policy)
	fmt.Printf("makespan:        %v (simulated)\n", res.Makespan.Round(time.Second))
	fmt.Printf("tasks completed: %d\n", res.TasksCompleted)
	fmt.Printf("data moved:      %.2f GB over %v\n", float64(res.BytesMoved)/1e9, res.TransferTime.Round(time.Second))
	fmt.Printf("utilisation:     %.1f%%\n", res.Utilization*100)
	fmt.Printf("wall time:       %v\n", time.Since(start).Round(time.Millisecond))
	printScalingSummary(cfg)
	sum.WriteText(os.Stdout)

	if writeBench {
		doc := traceBench{
			Schema: 1,
			Trace:  tr.Header.Name, Shape: tr.Header.Shape, Seed: tr.Header.Seed,
			Tasks: len(specs), Nodes: cfg.Pool.Len(), Policy: policy,
			SimMakespanSec: res.Makespan.Seconds(),
			Latency:        sum,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(benchPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("report:          %s\n", benchPath)
	}
	return sim, nil
}

// runScale executes the scale benchmark and writes the report.
func runScale(cfg scalebench.Config, out string) error {
	cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, "scale:", line) }
	fmt.Printf("scale benchmark: %d tasks, %d chains, %d nodes, checkpoint every %v (delta=%v)\n",
		cfg.Tasks, cfg.Width, cfg.Nodes, cfg.Interval, cfg.Delta)
	rep, err := scalebench.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("sim makespan:    %.0fs (virtual)\n", rep.Run.SimMakespanSec)
	fmt.Printf("wall time:       %.1fs build, %.1fs run (%.1fs captures of which %.1fs comparison-only, %.1fs saves)\n",
		rep.Run.BuildWallSec, rep.Run.RunWallSec, rep.Run.CaptureWallSec, rep.Run.MeasureWallSec, rep.Run.SaveWallSec)
	fmt.Printf("throughput:      %.0f tasks/s scheduling, %.0f tasks/s effective\n",
		rep.Run.TasksPerSec, rep.Run.EffectiveTasksPerSec)
	fmt.Printf("wave latency:    p50 %.1fµs, p99 %.1fµs, max %.1fµs\n",
		rep.WaveLatencyUS.P50, rep.WaveLatencyUS.P99, rep.WaveLatencyUS.Max)
	fmt.Printf("capture cost:    full p50 %.1fms vs delta p50 %.3fms (%.0f× cheaper), %d captures, %d skipped\n",
		rep.Checkpoint.FullCaptureMS.P50, rep.Checkpoint.DeltaCaptureMS.P50,
		rep.Checkpoint.FullOverDeltaP50, rep.Checkpoint.Captures, rep.Checkpoint.Skipped)
	if rep.Restore != nil {
		status := "FAILED"
		if rep.Restore.OK {
			status = "ok"
		}
		fmt.Printf("restore check:   %s — Latest() replayed %d completions in %.0fms (%d bases + %d deltas, %.1f MB on disk)\n",
			status, rep.Restore.Completed, rep.Restore.LatestMS,
			rep.Checkpoint.Bases, rep.Checkpoint.Deltas, float64(rep.Checkpoint.DiskBytes)/1e6)
	}
	if rep.Contention != nil {
		fmt.Printf("mutex probe:     %.3fms total wait over %d ops × %d goroutines (%.1f ns/op)\n",
			rep.Contention.WaitSeconds*1e3, rep.Contention.Ops, rep.Contention.Goroutines, rep.Contention.WaitPerOpNS)
	}
	auto, err := scalebench.RunAutoscale(scalebench.AutoscaleConfig{
		Seed:     cfg.Seed,
		Progress: func(line string) { fmt.Fprintln(os.Stderr, "autoscale:", line) },
	})
	if err != nil {
		return err
	}
	rep.Autoscale = auto
	printAutoscale(auto)
	if err := rep.WriteJSON(out); err != nil {
		return err
	}
	fmt.Printf("report:          %s\n", out)
	if rep.Restore != nil && !rep.Restore.OK {
		return fmt.Errorf("restore verification failed: %d/%d completions reconstructed", rep.Restore.Completed, cfg.Tasks)
	}
	return nil
}

func printAutoscale(rep *scalebench.AutoscaleReport) {
	for _, sh := range rep.Shapes {
		fmt.Printf("autoscale %-13s legacy %.2f vs cost-aware %.2f per 1k tasks (%.2fx cheaper)\n",
			sh.Shape+":", sh.Legacy.CostPer1kTasks, sh.CostAware.CostPer1kTasks, sh.LegacyOverCostAware)
	}
}

// runAutoscaleBench runs just the cost-aware vs legacy scaling
// comparison and merges its section into the bench report at out,
// preserving whatever the last full -scale run wrote there.
func runAutoscaleBench(seed int64, out string) error {
	auto, err := scalebench.RunAutoscale(scalebench.AutoscaleConfig{
		Seed:     seed,
		Progress: func(line string) { fmt.Fprintln(os.Stderr, "autoscale:", line) },
	})
	if err != nil {
		return err
	}
	printAutoscale(auto)
	full := &scalebench.Report{Schema: scalebench.Schema}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, full); err != nil {
			return fmt.Errorf("merge into %s: %w", out, err)
		}
	}
	full.Autoscale = auto
	if err := full.WriteJSON(out); err != nil {
		return err
	}
	fmt.Printf("report:          %s\n", out)
	return nil
}

// startProfiles turns on CPU and mutex profiling and returns the stop
// function that flushes cpu.pprof, mutex.pprof and heap.pprof into dir.
func startProfiles(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	prev := runtime.SetMutexProfileFraction(5)
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()
		runtime.SetMutexProfileFraction(prev)
		if f, err := os.Create(filepath.Join(dir, "mutex.pprof")); err == nil {
			pprof.Lookup("mutex").WriteTo(f, 0)
			f.Close()
		}
		runtime.GC()
		if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
			pprof.WriteHeapProfile(f)
			f.Close()
		}
	}, nil
}

// parseAutoscale reads the -autoscale flag: a comma-separated list of
// elastic tiers, each "tier" or "tier:max", and builds the cost-aware
// autoscaler over them. Costs and provisioning delays are the tier
// defaults the benchmarks use (HPC expensive and slow to provision,
// fog cheap and nearly instant).
func parseAutoscale(s string) (*autoscale.Autoscaler, error) {
	type tier struct {
		desc  resources.Description
		cost  float64
		delay time.Duration
		max   int
	}
	tiers := map[string]tier{
		"hpc":   {resources.MareNostrumNode, 6.0, 2 * time.Minute, 4},
		"cloud": {resources.CloudVM, 1.0, 30 * time.Second, 8},
		"fog":   {resources.FogDevice, 0.25, 5 * time.Second, 16},
	}
	var variants []autoscale.Variant
	for _, part := range strings.Split(s, ",") {
		name, maxStr, bounded := strings.Cut(strings.TrimSpace(part), ":")
		t, ok := tiers[name]
		if !ok {
			return nil, fmt.Errorf("unknown autoscale tier %q (want hpc | cloud | fog)", name)
		}
		if bounded {
			n, err := strconv.Atoi(maxStr)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad autoscale tier limit %q", part)
			}
			t.max = n
		}
		variants = append(variants, autoscale.Variant{
			Name: name, Desc: t.desc,
			Manager: resources.NewElasticManager(
				resources.NewSimProvider(name, t.desc, t.max, t.delay),
				resources.ScalePolicy{MaxNodes: t.max, CostPerNodeHour: t.cost},
			),
		})
	}
	return autoscale.New(autoscale.DefaultPolicy(), variants)
}

// printScalingSummary reports what the autoscaler and the admission
// controller did during the run.
func printScalingSummary(cfg infra.Config) {
	if a, ok := cfg.Autoscale.(*autoscale.Autoscaler); ok {
		grow, shrink, hold := 0, 0, 0
		for _, d := range a.Decisions() {
			switch {
			case d.Delta > 0:
				grow++
			case d.Delta < 0:
				shrink++
			default:
				hold++
			}
		}
		fmt.Printf("autoscale:       %d grow, %d shrink, %d hold decisions\n", grow, shrink, hold)
	}
	if cfg.Admission != nil {
		st := cfg.Admission.Stats()
		fmt.Printf("admission:       %d admitted, %d queued, %d released, %d rejected\n",
			st.Admitted, st.Queued, st.Released, st.Rejected)
	}
}

// parseSteal reads the -steal flag: off, on-idle, or threshold:<n>.
func parseSteal(s string) (engine.StealConfig, error) {
	switch {
	case s == "" || s == "off":
		return engine.StealConfig{}, nil
	case s == "on-idle":
		return engine.StealConfig{Mode: engine.StealOnIdle}, nil
	case strings.HasPrefix(s, "threshold:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "threshold:"))
		if err != nil || n < 0 {
			return engine.StealConfig{}, fmt.Errorf("bad steal threshold %q", s)
		}
		return engine.StealConfig{Mode: engine.StealThreshold, Threshold: n}, nil
	default:
		return engine.StealConfig{}, fmt.Errorf("unknown steal mode %q (want off | on-idle | threshold:<n>)", s)
	}
}
