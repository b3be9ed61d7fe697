package main

// The benchmark's catalog: its workloads, its end-to-end metrics with the
// regression bound each carries, and its per-layer metrics with the
// end-to-end metric and workload each one is predicted to move. The same
// names, units and bounds are listed in BENCHMARK.json at the repository
// root; TestCatalogMatchesBenchmarkJSON keeps the two in step. README.md explains the
// predictions and the limits of measuring from outside the program.

type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"live-iterative", "k-means loop of SubmitAll batches on a 2-node core.Runtime: engine release and placement, then core submission, dominate"},
	{"edge-offload", "compss app calling two agent-hosted remote tasks per step over loopback HTTP: the agent HTTP/JSON/poll path dominates"},
	{"sim-placement", "bursty multi-tenant trace on a heterogeneous hpc/cloud/fog sim with locality: ready queue, placement and transfers dominate"},
	{"sim-restart", "chain graph on the sim with delta checkpoints, halted mid-run, then Store.Latest and restore: the checkpoint layer dominates"},
}

// metricDef describes one reported metric. Bound applies to end-to-end
// metrics only; Moves and On name, for a per-layer metric, the end-to-end
// metric and the workload a change to that layer should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	On     string
}

// endToEnd are the metrics a user of the runtime sees. Every workload
// reports every one of them; README.md gives the per-workload meaning of
// a "step" and of the makespan, chosen so that no two of a workload's
// metrics are the same wall time seen twice.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "step_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "makespan_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are reported by the traced run. A layer a workload never
// enters reports 0 there: that cell is a predicted no-change cell. The
// p99 step latency leads the list although it is seen end to end: CPU
// steal on a shared virtual machine moves it by 2-3x between runs, more
// than any regression bound can absorb, so it is reported but not gated.
var perLayer = []metricDef{
	{Name: "step_latency_p99_ms", Unit: "ms", Better: "lower", Moves: "tasks_per_s", On: "all"},
	{Name: "core.submit_us_per_task", Unit: "us", Better: "lower", Moves: "tasks_per_s", On: "live-iterative"},
	{Name: "core.wait_ms_per_step", Unit: "ms", Better: "lower", Moves: "step_latency_p50_ms", On: "live-iterative"},
	{Name: "engine.dep_wait_p50_us", Unit: "us", Better: "lower", Moves: "step_latency_p50_ms", On: "live-iterative"},
	{Name: "engine.queue_wait_p50_us", Unit: "us", Better: "lower", Moves: "step_latency_p50_ms", On: "live-iterative"},
	{Name: "engine.queue_wait_p99_us", Unit: "us", Better: "lower", Moves: "step_latency_p99_ms", On: "live-iterative"},
	{Name: "engine.exec_p50_us", Unit: "us", Better: "lower", Moves: "step_latency_p50_ms", On: "live-iterative"},
	{Name: "deps.edges_per_task", Unit: "count", Better: "lower", Moves: "tasks_per_s", On: "live-iterative"},
	{Name: "engine.launches_per_task", Unit: "count", Better: "lower", Moves: "tasks_per_s", On: "sim-placement"},
	{Name: "engine.transfers_per_task", Unit: "count", Better: "lower", Moves: "makespan_s", On: "sim-placement"},
	{Name: "engine.tasks_per_wave", Unit: "count", Better: "higher", Moves: "tasks_per_s", On: "sim-placement"},
	{Name: "engine.declines_per_task", Unit: "count", Better: "lower", Moves: "tasks_per_s", On: "sim-placement"},
	{Name: "sim_queue_wait_p99_s", Unit: "s", Better: "lower", Moves: "makespan_s", On: "sim-placement"},
	{Name: "infra.build_s", Unit: "s", Better: "lower", Moves: "tasks_per_s", On: "sim-placement"},
	{Name: "infra.run_s", Unit: "s", Better: "lower", Moves: "tasks_per_s", On: "sim-placement"},
	{Name: "infra.restore_build_s", Unit: "s", Better: "lower", Moves: "restore_s", On: "sim-restart"},
	{Name: "checkpoint.latest_s", Unit: "s", Better: "lower", Moves: "restore_s", On: "sim-restart"},
	{Name: "restore_s", Unit: "s", Better: "lower", Moves: "step_latency_p50_ms", On: "sim-restart"},
	{Name: "infra.resume_run_s", Unit: "s", Better: "lower", Moves: "tasks_per_s", On: "sim-restart"},
	{Name: "checkpoint.overhead_s", Unit: "s", Better: "lower", Moves: "tasks_per_s", On: "sim-restart"},
	{Name: "checkpoint.capture_full_ms", Unit: "ms", Better: "lower", Moves: "tasks_per_s", On: "sim-restart"},
	{Name: "checkpoint.save_full_ms", Unit: "ms", Better: "lower", Moves: "tasks_per_s", On: "sim-restart"},
	{Name: "ckpt_disk_mb", Unit: "MB", Better: "lower", Moves: "tasks_per_s", On: "sim-restart"},
	{Name: "checkpoint.files", Unit: "count", Better: "lower", Moves: "ckpt_disk_mb", On: "sim-restart"},
	{Name: "checkpoint.bytes_per_completed", Unit: "B", Better: "lower", Moves: "ckpt_disk_mb", On: "sim-restart"},
	{Name: "checkpoint.restored_frac", Unit: "frac", Better: "higher", Moves: "makespan_s", On: "sim-restart"},
	{Name: "agent.requests_per_task", Unit: "count", Better: "lower", Moves: "step_latency_p50_ms", On: "edge-offload"},
	{Name: "agent.exec_ms_mean", Unit: "ms", Better: "lower", Moves: "step_latency_p50_ms", On: "edge-offload"},
	{Name: "agent.http_ms_per_task", Unit: "ms", Better: "lower", Moves: "step_latency_p99_ms", On: "edge-offload"},
	{Name: "gc.cpu_frac", Unit: "frac", Better: "lower", Moves: "tasks_per_s", On: "sim-restart"},
	{Name: "gc.alloc_mb_per_ktask", Unit: "MB", Better: "lower", Moves: "tasks_per_s", On: "sim-placement"},
	{Name: "gc.cycles", Unit: "count", Better: "lower", Moves: "tasks_per_s", On: "sim-restart"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Moves: "tasks_per_s", On: "all"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
