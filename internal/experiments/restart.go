// E14 — crash-restart durability. Lineage recovery (E7) survives losing
// a node; E14 measures surviving the loss of the whole engine: a
// workload runs with periodic checkpoints, the process "dies" mid-run
// (the simulator's HaltAt), and a fresh engine restores the latest
// valid snapshot and finishes the workload. The claim under test is the
// durability contract of internal/engine/checkpoint: zero tasks the
// snapshot records as completed execute again, so the work lost to a
// crash is bounded by one checkpoint period plus the in-flight tasks.
package experiments

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// E14Result is one crash-restart run.
type E14Result struct {
	// Workload names the generator; Tasks is its size.
	Workload string
	Tasks    int
	// EveryN is the checkpoint policy (snapshot per N completions).
	EveryN int
	// CrashAt is the simulated process death instant.
	CrashAt time.Duration
	// CompletedBeforeCrash counts completions in the first incarnation.
	CompletedBeforeCrash int
	// SnapshotTasks counts completed tasks in the restored snapshot
	// (≤ CompletedBeforeCrash: work since the last snapshot is lost).
	SnapshotTasks int
	// Restored counts tasks the second incarnation resolved from the
	// snapshot instead of executing.
	Restored int
	// RecomputedRestored counts restored tasks that executed again in
	// the resumed run — the durability contract demands zero.
	RecomputedRestored int
	// ResumedLaunches counts task launches in the resumed run.
	ResumedLaunches int
	// ColdMakespan / ResumedMakespan compare a from-scratch run with the
	// resumed run's remaining virtual time.
	ColdMakespan, ResumedMakespan time.Duration
}

// e14Pool builds the experiment's rig: an 8-node HPC pool.
func e14Pool() *resources.Pool {
	pool := resources.NewPool()
	for i := 0; i < 8; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("hpc%03d", i), resources.MareNostrumNode))
	}
	return pool
}

func e14Config() infra.Config {
	net := simnet.Continuum()
	pool := e14Pool()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	return infra.Config{Pool: pool, Net: net, Policy: sched.MinLoad{}}
}

// E14CrashRestart runs the drill on a GWAS-shaped workload: checkpoint
// every everyN completions, kill the engine at half the cold makespan,
// restore from the latest valid snapshot, and account what re-ran.
func E14CrashRestart(chromosomes, imputations, everyN int) (E14Result, error) {
	g := workloads.DefaultGWAS()
	g.Chromosomes = chromosomes
	g.ImputationsPerChrom = imputations
	specs, stageIn := workloads.GWAS(g)

	newCfg := func() infra.Config {
		cfg := e14Config()
		cfg.StageIn = stageIn
		return cfg
	}

	// Cold run: the baseline makespan, and the crash instant.
	cold, err := infra.New(newCfg(), specs)
	if err != nil {
		return E14Result{}, err
	}
	coldRes, err := cold.Run()
	if err != nil {
		return E14Result{}, err
	}
	res := E14Result{
		Workload: "gwas", Tasks: len(specs), EveryN: everyN,
		CrashAt: coldRes.Makespan / 2, ColdMakespan: coldRes.Makespan,
	}

	// Incarnation 1: checkpoints on, crash mid-run.
	dir, err := os.MkdirTemp("", "e14-ckpt-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		return res, err
	}
	cfg1 := newCfg()
	cfg1.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(everyN)}
	cfg1.HaltAt = res.CrashAt
	sim1, err := infra.New(cfg1, specs)
	if err != nil {
		return res, err
	}
	res1, err := sim1.Run()
	if !errors.Is(err, infra.ErrHalted) {
		return res, fmt.Errorf("E14: first incarnation: got %v, want ErrHalted", err)
	}
	res.CompletedBeforeCrash = res1.TasksCompleted

	// Incarnation 2: restore and finish.
	snap, err := store.Latest()
	if err != nil {
		return res, fmt.Errorf("E14: no snapshot survived the crash: %w", err)
	}
	res.SnapshotTasks = len(snap.Completed)
	tr := trace.New()
	cfg2 := newCfg()
	cfg2.Restore = snap
	cfg2.Tracer = tr
	sim2, err := infra.New(cfg2, specs)
	if err != nil {
		return res, err
	}
	res2, err := sim2.Run()
	if err != nil {
		return res, fmt.Errorf("E14: resumed run: %w", err)
	}
	res.Restored = res2.TasksRestored
	res.ResumedMakespan = res2.Makespan
	res.ResumedLaunches = sim2.EngineStats().Launched

	// The durability contract: no restored task starts again.
	restored := make(map[int64]bool, len(snap.Completed))
	for _, id := range snap.CompletedIDs() {
		restored[id] = true
	}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.TaskStarted && restored[ev.Task] {
			res.RecomputedRestored++
		}
	}
	return res, nil
}
