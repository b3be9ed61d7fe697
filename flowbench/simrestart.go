package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// simRestart is a crash–restart cycle on the simulator with the min-load
// policy. The graph has the scale harness's shape: independent chains of
// read-modify-write tasks with mixed core constraints. A job (one step)
// runs the graph with interval delta checkpoints into a fresh store until
// the simulated process dies at HaltAt, then loads the newest state with
// Store.Latest, rebuilds the simulation from it and runs it to completion.
type simRestart struct {
	specs    []infra.TaskSpec
	nodes    int
	haltAt   time.Duration
	interval time.Duration
	dir      string // per-run scratch directory, removed by close

	// traced
	buildS, runS, restoreBuildS, latestS, resumeS []float64
	overheadS, captureMS, saveMS                  []float64
	files, bytesPer, restoredFrac                 []float64
	eng                                           engineLayer
}

func (r *simRestart) setup(o options) error {
	chains, length, nodes := 96, 25, 10
	if o.tiny {
		chains, length, nodes = 12, 6, 2
	}
	rng := rand.New(rand.NewSource(o.seed))
	cores := [3]int{1, 2, 4}
	r.specs = make([]infra.TaskSpec, 0, chains*length)
	for n := 0; n < chains*length; n++ {
		chain := n % chains
		dir := deps.InOut
		if n < chains {
			dir = deps.Out // each chain's first task creates its datum
		}
		r.specs = append(r.specs, infra.TaskSpec{
			ID:          int64(n + 1),
			Class:       "chain",
			Duration:    time.Duration(float64(30*time.Second) * (0.5 + rng.Float64())),
			Constraints: resources.Constraints{Cores: cores[chain%3]},
			Accesses:    []deps.Access{{Data: deps.DataID(chain + 1), Dir: dir}},
			OutputBytes: map[deps.DataID]int64{deps.DataID(chain + 1): 1 << 20},
		})
	}
	r.nodes = nodes
	// A reference run without checkpoints fixes where the process dies
	// (just past half the makespan) and how often it checkpoints.
	sim, err := infra.New(r.config(), r.specs)
	if err != nil {
		return err
	}
	res, err := sim.Run()
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if res.TasksCompleted != len(r.specs) {
		return fmt.Errorf("reference run completed %d of %d tasks", res.TasksCompleted, len(r.specs))
	}
	r.haltAt = res.Makespan * 11 / 20
	r.interval = res.Makespan / 12
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	r.dir, err = os.MkdirTemp(o.scratch, "sim-restart-")
	return err
}

func (r *simRestart) close() {
	if r.dir != "" {
		_ = os.RemoveAll(r.dir) // best effort: scratch space only
		r.dir = ""
	}
}

// config is a fresh simulation config on a fresh pool of 8-core nodes.
func (r *simRestart) config() infra.Config {
	pool := resources.NewPool()
	net := simnet.Continuum()
	for i := 0; i < r.nodes; i++ {
		name := fmt.Sprintf("hpc%03d", i)
		_ = pool.Add(resources.NewNode(name, resources.Description{
			Cores: 8, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
		})) // names are unique, so Add cannot fail
		net.SetZone(name, "hpc")
	}
	return infra.Config{Pool: pool, Net: net, Policy: sched.MinLoad{}}
}

// runHalted builds and runs the graph until HaltAt, checkpointing into
// store when it is non-nil.
func (r *simRestart) runHalted(store *checkpoint.Store, reg *obsv.Registry) (*infra.Sim, infra.Result, time.Duration, time.Duration, error) {
	cfg := r.config()
	cfg.HaltAt = r.haltAt
	cfg.Metrics = reg
	if store != nil {
		cfg.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.Interval(r.interval), Delta: true}
	}
	t0 := time.Now()
	sim, err := infra.New(cfg, r.specs)
	if err != nil {
		return nil, infra.Result{}, 0, 0, err
	}
	t1 := time.Now()
	res, err := sim.Run()
	return sim, res, t1.Sub(t0), time.Since(t1), err
}

func (r *simRestart) job(t *tally, tr *tracer) error {
	dir, err := os.MkdirTemp(r.dir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		return err
	}
	var reg *obsv.Registry
	if tr != nil {
		reg = obsv.NewRegistry()
	}
	total := len(r.specs)
	step := tr.nextStep()
	cycle := tr.begin("cycle", 0, step)

	sp := tr.begin("infra.Run(halted)", cycle, step)
	halted, res1, build, run, haltErr := r.runHalted(store, reg)
	tr.end(sp)
	if halted == nil {
		return haltErr
	}
	files, bytes := dirUsage(dir)

	sp = tr.begin("checkpoint.Store.Latest", cycle, step)
	l0 := time.Now()
	snap, latestErr := store.Latest()
	latest := time.Since(l0)
	tr.end(sp)
	if latestErr != nil {
		return fmt.Errorf("latest checkpoint: %w", latestErr)
	}

	cfg := r.config()
	cfg.Restore = snap
	sp = tr.begin("infra.New(restore)", cycle, step)
	b0 := time.Now()
	resumed, err := infra.New(cfg, r.specs)
	restoreBuild := time.Since(b0)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	sp = tr.begin("infra.Run(resumed)", cycle, step)
	r0 := time.Now()
	res2, runErr := resumed.Run()
	resume := time.Since(r0)
	tr.end(sp)
	tr.end(cycle)

	// The step is the restart: from the crash until the resumed
	// simulation is ready to run.
	t.done(0, total, build+run+latest+restoreBuild+resume)
	t.jobs++
	t.stepsMS = append(t.stepsMS, float64(latest+restoreBuild)/1e6)
	t.makespanS = append(t.makespanS, res2.Makespan.Seconds())
	t.add("ckpt_disk_mb", float64(bytes)/1e6)
	switch {
	case !errors.Is(haltErr, infra.ErrHalted):
		t.fail(total, "sim-restart: halted run returned %v, want infra.ErrHalted", haltErr)
	case runErr != nil:
		t.fail(total, "sim-restart: resumed run: %v", runErr)
	case res2.TasksRestored <= 0:
		t.fail(total, "sim-restart: nothing restored from the checkpoint")
	case res2.TasksRestored+res2.TasksCompleted != total:
		t.fail(total, "sim-restart: %d restored + %d resumed tasks do not cover the %d-task graph",
			res2.TasksRestored, res2.TasksCompleted, total)
	}
	if tr == nil {
		return nil
	}

	// Traced cycles also measure, outside the cycle's wall time, what
	// checkpointing cost the halted run and what one full capture and save
	// of the halted state cost. Their GC work is kept out of gc.*, which
	// covers only the counted cycles.
	g0 := readGC()
	defer t.excludeGC(g0)
	_, _, plainBuild, plainRun, _ := r.runHalted(nil, nil)
	c0 := time.Now()
	full := halted.CheckpointSnapshot()
	capture := time.Since(c0)
	scratch, err := checkpoint.NewStore(filepath.Join(dir, "full"))
	if err != nil {
		return err
	}
	s0 := time.Now()
	if _, err := scratch.Save(full); err != nil {
		return fmt.Errorf("full save: %w", err)
	}
	save := time.Since(s0)

	r.buildS = append(r.buildS, build.Seconds())
	r.runS = append(r.runS, run.Seconds())
	r.latestS = append(r.latestS, latest.Seconds())
	r.restoreBuildS = append(r.restoreBuildS, restoreBuild.Seconds())
	r.resumeS = append(r.resumeS, resume.Seconds())
	r.overheadS = append(r.overheadS, (build + run - plainBuild - plainRun).Seconds())
	r.captureMS = append(r.captureMS, float64(capture)/1e6)
	r.saveMS = append(r.saveMS, float64(save)/1e6)
	r.files = append(r.files, float64(files))
	if res1.TasksCompleted > 0 {
		r.bytesPer = append(r.bytesPer, float64(bytes)/float64(res1.TasksCompleted))
		r.restoredFrac = append(r.restoredFrac, float64(res2.TasksRestored)/float64(res1.TasksCompleted))
	}
	r.eng.tasks += total
	r.eng.edges += res1.DepEdges.Total()
	r.eng.addStats(halted.EngineStats())
	r.eng.addStats(resumed.EngineStats())
	r.eng.addTimings(resumed.Timings(), nil)
	r.eng.addRegistry(reg)
	return nil
}

func (r *simRestart) layers(t *tally, tr *tracer) map[string]float64 {
	out := map[string]float64{
		"infra.build_s":                  median(r.buildS),
		"infra.run_s":                    median(r.runS),
		"infra.restore_build_s":          median(r.restoreBuildS),
		"checkpoint.latest_s":            median(r.latestS),
		"restore_s":                      percentile(t.stepsMS, 50) / 1e3,
		"infra.resume_run_s":             median(r.resumeS),
		"checkpoint.overhead_s":          median(r.overheadS),
		"checkpoint.capture_full_ms":     median(r.captureMS),
		"checkpoint.save_full_ms":        median(r.saveMS),
		"ckpt_disk_mb":                   t.med("ckpt_disk_mb"),
		"checkpoint.files":               median(r.files),
		"checkpoint.bytes_per_completed": median(r.bytesPer),
		"checkpoint.restored_frac":       median(r.restoredFrac),
	}
	r.eng.metrics(out)
	return out
}

// dirUsage counts the files under dir and their bytes.
func dirUsage(dir string) (files int, bytes int64) {
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes
}
