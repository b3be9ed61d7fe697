package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/transfer"
)

// liveIterative is a closed loop with one application over the live
// runtime: each step submits one SubmitAll batch of a k-means iteration —
// a partial-sums task per data block, a pairwise reduce tree, and an
// update of the centers — and waits on the centers. A job is one
// application run of a fixed number of iterations on a fresh runtime, so the
// engine's task table stays job-sized. Task bodies are small, so core
// submission, dependency versioning and engine release dominate.
type liveIterative struct {
	blocks [][]float64 // blocks of points, row-major (x, y)
	init   []float64   // initial centers, liveK × liveDim
	ref    [][]float64 // sequential reference centers after each step
	steps  int

	eng       engineLayer
	submitted int // tasks submitted in traced jobs
	tSteps    int // steps in traced jobs
}

const (
	liveK   = 4
	liveDim = 2
)

func (l *liveIterative) setup(o options) error {
	nBlocks, perBlock, steps := 64, 64, 8
	if o.tiny {
		nBlocks, perBlock, steps = 4, 16, 3
	}
	rng := rand.New(rand.NewSource(o.seed))
	centers := make([]float64, liveK*liveDim)
	for i := range centers {
		centers[i] = rng.Float64() * 100
	}
	l.blocks = make([][]float64, nBlocks)
	for b := range l.blocks {
		pts := make([]float64, perBlock*liveDim)
		for p := 0; p < perBlock; p++ {
			c := rng.Intn(liveK)
			for d := 0; d < liveDim; d++ {
				pts[p*liveDim+d] = centers[c*liveDim+d] + rng.NormFloat64()*8
			}
		}
		l.blocks[b] = pts
	}
	l.init = make([]float64, liveK*liveDim)
	for i := range l.init {
		l.init[i] = rng.Float64() * 100
	}
	l.steps = steps
	l.ref = kmeansReference(l.blocks, l.init, steps)
	// Start a runtime the way a job does, so setup_s covers runtime start.
	rt, _, err := l.start(nil)
	if err != nil {
		return err
	}
	rt.Shutdown()
	return nil
}

// start creates a runtime shaped like compss.New's: two 1-core logical
// nodes, a Locations registry and the policy compss.New picks when none
// is named.
func (l *liveIterative) start(reg *obsv.Registry) (*core.Runtime, []*core.Handle, error) {
	pool := resources.NewPool()
	for i := 0; i < 2; i++ {
		if err := pool.Add(resources.NewNode(fmt.Sprintf("node%d", i),
			resources.Description{Cores: 1, MemoryMB: 8000, SpeedFactor: 1})); err != nil {
			return nil, nil, err
		}
	}
	rt := core.New(core.Config{
		Pool:      pool,
		Policy:    sched.ByName(""),
		Locations: transfer.NewRegistry(),
		Metrics:   reg,
	})
	defs := []core.TaskDef{
		{Name: "partial", Fn: partialTask},
		{Name: "merge", Fn: mergeTask},
		{Name: "update", Fn: updateTask},
	}
	for _, d := range defs {
		if err := rt.Register(d); err != nil {
			rt.Shutdown()
			return nil, nil, err
		}
	}
	blocks := make([]*core.Handle, len(l.blocks))
	for i, b := range l.blocks {
		blocks[i] = rt.NewData()
		rt.SetInitial(blocks[i], b)
	}
	return rt, blocks, nil
}

func (l *liveIterative) close() {}

func (l *liveIterative) job(t *tally, tr *tracer) error {
	var reg *obsv.Registry
	if tr != nil {
		reg = obsv.NewRegistry()
	}
	t0 := time.Now()
	rt, blocks, err := l.start(reg)
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	centers := rt.NewData()
	rt.SetInitial(centers, append([]float64(nil), l.init...))
	partials := make([]*core.Handle, len(blocks))
	for i := range partials {
		partials[i] = rt.NewData()
	}
	// One handle per reduce-tree node; renaming gives every step fresh
	// versions of the same handles.
	var tree []*core.Handle
	for n := len(blocks); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n/2; i++ {
			tree = append(tree, rt.NewData())
		}
	}
	perStep := 2 * len(blocks)
	jobSpan := tr.begin("job", 0, 0)
	failed := false
	tasks := 0
	for s := 0; s < l.steps; s++ {
		step := tr.nextStep()
		stepSpan := tr.begin("step", jobSpan, step)
		reqs := make([]core.TaskReq, 0, perStep)
		for i, b := range blocks {
			reqs = append(reqs, core.TaskReq{Name: "partial",
				Params: []core.Param{core.Read(b), core.Read(centers), core.Write(partials[i])}})
		}
		level, next := partials, 0
		for len(level) > 1 {
			var up []*core.Handle
			for i := 0; i+1 < len(level); i += 2 {
				out := tree[next]
				next++
				reqs = append(reqs, core.TaskReq{Name: "merge",
					Params: []core.Param{core.Read(level[i]), core.Read(level[i+1]), core.Write(out)}})
				up = append(up, out)
			}
			if len(level)%2 == 1 {
				up = append(up, level[len(level)-1])
			}
			level = up
		}
		reqs = append(reqs, core.TaskReq{Name: "update",
			Params: []core.Param{core.Update(centers), core.Read(level[0])}})

		start := time.Now()
		sp := tr.begin("core.SubmitAll", stepSpan, step)
		_, err := rt.SubmitAll(reqs)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("submit step %d: %w", s, err)
		}
		sp = tr.begin("core.WaitOn", stepSpan, step)
		v, err := rt.WaitOn(centers)
		tr.end(sp)
		t.stepsMS = append(t.stepsMS, float64(time.Since(start))/1e6)
		if s == 0 {
			t.makespanS = append(t.makespanS, time.Since(t0).Seconds())
		}
		tr.end(stepSpan)
		tasks += len(reqs)
		if err != nil {
			t.fail(len(reqs), "live-iterative step %d: %v", s, err)
			failed = true
			break
		}
		got, _ := v.([]float64)
		if err := checkCenters(got, l.ref[s]); err != nil {
			t.fail(len(reqs), "live-iterative step %d: %v", s, err)
			failed = true
			break
		}
	}
	tr.end(jobSpan)
	wall := time.Since(t0)
	t.done(0, tasks, wall)
	t.jobs++
	if tr != nil && !failed {
		st := rt.Stats()
		l.submitted += st.Submitted
		l.tSteps += l.steps
		l.eng.tasks += st.Submitted
		l.eng.edges += st.DepsEdges.Total()
		l.eng.addStats(rt.EngineStats())
		l.eng.addTimings(rt.Timings(), nil)
		l.eng.addRegistry(reg)
	}
	return nil
}

func (l *liveIterative) layers(t *tally, tr *tracer) map[string]float64 {
	out := map[string]float64{
		"core.submit_us_per_task": perTask(float64(tr.total("core.SubmitAll"))/1e3, l.submitted),
		"core.wait_ms_per_step":   perTask(float64(tr.total("core.WaitOn"))/1e6, l.tSteps),
	}
	l.eng.metrics(out)
	return out
}

// checkCenters compares computed centers with the sequential reference.
// The runtime sums through a reduce tree and the reference sums point by
// point, so the two may differ in the last bits; anything beyond a
// relative 1e-9 is a wrong result.
func checkCenters(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("centers have %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-9*math.Max(1, math.Abs(want[i])) {
			return fmt.Errorf("center value %d is %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

// nearest returns the index of the center closest to point p.
func nearest(centers []float64, p []float64) int {
	best, bestD := 0, math.Inf(1)
	for c := 0; c < liveK; c++ {
		d := 0.0
		for k := 0; k < liveDim; k++ {
			x := p[k] - centers[c*liveDim+k]
			d += x * x
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// partialTask: args (block, centers, out) → per-cluster coordinate sums
// followed by per-cluster counts.
func partialTask(_ context.Context, args []any) ([]any, error) {
	pts, ok1 := args[0].([]float64)
	centers, ok2 := args[1].([]float64)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("partial: want []float64 block and centers")
	}
	acc := make([]float64, liveK*(liveDim+1))
	for p := 0; p+liveDim <= len(pts); p += liveDim {
		c := nearest(centers, pts[p:p+liveDim])
		for k := 0; k < liveDim; k++ {
			acc[c*liveDim+k] += pts[p+k]
		}
		acc[liveK*liveDim+c]++
	}
	return []any{acc}, nil
}

// mergeTask: args (a, b, out) → a + b elementwise.
func mergeTask(_ context.Context, args []any) ([]any, error) {
	a, ok1 := args[0].([]float64)
	b, ok2 := args[1].([]float64)
	if !ok1 || !ok2 || len(a) != len(b) {
		return nil, fmt.Errorf("merge: want two equal-length partials")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return []any{out}, nil
}

// updateTask: args (centers, totals) → new centers; an empty cluster
// keeps its old center.
func updateTask(_ context.Context, args []any) ([]any, error) {
	old, ok1 := args[0].([]float64)
	tot, ok2 := args[1].([]float64)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("update: want centers and totals")
	}
	return []any{newCenters(old, tot)}, nil
}

func newCenters(old, tot []float64) []float64 {
	out := make([]float64, len(old))
	for c := 0; c < liveK; c++ {
		n := tot[liveK*liveDim+c]
		for k := 0; k < liveDim; k++ {
			if n > 0 {
				out[c*liveDim+k] = tot[c*liveDim+k] / n
			} else {
				out[c*liveDim+k] = old[c*liveDim+k]
			}
		}
	}
	return out
}

// kmeansReference runs the iterations sequentially, point by point, and
// returns the centers after each one.
func kmeansReference(blocks [][]float64, init []float64, steps int) [][]float64 {
	centers := append([]float64(nil), init...)
	out := make([][]float64, steps)
	for s := 0; s < steps; s++ {
		tot := make([]float64, liveK*(liveDim+1))
		for _, pts := range blocks {
			for p := 0; p+liveDim <= len(pts); p += liveDim {
				c := nearest(centers, pts[p:p+liveDim])
				for k := 0; k < liveDim; k++ {
					tot[c*liveDim+k] += pts[p+k]
				}
				tot[liveK*liveDim+c]++
			}
		}
		centers = newCenters(centers, tot)
		out[s] = centers
	}
	return out
}
