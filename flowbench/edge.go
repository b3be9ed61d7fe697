package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/compss"
	"repro/internal/agent"
	"repro/internal/obsv"
)

// edgeOffload is a closed loop with one compss application shaped like
// examples/remote: two REST agents run in-process on loopback, and each
// step calls two remote tasks (their bodies run on whichever agent is
// least loaded) and a local aggregate, then waits on the aggregate. The
// 2-core pool keeps at most two HTTP requests in flight. compss.Call
// submits task by task, so this is also the non-batch submission path.
type edgeOffload struct {
	xs, ys [][]float64 // per-step inputs of the two remote tasks
	want   []float64   // expected aggregate per step
	agents []*agent.Agent
	urls   []string
	reg    *obsv.Registry // agent instruments (traced runs only)

	submitted  int             // traced tasks
	tSteps     int             // traced steps
	remote     int             // traced remote tasks
	remoteWall []time.Duration // traced: Call → remote future done
	requests   float64         // traced: agent HTTP requests served
	execN      float64         // traced: remote executions
	execS      float64         // traced: remote execution seconds
}

const edgeVecLen = 32

func (e *edgeOffload) setup(o options) error {
	steps := 10
	if o.tiny {
		steps = 3
	}
	rng := rand.New(rand.NewSource(o.seed))
	e.xs, e.ys, e.want = make([][]float64, steps), make([][]float64, steps), make([]float64, steps)
	for s := 0; s < steps; s++ {
		x, y := make([]float64, edgeVecLen), make([]float64, edgeVecLen)
		for i := range x {
			x[i] = rng.Float64() * 1000
			y[i] = rng.NormFloat64() * 50
		}
		e.xs[s], e.ys[s] = x, y
		e.want[s] = sum(normalize(x)) + sum(center(y))
	}
	if o.traced {
		e.reg = obsv.NewRegistry()
	}
	fns := agent.NewRegistry()
	fns.Register("normalize", vecFunc(normalize))
	fns.Register("center", vecFunc(center))
	for i := 0; i < 2; i++ {
		a, err := agent.New(agent.Config{Name: fmt.Sprintf("edge%d", i), Registry: fns, Cores: 2, Metrics: e.reg})
		if err != nil {
			e.close()
			return err
		}
		e.agents = append(e.agents, a)
		e.urls = append(e.urls, a.URL())
	}
	// Start an application the way a job does, so setup_s covers it.
	c, err := e.start()
	if err != nil {
		e.close()
		return err
	}
	c.Shutdown()
	return nil
}

func (e *edgeOffload) close() {
	for _, a := range e.agents {
		a.Close()
	}
	e.agents, e.urls = nil, nil
}

// start creates the compss application: a 2-core local pool, the two
// remote tasks and the local aggregate.
func (e *edgeOffload) start() (*compss.COMPSs, error) {
	c := compss.New(compss.WithNodes(compss.NodeSpec{Name: "local", Cores: 2}))
	for _, name := range []string{"normalize", "center"} {
		if err := c.RegisterRemoteTask(name, e.urls); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	if err := c.RegisterTask("aggregate", aggregateTask); err != nil {
		c.Shutdown()
		return nil, err
	}
	return c, nil
}

func (e *edgeOffload) job(t *tally, tr *tracer) error {
	var before map[string]float64
	if tr != nil {
		before = registryValues(e.reg)
	}
	t0 := time.Now()
	c, err := e.start()
	if err != nil {
		return err
	}
	defer c.Shutdown()
	var waiters sync.WaitGroup
	defer waiters.Wait() // before Shutdown: the futures complete on their own
	var mu sync.Mutex    // guards remoteWall
	a, b, out := c.NewObject(), c.NewObject(), c.NewObject()
	call := func(parent, step int, name string, params ...compss.Param) (*compss.Future, error) {
		called := time.Now()
		sp := tr.begin("compss.Call", parent, step)
		f, err := c.Call(name, params...)
		tr.end(sp)
		if tr != nil && err == nil && name != "aggregate" {
			// A waiter per remote task marks when its HTTP round trips
			// finished; the benchmark cannot span inside compss.
			rsp := tr.begin("agent.remote_task", parent, step)
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				_, _ = f.Wait()
				tr.end(rsp)
				mu.Lock()
				e.remoteWall = append(e.remoteWall, time.Since(called))
				mu.Unlock()
			}()
		}
		return f, err
	}
	jobSpan := tr.begin("job", 0, 0)
	tasks := 0
	for s := range e.xs {
		step := tr.nextStep()
		stepSpan := tr.begin("step", jobSpan, step)
		start := time.Now()
		fa, err := call(stepSpan, step, "normalize", compss.In(e.xs[s]), compss.Write(a))
		if err != nil {
			return err
		}
		fb, err := call(stepSpan, step, "center", compss.In(e.ys[s]), compss.Write(b))
		if err != nil {
			return err
		}
		if _, err := call(stepSpan, step, "aggregate", compss.Read(a), compss.Read(b), compss.Write(out)); err != nil {
			return err
		}
		sp := tr.begin("compss.WaitOn", stepSpan, step)
		v, err := c.WaitOn(out)
		tr.end(sp)
		t.stepsMS = append(t.stepsMS, float64(time.Since(start))/1e6)
		if s == 0 {
			t.makespanS = append(t.makespanS, time.Since(t0).Seconds())
		}
		tr.end(stepSpan)
		tasks += 3
		if err == nil {
			_, errA := fa.Wait()
			_, errB := fb.Wait()
			err = errors.Join(errA, errB)
		}
		if err != nil {
			t.fail(3, "edge-offload step %d: %v", s, err)
			continue
		}
		if err := checkAggregate(v, e.want[s]); err != nil {
			t.fail(3, "edge-offload step %d: %v", s, err)
		}
	}
	tr.end(jobSpan)
	wall := time.Since(t0)
	waiters.Wait()
	t.done(0, tasks, wall)
	t.jobs++
	if tr != nil {
		e.submitted += tasks
		e.remote += 2 * len(e.xs)
		e.tSteps += len(e.xs)
		after := registryValues(e.reg)
		d := func(name string) float64 { return after[name] - before[name] }
		e.requests += sumPrefix(after, "flowgo_agent_http_requests_total") -
			sumPrefix(before, "flowgo_agent_http_requests_total")
		e.execN += d("flowgo_agent_exec_seconds_count")
		e.execS += d("flowgo_agent_exec_seconds_sum")
		if n := d("flowgo_agent_tasks_failed_total"); n > 0 {
			t.fail(0, "edge-offload: agents report %v failed remote tasks", n)
		}
	}
	return nil
}

func (e *edgeOffload) layers(t *tally, tr *tracer) map[string]float64 {
	out := map[string]float64{
		"core.submit_us_per_task": perTask(float64(tr.total("compss.Call"))/1e3, e.submitted),
		"core.wait_ms_per_step":   perTask(float64(tr.total("compss.WaitOn"))/1e6, e.tSteps),
	}
	out["agent.requests_per_task"] = perTask(e.requests, e.remote)
	execMS := 0.0
	if e.execN > 0 {
		execMS = e.execS / e.execN * 1e3
	}
	out["agent.exec_ms_mean"] = execMS
	var remoteMS float64
	for _, w := range e.remoteWall {
		remoteMS += float64(w) / 1e6
	}
	if len(e.remoteWall) > 0 {
		out["agent.http_ms_per_task"] = remoteMS/float64(len(e.remoteWall)) - execMS
	}
	return out
}

// checkAggregate compares a step's aggregate with the locally computed
// expectation. JSON carries float64 exactly, so only summation order could
// differ; a relative 1e-9 allows for that and nothing else.
func checkAggregate(v any, want float64) error {
	got, ok := v.(float64)
	if !ok {
		return fmt.Errorf("aggregate is %T, want float64", v)
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("aggregate %v, want %v", got, want)
	}
	return nil
}

// aggregateTask: args (a, b, out) → the sum of both remote results, which
// arrive JSON-decoded as []any of float64.
func aggregateTask(_ context.Context, args []any) ([]any, error) {
	total := 0.0
	for _, a := range args[:2] {
		xs, ok := a.([]any)
		if !ok {
			return nil, fmt.Errorf("aggregate: want arrays, got %T", a)
		}
		for _, x := range xs {
			f, ok := x.(float64)
			if !ok {
				return nil, fmt.Errorf("aggregate: want numbers, got %T", x)
			}
			total += f
		}
	}
	return []any{total}, nil
}

// edgeDeviceTime models the device-side work of an edge task (a sensor
// read). It also keeps every remote call running past the client's first
// status poll, so each step pays exactly one poll interval instead of a
// mix of zero and one decided by a race.
const edgeDeviceTime = time.Millisecond

// vecFunc adapts a vector function to an agent function.
func vecFunc(fn func([]float64) []float64) agent.Func {
	return func(args []json.RawMessage) (json.RawMessage, error) {
		var xs []float64
		if len(args) != 1 || json.Unmarshal(args[0], &xs) != nil {
			return nil, errors.New("want one number array")
		}
		time.Sleep(edgeDeviceTime)
		return json.Marshal(fn(xs))
	}
}

// normalize scales a vector by its largest element.
func normalize(xs []float64) []float64 {
	max := 0.0
	for _, x := range xs {
		max = math.Max(max, x)
	}
	if max == 0 {
		max = 1
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / max
	}
	return out
}

// center subtracts a vector's mean.
func center(xs []float64) []float64 {
	mean := sum(xs) / float64(len(xs))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x - mean
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
