// Package compss is the public programming-model API of this repository: a
// Go rendition of the COMPSs/PyCOMPSs task-based model described in
// "Workflow environments for advanced cyberinfrastructure platforms"
// (Badia et al., ICDCS 2019).
//
// Applications register plain Go functions as tasks (the equivalent of the
// @task annotation), optionally with resource constraints (@constraint),
// then invoke them asynchronously. The runtime builds the dependency graph
// from declared parameter directions (IN / OUT / INOUT / commutative),
// schedules ready tasks over a pool of logical nodes, and exposes futures
// and barriers for synchronisation — PyCOMPSs' compss_wait_on and
// compss_barrier.
//
// A minimal program:
//
//	c := compss.New()
//	defer c.Shutdown()
//	_ = c.RegisterTask("add", func(ctx context.Context, args []any) ([]any, error) {
//		return []any{args[0].(int) + args[1].(int)}, nil
//	})
//	x := c.NewObject()
//	_, _ = c.Call("add", compss.In(1), compss.In(2), compss.Write(x))
//	sum, _ := c.WaitOn(x) // 3
package compss

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/mlpredict"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// TaskFunc is a task body: it receives materialised argument values (one
// per declared parameter, zero values for pure outputs) and returns one
// value per written (Out/InOut/Reduce) parameter, in declaration order.
type TaskFunc = func(ctx context.Context, args []any) ([]any, error)

// Constraints mirror the COMPSs @constraint annotation: requirements a
// node must meet to host the task, evaluated dynamically at scheduling
// time (which is what makes variable memory constraints effective — paper
// Sec. VI-A).
type Constraints struct {
	// Cores the task occupies while running (0 ⇒ 1).
	Cores int
	// MemoryMB reserved for the task.
	MemoryMB int64
	// GPUs reserved for the task.
	GPUs int
	// Software names that must be installed on the node.
	Software []string
}

// NodeSpec describes one logical node of the execution pool.
type NodeSpec struct {
	// Name must be unique within the pool.
	Name string
	// Cores is the node's core count (default 4).
	Cores int
	// MemoryMB is the node's memory (default 8000).
	MemoryMB int64
	// GPUs is the accelerator count.
	GPUs int
	// Software lists installed packages.
	Software []string
}

// Object is a runtime-managed datum: task parameters referencing the same
// Object are dependency-tracked across invocations.
type Object struct {
	h *core.Handle
}

// Param declares one argument of a task invocation.
type Param struct {
	inner core.Param
}

// In passes a plain read-only value (no dependency tracking).
func In(v any) Param { return Param{inner: core.In(v)} }

// Read declares a read (IN) access on an object.
func Read(o *Object) Param { return Param{inner: core.Read(o.h)} }

// Write declares an overwrite (OUT) access on an object.
func Write(o *Object) Param { return Param{inner: core.Write(o.h)} }

// Update declares a read-modify-write (INOUT) access on an object.
func Update(o *Object) Param { return Param{inner: core.Update(o.h)} }

// Reduce declares a commutative accumulation on an object (order-free
// semantics; see internal/core for the execution guarantee).
func Reduce(o *Object) Param { return Param{inner: core.Reduce(o.h)} }

// Future is the handle of an asynchronous invocation.
type Future struct {
	f *core.Future
}

// Wait blocks until the task finishes and returns its output values.
func (f *Future) Wait() ([]any, error) { return f.f.Wait() }

// Done reports completion without blocking.
func (f *Future) Done() bool { return f.f.Done() }

// config collects option state.
type config struct {
	nodes      []NodeSpec
	policy     string
	predictor  bool
	tracing    bool
	provenance bool
}

// Option configures New.
type Option func(*config)

// WithNodes sets the logical node pool (default: one 4-core node).
func WithNodes(nodes ...NodeSpec) Option {
	return func(c *config) { c.nodes = append([]NodeSpec(nil), nodes...) }
}

// WithPolicy selects the scheduling policy by name: "fifo", "min-load",
// "p2c", "locality", "eft", "ml", "energy", "wait-fast" (default "fifo";
// unknown names also select "fifo").
func WithPolicy(name string) Option {
	return func(c *config) { c.policy = name }
}

// WithPredictor enables the learning duration predictor (required by the
// "ml" policy to become effective).
func WithPredictor() Option {
	return func(c *config) { c.predictor = true }
}

// WithTracing enables event tracing.
func WithTracing() Option {
	return func(c *config) { c.tracing = true }
}

// WithProvenance enables data-lineage recording (the traceability the
// paper's Sec. VI-C calls for).
func WithProvenance() Option {
	return func(c *config) { c.provenance = true }
}

// COMPSs is a running task runtime. Create with New; always Shutdown.
type COMPSs struct {
	rt    *core.Runtime
	trace *trace.Tracer
	prov  *trace.Provenance
	pred  *mlpredict.Predictor
}

// New starts a runtime.
func New(opts ...Option) *COMPSs {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	pool := resources.NewPool()
	if len(cfg.nodes) == 0 {
		cfg.nodes = []NodeSpec{{Name: "local", Cores: 4, MemoryMB: 8000}}
	}
	for _, n := range cfg.nodes {
		desc := resources.Description{
			Cores:       n.Cores,
			MemoryMB:    n.MemoryMB,
			GPUs:        n.GPUs,
			Software:    append([]string(nil), n.Software...),
			SpeedFactor: 1,
		}
		if desc.Cores <= 0 {
			desc.Cores = 4
		}
		if desc.MemoryMB <= 0 {
			desc.MemoryMB = 8000
		}
		_ = pool.Add(resources.NewNode(n.Name, desc))
	}

	c := &COMPSs{}
	coreCfg := core.Config{
		Pool:      pool,
		Policy:    sched.ByName(cfg.policy),
		Locations: transfer.NewRegistry(),
	}
	if cfg.predictor {
		c.pred = mlpredict.NewPredictor(0)
		coreCfg.Predictor = c.pred
	}
	if cfg.tracing {
		c.trace = trace.New()
		coreCfg.Tracer = c.trace
	}
	if cfg.provenance {
		c.prov = trace.NewProvenance()
		coreCfg.Provenance = c.prov
	}
	c.rt = core.New(coreCfg)
	return c
}

// RegisterTask registers a task type under a unique name, with optional
// constraints.
func (c *COMPSs) RegisterTask(name string, fn TaskFunc, cons ...Constraints) error {
	def := core.TaskDef{Name: name, Fn: fn}
	if len(cons) > 1 {
		return fmt.Errorf("compss: at most one Constraints value, got %d", len(cons))
	}
	if len(cons) == 1 {
		def.Constraints = resources.Constraints{
			Cores:    cons[0].Cores,
			MemoryMB: cons[0].MemoryMB,
			GPUs:     cons[0].GPUs,
			Software: append([]string(nil), cons[0].Software...),
		}
	}
	return c.rt.Register(def)
}

// NewObject creates a dependency-tracked datum.
func (c *COMPSs) NewObject() *Object {
	return &Object{h: c.rt.NewData()}
}

// NewObjectWith creates a datum whose initial (version 0) value is v.
func (c *COMPSs) NewObjectWith(v any) *Object {
	o := c.NewObject()
	c.rt.SetInitial(o.h, v)
	return o
}

// Call invokes a registered task asynchronously.
func (c *COMPSs) Call(name string, params ...Param) (*Future, error) {
	inner := make([]core.Param, len(params))
	for i, p := range params {
		inner[i] = p.inner
	}
	f, err := c.rt.Submit(name, inner...)
	if err != nil {
		return nil, err
	}
	return &Future{f: f}, nil
}

// WaitOn synchronises on the newest version of an object and returns its
// value (compss_wait_on).
func (c *COMPSs) WaitOn(o *Object) (any, error) { return c.rt.WaitOn(o.h) }

// Barrier blocks until every submitted task finished (compss_barrier).
func (c *COMPSs) Barrier() { c.rt.Barrier() }

// Shutdown drains and stops the runtime.
func (c *COMPSs) Shutdown() { c.rt.Shutdown() }

// TasksSubmitted reports how many invocations were accepted.
func (c *COMPSs) TasksSubmitted() int { return c.rt.Stats().Submitted }

// DependencyEdges reports the dependency-graph edge count (all true
// dependencies: the runtime renames data versions, so no WAR/WAW edges
// arise).
func (c *COMPSs) DependencyEdges() int { return c.rt.Stats().DepsEdges.Total() }

// TraceEvents returns recorded events as (kind, count) pairs; empty unless
// WithTracing was set.
func (c *COMPSs) TraceEvents() map[string]int {
	if c.trace == nil {
		return nil
	}
	out := make(map[string]int)
	for _, e := range c.trace.Events() {
		out[string(e.Kind)]++
	}
	return out
}

// Ancestry reports the provenance of an object's current version as
// version-key strings (requires WithProvenance).
func (c *COMPSs) Ancestry(o *Object) []string {
	if c.prov == nil {
		return nil
	}
	v := c.rt.CurrentVersion(o.h)
	return c.prov.Ancestry(trace.VersionKey(int64(v.Data), v.Ver))
}

// Direction re-exports the access directions for advanced use.
type Direction = deps.Direction
