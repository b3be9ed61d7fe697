// Package core is the paper's primary contribution: a COMPSs-style
// task-based runtime. "A COMPSs application is composed of tasks, which are
// annotated methods. At execution time, the runtime builds a task graph …
// that takes into account the data dependencies between tasks, and from
// this graph schedules and executes the tasks in the distributed
// infrastructure, taking also care of the required data transfers"
// (Sec. VI-A).
//
// This package executes real Go functions with real concurrency; the
// companion package internal/infra replays the same scheduling machinery
// over virtual time for the scale experiments. Both are thin backends over
// the shared backend driver (internal/driver), which builds the scheduling
// engine (internal/engine) — one ready-queue, placement loop,
// dependency-release path, fault surface and work-stealing policy — and
// owns checkpointing, alongside the shared access processor
// (internal/deps), resource model (internal/resources) and scheduling
// policies (internal/sched). Here the engine's Clock is wall time and its
// Executor spawns a goroutine per placement; fault kills additionally
// cancel the execution's context, and epoch-guarded completions keep
// orphaned goroutines from publishing values. See docs/ARCHITECTURE.md
// for the task lifecycle on each backend.
package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/mlpredict"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Errors returned by the runtime.
var (
	// ErrUnknownTask is returned when invoking an unregistered task name.
	ErrUnknownTask = errors.New("core: unknown task")
	// ErrDependencyFailed is returned by tasks whose inputs failed.
	ErrDependencyFailed = errors.New("core: dependency failed")
	// ErrShutdown is returned when submitting to a stopped runtime.
	ErrShutdown = errors.New("core: runtime is shut down")
	// ErrUnplaceable is returned for constraints no node can ever satisfy.
	ErrUnplaceable = errors.New("core: no node can satisfy task constraints")
	// ErrArity is returned when a task returns the wrong number of values.
	ErrArity = errors.New("core: wrong number of return values")
	// ErrQuotaRejected reports a submission the admission controller
	// refused: the tenant was at its in-flight cap with a full wait
	// queue (Config.Admission, Quota.MaxQueued). Submit returns it;
	// SubmitAll resolves the rejected request's Future with it while the
	// rest of the batch proceeds.
	ErrQuotaRejected = errors.New("core: submission rejected by admission quota")
)

// TaskFunc is the body of a task. Args are materialised parameter values in
// declaration order (for Out parameters the element is the zero value).
// Returned values are bound to the task's Out/InOut parameters in order.
type TaskFunc func(ctx context.Context, args []any) ([]any, error)

// TaskDef registers a task type — the equivalent of COMPSs' @task +
// @constraint annotations.
type TaskDef struct {
	// Name is the task-class name (unique).
	Name string
	// Fn is the implementation.
	Fn TaskFunc
	// Constraints restrict placement (cores, memory, GPU, software,
	// tier) and are evaluated dynamically at scheduling time.
	Constraints resources.Constraints
	// EstDuration declares the expected duration on a reference
	// (SpeedFactor 1) core. Informed policies (EFT, WaitFast) consult it
	// until the predictor has learned better; 0 means unknown.
	EstDuration time.Duration
	// Retries re-runs a failing task body up to this many extra times
	// before the failure is reported (transient-fault tolerance).
	Retries int
}

// Param binds one argument of an invocation.
type Param struct {
	// Handle, when set, makes this a dependency-tracked parameter.
	Handle *Handle
	// Dir is the access direction for Handle parameters (default In).
	Dir deps.Direction
	// Value is the immediate value for non-handle (read-only) params.
	Value any
	// Size declares the byte size of the version a writing parameter
	// produces (0 ⇒ measure the returned value at completion). Sizes feed
	// the transfer books, so live runs report moved volumes, not just
	// move counts.
	Size int64
}

// In passes a plain value (no dependency tracking).
func In(v any) Param { return Param{Value: v} }

// Read declares a read access on a handle.
func Read(h *Handle) Param { return Param{Handle: h, Dir: deps.In} }

// Write declares an overwrite access on a handle.
func Write(h *Handle) Param { return Param{Handle: h, Dir: deps.Out} }

// WriteSized declares an overwrite access producing the given number of
// bytes (the declared-size path of transfer accounting).
func WriteSized(h *Handle, bytes int64) Param {
	return Param{Handle: h, Dir: deps.Out, Size: bytes}
}

// Update declares a read-modify-write access on a handle.
func Update(h *Handle) Param { return Param{Handle: h, Dir: deps.InOut} }

// Reduce declares a commutative update on a handle.
func Reduce(h *Handle) Param { return Param{Handle: h, Dir: deps.Commutative} }

// Handle names a runtime-managed datum ("the runtime … offers to the
// programmer the view that a single shared memory space is available",
// Sec. II-A). Values are versioned; handles are created by NewData.
type Handle struct {
	rt *Runtime
	id deps.DataID
}

// ID returns the underlying data ID.
func (h *Handle) ID() deps.DataID { return h.id }

// Future is the synchronisation object of an asynchronous task. A task
// killed by a fault injection keeps its future open until the recovery
// re-execution delivers a result.
type Future struct {
	done chan struct{}
	once sync.Once
	vals []any
	err  error
}

// complete delivers the result exactly once: a recovery re-execution of an
// already-finished task leaves the published values untouched.
func (f *Future) complete(vals []any, err error) {
	f.once.Do(func() {
		f.vals, f.err = vals, err
		close(f.done)
	})
}

// Wait blocks until the task finishes and returns its values.
func (f *Future) Wait() ([]any, error) {
	<-f.done
	return f.vals, f.err
}

// Done reports completion without blocking.
func (f *Future) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Config tunes a Runtime.
type Config struct {
	// Pool is the logical node set; defaults to one node named "local"
	// with 4 cores and 8 GB.
	Pool *resources.Pool
	// Policy places tasks; defaults to sched.MinLoad.
	Policy sched.Policy
	// Predictor, when set, is trained with real durations.
	Predictor *mlpredict.Predictor
	// Tracer, when set, receives events.
	Tracer *trace.Tracer
	// Provenance, when set, records data lineage.
	Provenance *trace.Provenance
	// Locations, when set, lets locality policies see value placement.
	Locations *transfer.Registry
	// Net, when set together with Locations, makes the engine account the
	// data movements a distributed deployment would pay — the same
	// transfer books the simulator keeps, so both backends report
	// identical transfer counts for the same DAG.
	Net *simnet.Network
	// Steal enables the engine's cross-bucket work stealing (default
	// off); the simulator takes the identical knob, so steal decisions
	// are comparable one-to-one across backends.
	Steal engine.StealConfig
	// Availability selects what placement does with a task whose every
	// input replica is lost or partitioned away (engine.Availability):
	// run anyway (default), defer until a heal or fresh replica wakes the
	// task, or recompute the producers on the reachable side. Effective
	// only when Locations and Net are both set; the simulator takes the
	// identical knob. A deferred task's Future stays open until the
	// partition heals, exactly like a fault-killed task's Future stays
	// open until recovery re-executes it.
	Availability engine.Availability
	// Checkpoint, when set (with a Store), snapshots the engine state
	// and the produced values to disk under the configured policy, on
	// wall time — the same policy the simulator drives on virtual time.
	// Set Locations too: the snapshot's data catalog comes from it.
	Checkpoint *checkpoint.Config
	// Restore, when set, resumes a previous run from its snapshot: as
	// the application re-submits the same workflow (same order, so task
	// IDs line up), every submission the snapshot records as completed —
	// with restorable output values — resolves immediately instead of
	// executing.
	Restore *checkpoint.Snapshot
	// Metrics, when set, backs the engine (and the checkpointer, unless
	// its config carries its own bundle) with observability instruments
	// registered on this registry; serve it with obsv.Serve. Optional.
	Metrics *obsv.Registry
	// Autoscale enables pool scaling — the same Scaler the simulator
	// takes, evaluated here on the wall clock. Drive evaluations with
	// Runtime.AutoscaleStep.
	Autoscale autoscale.Scaler
	// Admission, when set, gates submissions behind per-tenant quotas: a
	// submission over its tenant's in-flight cap is registered but held
	// invisible to the scheduler until completions free a slot and
	// weighted fair ordering picks it; past the tenant's queue bound it
	// is rejected with ErrQuotaRejected. Submissions the restore
	// snapshot records as completed bypass quota — they resolve without
	// executing.
	Admission *autoscale.Admission
}

// versionSlot holds one produced value.
type versionSlot struct {
	val any
	err error
}

// rtTask is one submitted invocation. The engine task is embedded so one
// allocation carries both the scheduler-facing and runtime-facing state.
type rtTask struct {
	et         engine.Task
	def        TaskDef
	params     []Param
	reads      []deps.Version
	writes     []deps.Version
	writeSizes []int64 // declared byte sizes per write (0 ⇒ measure)
	// comm pairs each commutative parameter's index with the shared
	// version it merges into (read version == write version).
	comm   []commParam
	future *Future
	cancel context.CancelFunc // current execution's context (rt.mu)
}

// commParam locates one commutative parameter of an invocation.
type commParam struct {
	arg int // parameter index
	ver deps.Version
}

// Runtime executes tasks. Create with New, stop with Shutdown. The
// embedded driver supplies the engine, checkpointing and the fault
// surface (faults.Injector) shared with the simulator.
type Runtime struct {
	*driver.Driver
	cfg  Config
	proc *deps.Processor

	mu       sync.Mutex
	defs     map[string]TaskDef
	values   map[deps.Version]versionSlot
	commMu   map[deps.Version]*sync.Mutex // commutative-group data locks
	group    map[deps.Version][]*Future   // commutative member futures per version
	restore  *restoreState
	restored int
	restaged int              // replicas re-staged by a placement-aware restore seed
	tenants  map[int64]string // admission tenant per in-flight task
	nextTask int64
	nextData int64
	stopped  bool

	wg    sync.WaitGroup // running task goroutines
	epoch time.Time      // trace-event time base
}

// New creates a runtime.
func New(cfg Config) *Runtime {
	if cfg.Pool == nil {
		cfg.Pool = resources.NewPool()
		_ = cfg.Pool.Add(resources.NewNode("local", resources.Description{
			Cores: 4, MemoryMB: 8000, SpeedFactor: 1,
		}))
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.MinLoad{}
	}
	rt := &Runtime{
		cfg:    cfg,
		proc:   deps.NewProcessor(),
		defs:   make(map[string]TaskDef),
		values: make(map[deps.Version]versionSlot),
		commMu: make(map[deps.Version]*sync.Mutex),
		group:  make(map[deps.Version][]*Future),
		epoch:  time.Now(),
	}
	if cfg.Admission != nil {
		rt.tenants = make(map[int64]string)
	}
	if cfg.Restore != nil {
		// Seeded before the driver arms a wall-clock checkpoint timer, so
		// no capture can read rt.values while the seed writes them.
		rt.applyRestoreSeed(cfg.Restore)
	}
	rt.Driver = driver.New(driver.Config{
		Engine: engine.Config{
			Pool:         cfg.Pool,
			Policy:       cfg.Policy,
			Clock:        engine.WallClock{Epoch: rt.epoch},
			Executor:     (*coreExecutor)(rt),
			Registry:     cfg.Locations,
			Net:          cfg.Net,
			Tracer:       cfg.Tracer,
			Steal:        cfg.Steal,
			Availability: cfg.Availability,
			SchedContext: &sched.Context{
				Registry:  cfg.Locations,
				Net:       cfg.Net,
				Predictor: cfg.Predictor,
			},
		},
		Metrics:    cfg.Metrics,
		Checkpoint: cfg.Checkpoint,
		Timer:      faults.NewWallTimer(),
		Autoscale:  cfg.Autoscale,
		Values:     rt.attachValues,
		OnKill:     rt.cancelKilled,
	})
	return rt
}

// now returns the trace timestamp (elapsed since runtime start).
func (rt *Runtime) now() time.Duration { return time.Since(rt.epoch) }

// Register adds a task definition. Re-registration replaces it.
func (rt *Runtime) Register(def TaskDef) error {
	if def.Name == "" || def.Fn == nil {
		return fmt.Errorf("core: task definition needs name and function")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.defs[def.Name] = def
	return nil
}

// NewData creates a fresh runtime-managed datum.
func (rt *Runtime) NewData() *Handle {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextData++
	return &Handle{rt: rt, id: deps.DataID(rt.nextData)}
}

// DataOption tunes SetInitial.
type DataOption func(*dataOpts)

type dataOpts struct {
	size  int64
	sized bool
}

// WithSize declares the byte size of the staged-in value, overriding the
// measured estimate — how externally produced files report their true
// volume to the transfer books.
func WithSize(bytes int64) DataOption {
	return func(o *dataOpts) { o.size, o.sized = bytes, true }
}

// SetInitial sets version 0 of a handle to a concrete value (stage-in).
// When the runtime has a location registry, the value's size (declared via
// WithSize or measured) and its replica on the first pool node are
// recorded, so live transfer accounting prices the stage-in data like the
// simulator does.
func (rt *Runtime) SetInitial(h *Handle, v any, opts ...DataOption) {
	var o dataOpts
	for _, fn := range opts {
		fn(&o)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.values[deps.Version{Data: h.id, Ver: 0}] = versionSlot{val: v}
	if rt.cfg.Locations == nil {
		return
	}
	k := transfer.Key{Data: h.id, Ver: 0}
	size := o.size
	if !o.sized {
		size = measureBytes(v)
	}
	if size > 0 {
		rt.cfg.Locations.SetSize(k, size)
	}
	if nodes := rt.cfg.Pool.Nodes(); len(nodes) > 0 {
		rt.cfg.Locations.AddReplica(k, nodes[0].Name())
	}
}

// measureBytes estimates the in-memory payload of a value for transfer
// accounting: exact for byte slices and strings, element-size × length for
// other slices, the type's size for fixed-size values, and 0 (unknown) for
// reference types it cannot see through.
func measureBytes(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case []byte:
		return int64(len(x))
	case string:
		return int64(len(x))
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.String: // named string types miss the type switch above
		return int64(rv.Len())
	case reflect.Slice:
		return int64(rv.Len()) * int64(rv.Type().Elem().Size())
	case reflect.Ptr, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.Invalid:
		return 0
	default:
		return int64(rv.Type().Size())
	}
}

// admitLocked checks a submission is serviceable. Caller holds rt.mu.
func (rt *Runtime) admitLocked(name string) (TaskDef, error) {
	if rt.stopped {
		return TaskDef{}, ErrShutdown
	}
	def, ok := rt.defs[name]
	if !ok {
		return TaskDef{}, fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	if !rt.cfg.Pool.AnyCapable(def.Constraints) {
		return TaskDef{}, fmt.Errorf("%w: %s needs %+v", ErrUnplaceable, name, def.Constraints)
	}
	return def, nil
}

// normalizeParams copies the parameter list, defaults directions, and
// derives the access list the processor consumes.
func normalizeParams(params []Param) ([]Param, []deps.Access) {
	params = append([]Param(nil), params...)
	var accesses []deps.Access
	for i := range params {
		if params[i].Handle == nil {
			continue
		}
		dir := params[i].Dir
		if dir == 0 {
			dir = deps.In
		}
		params[i].Dir = dir
		accesses = append(accesses, deps.Access{Data: params[i].Handle.id, Dir: dir})
	}
	return params, accesses
}

// buildTaskLocked assembles the runtime task for one registered
// invocation: declared output sizes enter the location registry, input
// sizes aggregate into the scheduler's covariate. Caller holds rt.mu.
func (rt *Runtime) buildTaskLocked(id int64, def TaskDef, params []Param, res deps.Result) *rtTask {
	t := &rtTask{
		def:        def,
		params:     params,
		reads:      res.Reads,
		writes:     res.Writes,
		writeSizes: make([]int64, len(res.Writes)),
		future:     &Future{done: make(chan struct{})},
	}
	wi, ri := 0, 0
	for i, p := range params {
		if p.Handle == nil {
			continue
		}
		if p.Dir == deps.Commutative || p.Dir == deps.Concurrent {
			// Group members share one version; WaitOn must wait for the
			// whole group, not just the last-registered member.
			rt.group[res.Reads[ri]] = append(rt.group[res.Reads[ri]], t.future)
		}
		if p.Dir == deps.Commutative {
			// Commutative members additionally merge in place: record the
			// parameter so execution runs the read-compute-bind of the
			// shared datum under its merge lock (member order stays free;
			// see execute). Concurrent members are deliberately excluded —
			// their direction exists to run simultaneously against
			// externally synchronised structures.
			t.comm = append(t.comm, commParam{arg: i, ver: res.Reads[ri]})
		}
		if p.Dir.Reads() {
			ri++
		}
		if !p.Dir.Writes() {
			continue
		}
		t.writeSizes[wi] = p.Size
		wi++
	}
	t.et = engine.Task{
		ID:          id,
		Class:       def.Name,
		Constraints: def.Constraints,
		EstDuration: def.EstDuration,
		InputKeys:   keysOf(res.Reads),
		OutputKeys:  keysOf(res.Writes),
		Payload:     t,
	}
	if rt.cfg.Locations != nil {
		for _, k := range t.et.InputKeys {
			t.et.InputBytes += rt.cfg.Locations.Size(k)
		}
		for i, k := range t.et.OutputKeys {
			if t.writeSizes[i] > 0 {
				rt.cfg.Locations.SetSize(k, t.writeSizes[i])
			}
		}
	}
	if rt.cfg.Tracer != nil {
		rt.cfg.Tracer.Record(trace.Event{At: rt.now(), Kind: trace.TaskSubmitted, Task: id, Info: def.Name})
	}
	return t
}

// quotaLocked runs one submission through the admission controller:
// the returned hold count keeps a queued task invisible to the
// scheduler until a completion promotes it. Submissions the restore
// snapshot records as completed bypass quota — they resolve without
// executing, so charging a slot would leak it. Caller holds rt.mu.
func (rt *Runtime) quotaLocked(id int64, tenant string) (holds int, out autoscale.Outcome) {
	if rt.cfg.Admission == nil {
		return 0, autoscale.Admitted
	}
	if rt.restore != nil {
		if _, ok := rt.restore.completed[id]; ok {
			return 0, autoscale.Admitted
		}
	}
	switch out = rt.cfg.Admission.Submit(tenant, id); out {
	case autoscale.Queued:
		rt.tenants[id] = tenant
		rt.Engine().RecordAdmission(1, 0)
		return 1, out
	case autoscale.Rejected:
		rt.Engine().RecordAdmission(0, 1)
		return 0, out
	default:
		rt.tenants[id] = tenant
		return 0, out
	}
}

// Submit invokes a registered task asynchronously (default tenant; use
// SubmitAll with TaskReq.Tenant for per-tenant accounting). Returns
// ErrQuotaRejected when the admission controller refuses the
// submission.
func (rt *Runtime) Submit(name string, params ...Param) (*Future, error) {
	rt.mu.Lock()
	def, err := rt.admitLocked(name)
	if err != nil {
		rt.mu.Unlock()
		return nil, err
	}
	rt.nextTask++
	id := rt.nextTask
	holds, out := rt.quotaLocked(id, "")
	if out == autoscale.Rejected {
		rt.nextTask-- // the ID was never registered anywhere
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrQuotaRejected, name)
	}
	params, accesses := normalizeParams(params)
	res := rt.proc.Register(deps.TaskID(id), accesses)
	t := rt.buildTaskLocked(id, def, params, res)
	// The engine counts only dependencies whose producer has not already
	// finished; rt.mu is held through Add so a dependent can never slip in
	// ahead of its producer's registration.
	ready := rt.Engine().Add(&t.et, res.Deps, holds)
	if rt.tryRestoreLocked(t) {
		ready = false
	}
	rt.mu.Unlock()
	if ready {
		rt.Engine().Schedule()
	}
	return t.future, nil
}

// TaskReq names one invocation of a SubmitAll batch.
type TaskReq struct {
	// Name is the registered task-class name.
	Name string
	// Params bind the invocation's arguments.
	Params []Param
	// Tenant attributes the invocation for admission control
	// (Config.Admission); empty means the default tenant.
	Tenant string
}

// SubmitAll submits a batch of invocations under one lock round-trip:
// the whole batch is admitted, registered through the access processor's
// batch path and added to the engine in one acquisition each, then a
// single placement wave runs. Requests may depend on earlier batch
// members. On a definition error (unknown name, unplaceable
// constraints) nothing is registered and no future is returned. A
// per-tenant quota rejection (Config.Admission) is per-request instead:
// the rejected request's Future comes back already resolved with
// ErrQuotaRejected, it is never registered — dependents read the data's
// previous version — and the rest of the batch proceeds.
func (rt *Runtime) SubmitAll(reqs []TaskReq) ([]*Future, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	rt.mu.Lock()
	defs := make([]TaskDef, len(reqs))
	for i, r := range reqs {
		def, err := rt.admitLocked(r.Name)
		if err != nil {
			rt.mu.Unlock()
			return nil, fmt.Errorf("core: batch task %d: %w", i, err)
		}
		defs[i] = def
	}
	futures := make([]*Future, len(reqs))
	accepted := make([]int, 0, len(reqs)) // indices into reqs
	ids := make([]int64, 0, len(reqs))
	holds := make([]int, 0, len(reqs))
	for i, r := range reqs {
		rt.nextTask++
		id := rt.nextTask
		h, out := rt.quotaLocked(id, r.Tenant)
		if out == autoscale.Rejected {
			rt.nextTask-- // the ID was never registered anywhere
			f := &Future{done: make(chan struct{})}
			f.complete(nil, fmt.Errorf("%w: batch task %d (%s)", ErrQuotaRejected, i, r.Name))
			futures[i] = f
			continue
		}
		accepted = append(accepted, i)
		ids = append(ids, id)
		holds = append(holds, h)
	}
	norm := make([][]Param, len(accepted))
	batch := make([]deps.TaskAccesses, len(accepted))
	for j, i := range accepted {
		params, accesses := normalizeParams(reqs[i].Params)
		norm[j] = params
		batch[j] = deps.TaskAccesses{Task: deps.TaskID(ids[j]), Accesses: accesses}
	}
	results := rt.proc.RegisterBatch(batch)
	ets := make([]*engine.Task, len(accepted))
	tasks := make([]*rtTask, len(accepted))
	prods := make([][]deps.TaskID, len(accepted))
	for j, i := range accepted {
		t := rt.buildTaskLocked(ids[j], defs[i], norm[j], results[j])
		futures[i] = t.future
		ets[j] = &t.et
		tasks[j] = t
		prods[j] = results[j].Deps
	}
	ready := rt.Engine().AddBatchHolds(ets, prods, holds)
	for _, t := range tasks {
		rt.tryRestoreLocked(t)
	}
	rt.mu.Unlock()
	if ready {
		rt.Engine().Schedule()
	}
	return futures, nil
}

func keysOf(vs []deps.Version) []transfer.Key {
	out := make([]transfer.Key, len(vs))
	for i, v := range vs {
		out[i] = transfer.KeyOf(v)
	}
	return out
}

// coreExecutor adapts the runtime to engine.Executor: each placement
// becomes a goroutine running the task body on its reserved node. The
// goroutine's context is cancelled if a fault invalidates the placement,
// so cancellation-aware task bodies stop burning cores on work whose
// completion the engine will reject anyway.
type coreExecutor Runtime

// Launch implements engine.Executor.
func (x *coreExecutor) Launch(p engine.Placement) {
	rt := (*Runtime)(x)
	t, ok := p.Task.Payload.(*rtTask)
	if !ok {
		return
	}
	// The placement's slow factor rides the context so cooperative task
	// bodies (SlowSleep, SlowFactorFrom) degrade under slow-node drills
	// the way the simulator stretches modelled durations.
	ctx, cancel := context.WithCancel(context.WithValue(
		context.Background(), slowFactorKey{}, p.SlowFactor))
	rt.mu.Lock()
	// A fault can invalidate the placement between the engine's wave and
	// this launch (and even relaunch the task elsewhere): spawning the
	// stale execution would waste a core and clobber the re-run's cancel
	// hook. rt.mu is held, so a concurrent FailNode's onKill — which also
	// takes rt.mu — cannot interleave between this check and the store.
	if !rt.Engine().Current(p.Task.ID, p.Epoch) {
		rt.mu.Unlock()
		cancel()
		return
	}
	t.cancel = cancel
	args, depErr := rt.materialiseLocked(t)
	rt.wg.Add(1)
	rt.mu.Unlock()
	go rt.execute(ctx, cancel, t, p.Epoch, args, depErr)
}

// materialiseLocked resolves parameter values. Caller holds rt.mu.
func (rt *Runtime) materialiseLocked(t *rtTask) ([]any, error) {
	args := make([]any, len(t.params))
	readIdx := 0
	var depErr error
	for i, p := range t.params {
		if p.Handle == nil {
			args[i] = p.Value
			continue
		}
		if p.Dir.Reads() {
			v := t.reads[readIdx]
			readIdx++
			slot := rt.values[v]
			if slot.err != nil && depErr == nil {
				depErr = fmt.Errorf("%w: input %v: %v", ErrDependencyFailed, v, slot.err)
			}
			args[i] = slot.val
		}
	}
	return args, depErr
}

// commLocksLocked returns the data locks of a task's commutative
// parameters in a canonical (Data, Ver) order, creating them on first
// use. Caller holds rt.mu.
func (rt *Runtime) commLocksLocked(t *rtTask) []*sync.Mutex {
	if len(t.comm) == 0 {
		return nil
	}
	vers := make([]deps.Version, 0, len(t.comm))
	for _, c := range t.comm {
		vers = append(vers, c.ver)
	}
	sort.Slice(vers, func(i, j int) bool {
		if vers[i].Data != vers[j].Data {
			return vers[i].Data < vers[j].Data
		}
		return vers[i].Ver < vers[j].Ver
	})
	locks := make([]*sync.Mutex, 0, len(vers))
	var prev deps.Version
	for i, v := range vers {
		if i > 0 && v == prev {
			continue
		}
		prev = v
		mu, ok := rt.commMu[v]
		if !ok {
			mu = &sync.Mutex{}
			rt.commMu[v] = mu
		}
		locks = append(locks, mu)
	}
	return locks
}

// execute runs one task on its reserved node group.
func (rt *Runtime) execute(ctx context.Context, cancel context.CancelFunc, t *rtTask, epoch int, args []any, depErr error) {
	defer rt.wg.Done()
	defer cancel()
	var started time.Time
	if rt.cfg.Predictor != nil {
		started = time.Now()
	}

	// Commutative members are mutually exclusive on their datum for the
	// whole read-compute-bind (like COMPSs, which grants commutative
	// tasks the data in turn): a member's return value IS the new merged
	// value, so another member interleaving mid-body would be clobbered.
	// What stays free is the ORDER — members run as the scheduler picks
	// them, with no member-member dependency edges. Locks are taken in
	// canonical version order (no deadlocks) and the member's arguments
	// are re-materialised under the lock, so each member sees the value
	// the previous one left.
	rt.mu.Lock()
	locks := rt.commLocksLocked(t)
	rt.mu.Unlock()
	for _, l := range locks {
		l.Lock()
	}
	if len(locks) > 0 {
		rt.mu.Lock()
		for _, c := range t.comm {
			slot := rt.values[c.ver]
			if slot.err != nil && depErr == nil {
				depErr = fmt.Errorf("%w: input %v: %v", ErrDependencyFailed, c.ver, slot.err)
			}
			args[c.arg] = slot.val
		}
		rt.mu.Unlock()
	}

	var vals []any
	var elapsed time.Duration
	err := depErr
	if err == nil {
		for attempt := 0; ; attempt++ {
			vals, err = t.def.Fn(ctx, args)
			if err == nil || attempt >= t.def.Retries || ctx.Err() != nil {
				break // a cancelled (fault-killed) execution does not retry
			}
		}
		if rt.cfg.Predictor != nil {
			// Measured here so lock waits and value binding below do not
			// inflate the durations the predictor learns from.
			elapsed = time.Since(started)
		}
	}

	// Bind returned values to written versions (in parameter order).
	if err == nil && len(vals) != len(t.writes) {
		err = fmt.Errorf("%w: %s returned %d values for %d written parameters",
			ErrArity, t.def.Name, len(vals), len(t.writes))
	}

	// Values must be visible before the engine releases dependents — but
	// only from the placement the engine still recognises: an execution
	// orphaned by a node failure must not clobber the versions its
	// recovery re-run will publish.
	rt.mu.Lock()
	if rt.Engine().Current(t.et.ID, epoch) {
		for i, w := range t.writes {
			if err != nil {
				rt.values[w] = versionSlot{err: err}
				continue
			}
			rt.values[w] = versionSlot{val: vals[i]}
			if rt.cfg.Locations != nil && t.writeSizes[i] == 0 {
				// No declared size: measure the produced value so live
				// transfer accounting reports volumes, not just moves.
				rt.cfg.Locations.SetSize(transfer.KeyOf(w), measureBytes(vals[i]))
			}
			if rt.cfg.Provenance != nil {
				inputs := make([]string, 0, len(t.reads))
				for _, r := range t.reads {
					inputs = append(inputs, trace.VersionKey(int64(r.Data), r.Ver))
				}
				rt.cfg.Provenance.RecordProduction(trace.VersionKey(int64(w.Data), w.Ver), t.et.ID, inputs)
			}
		}
	}
	rt.mu.Unlock()
	for i := len(locks) - 1; i >= 0; i-- {
		locks[i].Unlock()
	}

	// The engine releases the reservation, registers output replicas,
	// frees every dependent under one lock acquisition, and immediately
	// runs the next placement wave. A stale completion — the placement was
	// invalidated by a fault — is rejected; the relaunched execution owns
	// the future and the books. The checkpointer is notified between the
	// completion and the wave, with no other wave able to interleave, so
	// an every-N policy captures the same post-completion, pre-placement
	// state the simulator captures.
	var onDone func()
	if ck := rt.Checkpointer(); ck != nil {
		onDone = ck.TaskCompleted
	}
	comp, ok := rt.Engine().CompleteSchedule(t.et.ID, epoch, err != nil, onDone)
	if !ok {
		return
	}
	if comp.First {
		// Only the first completion returns the quota slot — recovery
		// re-executions were never re-admitted.
		rt.releaseAdmitted(t.et.ID)
	}
	if rt.cfg.Predictor != nil && err == nil {
		rt.cfg.Predictor.Observe(t.def.Name, 0, elapsed)
	}
	if rt.cfg.Locations == nil {
		// Without a replica registry there is no lineage re-execution, so
		// the consumed parameters are dead weight; with one, keep them —
		// a recovery re-run materialises the same invocation again.
		rt.mu.Lock()
		t.params = nil
		rt.mu.Unlock()
	}
	t.future.complete(vals, err)
}

// releaseAdmitted returns a finished task's quota slot to the admission
// controller and lifts the synthetic holds of whatever queued
// submissions the freed slot promotes (possibly other tenants' — fair
// ordering decides). No-op for tasks that never went through admission
// (no controller configured, or the restore bypass).
func (rt *Runtime) releaseAdmitted(id int64) {
	if rt.cfg.Admission == nil {
		return
	}
	rt.mu.Lock()
	tenant, admitted := rt.tenants[id]
	delete(rt.tenants, id)
	rt.mu.Unlock()
	if !admitted {
		return
	}
	woke := false
	for _, rel := range rt.cfg.Admission.Complete(tenant) {
		if rid, isID := rel.Payload.(int64); isID {
			if rt.Engine().ReleaseHold(rid) {
				woke = true
			}
		}
	}
	if woke {
		rt.Engine().Schedule()
	}
}

// WaitOn synchronises on the newest version of a handle and returns its
// value — PyCOMPSs' compss_wait_on.
func (rt *Runtime) WaitOn(h *Handle) (any, error) {
	// rt.mu serialises the version + producer lookup with Submit (which
	// holds rt.mu from access registration through engine.Add), so a
	// version can never be current without its producer being findable.
	rt.mu.Lock()
	ver := rt.proc.CurrentVersion(h.id)
	var futs []*Future
	if id, ok := rt.Engine().Producer(transfer.KeyOf(ver)); ok {
		if et, found := rt.Engine().Task(id); found {
			if t, isTask := et.Payload.(*rtTask); isTask {
				futs = append(futs, t.future)
			}
		}
	}
	// A commutative/concurrent group shares one version: the engine's
	// producer map names only the last-registered member, but the merged
	// value is ready only when every member has folded its update in.
	futs = append(futs, rt.group[ver]...)
	rt.mu.Unlock()
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			return nil, err
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	slot := rt.values[ver]
	return slot.val, slot.err
}

// Barrier blocks until every submitted task has finished.
func (rt *Runtime) Barrier() {
	for {
		var pending []*Future
		rt.Engine().Each(func(et *engine.Task) {
			if t, ok := et.Payload.(*rtTask); ok && !t.future.Done() {
				pending = append(pending, t.future)
			}
		})
		if len(pending) == 0 {
			if ck := rt.Checkpointer(); ck != nil {
				ck.Drained() // the on-drain checkpoint trigger
			}
			return
		}
		for _, f := range pending {
			<-f.done
		}
	}
}

// Stats summarises runtime activity.
type Stats struct {
	Submitted int
	DepsEdges deps.Stats
}

// Stats returns counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return Stats{Submitted: int(rt.nextTask), DepsEdges: rt.proc.Stats()}
}

// cancelKilled is the driver's OnKill hook: each execution a crash kills
// has its context cancelled, so cancellation-aware task bodies stop
// immediately — the live equivalent of the simulator discarding a
// completion event. Futures of killed tasks stay open until their
// recovery re-execution delivers a result.
func (rt *Runtime) cancelKilled(et *engine.Task) {
	t, ok := et.Payload.(*rtTask)
	if !ok {
		return
	}
	rt.mu.Lock()
	cancel := t.cancel
	rt.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Pool exposes the node pool (for agents that add/remove resources at
// execution time, paper Sec. VI-B). After growing the pool mid-run,
// call RevalidateAvailability so tasks parked on unreachable data get a
// chance on the new capacity.
func (rt *Runtime) Pool() *resources.Pool { return rt.cfg.Pool }

// CurrentVersion reports the newest registered version of a handle.
func (rt *Runtime) CurrentVersion(h *Handle) deps.Version {
	return rt.proc.CurrentVersion(h.id)
}

// AutoscaleStep runs one autoscale evaluation against the
// engine's current signals and applies the decision — the live
// counterpart of Sim.AutoscaleStep, down to the trace events, so the
// parity suite can compare decision sequences one-to-one. Grown and
// reclaimed capacity is usable immediately (a logical pool has no
// provisioning delay); removal is final, the drain having landed
// through the engine cordon beforehand.
func (rt *Runtime) AutoscaleStep() autoscale.Action {
	act := rt.cfg.Autoscale.Step(rt.cfg.Pool, autoscale.Snapshot(rt.Engine(), rt.cfg.Pool, rt.now()))
	switch act.Kind {
	case autoscale.Reclaimed:
		rt.cfg.Tracer.Record(trace.Event{At: rt.now(), Kind: trace.NodeUndrained, Node: act.Node.Name()})
		rt.Engine().RevalidateAvailability()
	case autoscale.Grew:
		rt.cfg.Tracer.Record(trace.Event{At: rt.now(), Kind: trace.NodeAdded, Node: act.Node.Name()})
		// The new node may be the first that can reach parked data:
		// re-validate along with the placement wave.
		rt.Engine().RevalidateAvailability()
	case autoscale.Removed:
		rt.cfg.Tracer.Record(trace.Event{At: rt.now(), Kind: trace.NodeRemoved, Node: act.Node.Name()})
	}
	return act
}

// Shutdown drains running tasks. Pending-but-unstarted tasks still run;
// new submissions fail with ErrShutdown.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		rt.wg.Wait()
		return
	}
	rt.stopped = true
	rt.mu.Unlock()

	rt.Barrier()
	rt.wg.Wait()
	if ck := rt.Checkpointer(); ck != nil {
		ck.Stop()
	}
}
