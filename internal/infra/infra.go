// Package infra simulates an advanced cyberinfrastructure platform — the
// substitute for the paper's MareNostrum runs, cloud deployments and fog
// testbeds (DESIGN.md §4). It is a discrete-event backend over virtual time
// (internal/simclock) of the shared scheduling engine (internal/engine),
// built and driven through the backend driver it shares with the live
// runtime (internal/driver):
// tasks declare data accesses, the access processor derives the dependency
// graph, and the engine's sharded ready-queue and placement loop — the very
// same code the live runtime (internal/core) executes — place ready tasks
// on nodes, price transfers through the network model, and release
// dependents. This backend's Executor turns each placement into a
// completion event on the virtual clock, and energy is integrated per node.
//
// The simulator also models the paper's dynamic behaviours: elasticity
// (Sec. VI-A) with drain-then-remove downscaling that never kills running
// work, node failures with recovery through persisted data (Sec. VI-B,
// experiment E7), online learning of task durations (Sec. VI-C,
// experiment E8), scripted fault scenarios (Config.Faults) and the
// engine's cross-bucket work stealing (Config.Steal) — every knob
// mirrored by the live runtime, so behaviour studied here is behaviour
// the runtime executes. See docs/ARCHITECTURE.md for the task lifecycle
// on each backend.
package infra

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/driver"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/mlpredict"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// TaskSpec declares one task of a simulated workflow.
type TaskSpec struct {
	// ID must be unique and registration happens in slice order, so
	// dependencies always point to earlier specs.
	ID int64
	// Class names the task type (predictor key, trace label).
	Class string
	// Duration is the base compute time on a SpeedFactor-1 core.
	Duration time.Duration
	// Constraints are the resource requirements (paper Sec. VI-A).
	Constraints resources.Constraints
	// Accesses declare the data the task touches; the access processor
	// turns them into dependencies.
	Accesses []deps.Access
	// OutputBytes sizes the data versions this task writes (keyed by
	// DataID; applies to whichever version the write produces).
	OutputBytes map[deps.DataID]int64
	// Release keeps the task invisible to the scheduler until this
	// virtual instant (bursty arrivals, e.g. sensor-driven workloads).
	Release time.Duration
	// Tenant tags the task for admission control (Config.Admission);
	// empty means the default tenant.
	Tenant string
}

// Config assembles a simulation.
type Config struct {
	// Pool is the starting set of nodes. Required.
	Pool *resources.Pool
	// Net models transfer costs. Required.
	Net *simnet.Network
	// Policy places ready tasks. Required.
	Policy sched.Policy
	// Predictor, when set, is trained online with completed-task
	// durations and consulted by prediction-aware policies.
	Predictor *mlpredict.Predictor
	// Tracer, when set, receives events.
	Tracer *trace.Tracer
	// StageIn locates externally provided data (version 0) with sizes.
	StageIn map[deps.DataID]int64
	// StageInNodes places staged-in data per datum with explicit replica
	// locations — how partitioned storage backends advertise placement
	// to the scheduler (E4). Data without an entry lands on the first
	// pool node.
	StageInNodes map[deps.DataID][]string
	// PersistNode, when non-empty, receives a replica of every task
	// output — the dataClay persistence that makes recovery cheap
	// ("whenever a task is submitted to a remote agent, the COMPSs
	// runtime persists any not-yet-persisted object", Sec. VI-B).
	PersistNode string
	// Faults is a fault script (node crashes, slow nodes, drains, network
	// partitions) armed on the virtual clock.
	Faults faults.Scenario
	// Steal enables the engine's cross-bucket work stealing (default
	// off); the live runtime takes the identical knob, so steal decisions
	// are comparable one-to-one across backends.
	Steal engine.StealConfig
	// Availability selects what placement does with a task whose every
	// input replica is lost or partitioned away: run anyway (default),
	// defer until a heal or fresh replica, or recompute the producers
	// locally (engine.Availability). The live runtime takes the identical
	// knob.
	Availability engine.Availability
	// Checkpoint, when set (with a Store), snapshots the engine state to
	// disk under the configured policy, on the virtual clock — the same
	// policy the live runtime drives on wall time.
	Checkpoint *checkpoint.Config
	// Restore, when set, replays a snapshot into this simulation before
	// it runs: tasks the snapshot records as completed (and whose output
	// replicas survive on this pool) are marked done instead of
	// executing, and the data catalog re-seeds the location registry so
	// the transfer planner re-stages anything a dependent misses.
	// Task IDs must match the snapshotting run's (same specs, same
	// order).
	Restore *checkpoint.Snapshot
	// HaltAt, when positive, stops the event loop at that virtual
	// instant — the simulated equivalent of the whole process dying
	// mid-run (experiment E14). Run returns ErrHalted with the partial
	// result.
	HaltAt time.Duration
	// ElasticEvery is the Autoscale evaluation period (default 10s).
	ElasticEvery time.Duration
	// Autoscale, when set, scales the pool every ElasticEvery: the
	// cost-aware autoscaler across heterogeneous tiers, or the legacy
	// single-tier rule (autoscale.Legacy).
	Autoscale autoscale.Scaler
	// Admission, when set, gates task visibility behind per-tenant
	// quotas: a task over its tenant's in-flight cap waits (via the same
	// synthetic-hold mechanism as Release) until completions free a slot
	// and weighted fair ordering picks it. The simulator requires an
	// unbounded admission queue (Quota.MaxQueued == 0): a preregistered
	// workload has no client to bounce a rejection back to.
	Admission *autoscale.Admission
	// DisableRenaming turns off data-version renaming in the access
	// processor, so WAR/WAW false dependencies serialise the graph
	// (ablation A1 in DESIGN.md §6).
	DisableRenaming bool
	// Metrics, when set, backs the engine (and the checkpointer, unless
	// its config carries its own bundle) with observability instruments
	// registered on this registry. Optional.
	Metrics *obsv.Registry
	// SampleEvery, when positive (and Metrics is set), snapshots the
	// registry into an in-memory time-series every virtual interval —
	// deterministic: identical runs produce byte-identical series,
	// retrievable through Sim.Sampler. Checkpoint capture-time metrics
	// are the exception (measured on the wall clock; sample
	// checkpoint-free runs when diffing series).
	SampleEvery time.Duration
}

// Result summarises a simulation run.
type Result struct {
	// Makespan is the completion time of the last task.
	Makespan time.Duration
	// TasksCompleted counts task executions that finished (re-executions
	// count again).
	TasksCompleted int
	// TasksFailed counts executions killed by node failures.
	TasksFailed int
	// TasksReExecuted counts recovery re-runs of already-completed tasks
	// (recompute of lost data).
	TasksReExecuted int
	// TasksRestored counts tasks resolved from a checkpoint snapshot
	// instead of executing (Config.Restore).
	TasksRestored int
	// TasksDeferred counts placement attempts parked by the availability
	// policy (Config.Availability); TasksRanMissing counts launches that
	// proceeded with at least one unreachable input (the run-anyway
	// executions the defer/recompute policies eliminate).
	TasksDeferred   int
	TasksRanMissing int
	// ReplicasRestaged counts data versions a placement-aware restore
	// copied back from the persist tier because every node recorded as
	// holding them had left the pool (Config.Restore).
	ReplicasRestaged int
	// BytesMoved is the total payload transferred between nodes.
	BytesMoved int64
	// TransferTime is the summed transfer time on task critical paths.
	TransferTime time.Duration
	// ActiveEnergy and TotalEnergy are the energy figures (J).
	ActiveEnergy energy.Joules
	TotalEnergy  energy.Joules
	// BusyCoreSeconds integrates core occupancy.
	BusyCoreSeconds float64
	// Utilization is BusyCoreSeconds over pool capacity × makespan.
	Utilization float64
	// PeakNodes is the largest pool size observed (elasticity).
	PeakNodes int
	// NodeSeconds integrates pool size over time (cost proxy for E11).
	NodeSeconds float64
	// DepEdges counts dependency edges by kind (RAW only unless
	// DisableRenaming is set).
	DepEdges deps.Stats
}

// Sim is one simulation instance. Build with New, then Run once. The
// embedded driver supplies the engine, checkpointing and the fault
// surface (faults.Injector) shared with the live runtime.
type Sim struct {
	*driver.Driver
	cfg   Config
	clock *simclock.Clock
	reg   *transfer.Registry
	acct  *energy.Accountant
	proc  *deps.Processor
	smp   *obsv.Sampler

	result        Result
	releases      []release
	tenantOf      map[int64]string
	admitStart    []int64
	restored      map[int64]bool
	nodeAdded     map[string]time.Duration
	remaining     int
	schedDeferred bool
	halted        bool
	err           error

	// ticks counts the housekeeping events armed through tick and not yet
	// fired; scaling reports whether the scaler can still act (see tick).
	ticks   int
	scaling bool

	// Restore-time re-staging traffic (persist tier → live node); added
	// to the engine's transfer books when the run closes, so an eager
	// re-stage is not accounted as free relative to a demand fetch.
	restageBytes int64
	restageTime  time.Duration
}

// release delays a task's visibility to the scheduler.
type release struct {
	id int64
	at time.Duration
}

// Errors reported by Run.
var (
	ErrStuck       = errors.New("infra: tasks cannot be scheduled (unsatisfiable constraints or empty pool)")
	ErrConfig      = errors.New("infra: invalid config")
	ErrDuplicateID = errors.New("infra: duplicate task ID")
	// ErrHalted reports a run stopped by Config.HaltAt — the simulated
	// process death of the crash-restart experiments. The partial result
	// is still returned; resume from the latest checkpoint snapshot.
	ErrHalted = errors.New("infra: run halted (simulated process death)")
)

// New validates the config and registers the workflow.
func New(cfg Config, specs []TaskSpec) (*Sim, error) {
	if cfg.Pool == nil || cfg.Net == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("%w: pool, net and policy are required", ErrConfig)
	}
	if cfg.ElasticEvery <= 0 {
		cfg.ElasticEvery = 10 * time.Second
	}
	if cfg.Admission != nil && cfg.Admission.Quota().MaxQueued > 0 {
		return nil, fmt.Errorf("%w: the simulator requires an unbounded admission queue (Quota.MaxQueued == 0)", ErrConfig)
	}
	if cfg.Restore != nil && cfg.Restore.Format != checkpoint.Format {
		return nil, fmt.Errorf("%w: snapshot format %d, want %d",
			ErrConfig, cfg.Restore.Format, checkpoint.Format)
	}
	var procOpts []deps.Option
	if cfg.DisableRenaming {
		procOpts = append(procOpts, deps.WithoutRenaming())
	}
	s := &Sim{
		cfg:       cfg,
		clock:     simclock.New(),
		reg:       transfer.NewRegistry(),
		acct:      energy.NewAccountant(),
		proc:      deps.NewProcessor(procOpts...),
		nodeAdded: make(map[string]time.Duration),
		remaining: len(specs),
		scaling:   cfg.Autoscale != nil,
	}
	if cfg.Admission != nil {
		s.tenantOf = make(map[int64]string, len(specs))
	}
	if cfg.Metrics != nil && cfg.SampleEvery > 0 {
		s.smp = obsv.NewSampler(cfg.Metrics)
	}
	// The checkpointer's interval timer is the virtual clock, which does
	// not advance before Run, so the restore below still lands first.
	s.Driver = driver.New(driver.Config{
		Engine: engine.Config{
			Pool:         cfg.Pool,
			Policy:       cfg.Policy,
			Clock:        s.clock,
			Executor:     &simExecutor{s},
			Registry:     s.reg,
			Net:          cfg.Net,
			PersistNode:  cfg.PersistNode,
			Tracer:       cfg.Tracer,
			Steal:        cfg.Steal,
			Availability: cfg.Availability,
			SchedContext: &sched.Context{
				Registry:  s.reg,
				Net:       cfg.Net,
				Predictor: cfg.Predictor,
			},
		},
		Metrics:    cfg.Metrics,
		Checkpoint: cfg.Checkpoint,
		Timer:      ckptTimer{s},
		Autoscale:  cfg.Autoscale,
	})

	// Stage in external data.
	var stageNode string
	if nodes := cfg.Pool.Nodes(); len(nodes) > 0 {
		stageNode = nodes[0].Name()
	}
	for d, size := range cfg.StageIn {
		k := transfer.Key{Data: d, Ver: 0}
		s.reg.SetSize(k, size)
		if nodes, ok := cfg.StageInNodes[d]; ok && len(nodes) > 0 {
			for _, n := range nodes {
				s.reg.AddReplica(k, n)
			}
			continue
		}
		if stageNode != "" {
			s.reg.AddReplica(k, stageNode)
		}
	}

	// Register the whole workflow through the access processor in slice
	// order — one lock acquisition for the full graph.
	batch := make([]deps.TaskAccesses, len(specs))
	seen := make(map[int64]struct{}, len(specs))
	for i, spec := range specs {
		if _, dup := seen[spec.ID]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateID, spec.ID)
		}
		seen[spec.ID] = struct{}{}
		batch[i] = deps.TaskAccesses{Task: deps.TaskID(spec.ID), Accesses: spec.Accesses}
	}
	results := s.proc.RegisterBatch(batch)
	for i, spec := range specs {
		res := results[i]
		et := &engine.Task{
			ID:          spec.ID,
			Class:       spec.Class,
			Constraints: spec.Constraints,
			EstDuration: spec.Duration,
		}
		for _, v := range res.Reads {
			k := transfer.KeyOf(v)
			et.InputKeys = append(et.InputKeys, k)
			et.InputBytes += s.reg.Size(k)
		}
		for _, v := range res.Writes {
			k := transfer.KeyOf(v)
			et.OutputKeys = append(et.OutputKeys, k)
			if size, ok := spec.OutputBytes[v.Data]; ok {
				s.reg.SetSize(k, size)
			}
		}
		// Release delays and admission gating share one synthetic
		// dependency: a released task re-submits through the admission
		// controller, so a tenant over quota stays held past its release
		// instant until a completion frees a slot.
		holds := 0
		if spec.Release > 0 || cfg.Admission != nil {
			holds = 1
			if spec.Release > 0 {
				s.releases = append(s.releases, release{id: spec.ID, at: spec.Release})
			} else {
				s.admitStart = append(s.admitStart, spec.ID)
			}
		}
		if cfg.Admission != nil {
			s.tenantOf[spec.ID] = spec.Tenant
		}
		s.Engine().Add(et, res.Deps, holds)
	}

	for _, n := range cfg.Pool.Nodes() {
		s.nodeAdded[n.Name()] = 0
	}
	if cfg.Restore != nil {
		s.applyRestore(cfg.Restore)
	}
	return s, nil
}

// ckptTimer arms interval checkpoints as housekeeping ticks.
type ckptTimer struct{ s *Sim }

// At implements checkpoint.Timer.
func (t ckptTimer) At(at time.Duration, fn func()) { t.s.tick(at, fn) }

// tick arms fn at virtual instant at as a housekeeping event: one firing
// of a periodic job (interval checkpoint, metrics sample, scaling
// evaluation) that re-arms itself through tick. Housekeeping changes
// nothing a task waits on, so a firing is dropped, ending its job's
// chain, once the run has drained or halted, or when the heap holds
// nothing but housekeeping and no scaler can still act. Re-arming then
// would keep the virtual clock ticking forever and mask the ErrStuck
// that the drained heap reports.
func (s *Sim) tick(at time.Duration, fn func()) {
	s.ticks++
	s.clock.At(at, func() {
		s.ticks--
		if s.remaining == 0 || s.halted || (!s.scaling && s.clock.Pending() == s.ticks) {
			return
		}
		fn()
	})
}

// applyRestore replays a snapshot placement-aware: the data catalog
// re-seeds the location registry with the replicas this incarnation's
// pool actually holds (plus the persist tier), and versions whose every
// recorded compute node has vanished — the pool shrank or changed between
// the incarnations — are re-staged from the persist tier onto the
// best-connected live node ahead of demand, instead of being dropped.
// Then every recorded completion whose outputs all kept at least one
// replica is marked done in the engine — its dependents release exactly
// as a live completion would have released them. Only when no tier holds
// a value is its producer left to re-run, with lineage recovery
// recomputing what it needs.
func (s *Sim) applyRestore(snap *checkpoint.Snapshot) {
	for _, en := range snap.Catalog {
		k := en.Key.Key()
		if en.Size > 0 {
			s.reg.SetSize(k, en.Size)
		}
		live, vanished := 0, 0
		persisted := false
		for _, loc := range en.Locations {
			if _, ok := s.cfg.Pool.Get(loc); ok {
				s.reg.AddReplica(k, loc)
				live++
			} else if loc != "" && loc == s.cfg.PersistNode {
				s.reg.AddReplica(k, loc)
				persisted = true
			} else {
				vanished++
			}
		}
		if live == 0 && vanished > 0 && persisted {
			if tgt := s.restageTarget(k); tgt != "" {
				s.reg.AddReplica(k, tgt)
				s.result.ReplicasRestaged++
				s.restageBytes += s.reg.Size(k)
				s.restageTime += s.cfg.Net.TransferTime(s.cfg.PersistNode, tgt, s.reg.Size(k))
				s.cfg.Tracer.Record(trace.Event{
					Kind: trace.DataRestaged, Node: tgt,
					Info: fmt.Sprintf("data %d v%d from %s", k.Data, k.Ver, s.cfg.PersistNode),
				})
			}
		}
	}
	restored := 0
	for _, rec := range snap.Completed {
		alive := true
		for _, out := range rec.Outputs {
			if len(s.reg.Where(out.Key())) == 0 {
				alive = false
				break
			}
		}
		if !alive {
			continue
		}
		if s.Engine().RestoreCompleted(rec.ID, rec.Epoch) {
			restored++
			s.remaining--
			if s.cfg.Admission != nil {
				// A restored task never runs, so it must never consume a
				// quota slot: admitRelease skips it.
				if s.restored == nil {
					s.restored = make(map[int64]bool)
				}
				s.restored[rec.ID] = true
			}
		}
	}
	s.result.TasksRestored = restored
	s.cfg.Tracer.Record(trace.Event{
		Kind: trace.CheckpointRestored,
		Info: fmt.Sprintf("%d/%d completed tasks (snapshot %d)", restored, len(snap.Completed), snap.Seq),
	})
}

// restageTarget picks the live node a re-staged version lands on: the
// cheapest fetch from the persist tier, in pool order on ties, skipping
// nodes the persist tier cannot currently reach (cut links).
func (s *Sim) restageTarget(k transfer.Key) string {
	size := s.reg.Size(k)
	best := ""
	var bestT time.Duration
	for _, n := range s.cfg.Pool.Nodes() {
		if !s.cfg.Net.Reachable(s.cfg.PersistNode, n.Name()) {
			continue
		}
		if t := s.cfg.Net.TransferTime(s.cfg.PersistNode, n.Name(), size); best == "" || t < bestT {
			best, bestT = n.Name(), t
		}
	}
	return best
}

// simExecutor adapts the simulation to engine.Executor: each placement
// becomes a completion event on the virtual clock, delayed by the modelled
// staging time plus the speed-scaled compute time (stretched by any
// injected slow-node factor).
type simExecutor struct{ s *Sim }

// Launch implements engine.Executor.
func (x *simExecutor) Launch(p engine.Placement) {
	sf := p.Primary().Desc().SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	run := time.Duration(float64(p.Task.EstDuration) / sf)
	if p.SlowFactor > 1 {
		run = time.Duration(float64(run) * p.SlowFactor)
	}
	id, epoch := p.Task.ID, p.Epoch
	x.s.clock.After(p.TransferTime+run, func() { x.s.finish(id, run, epoch) })
}

// finish handles one completion event. Stale events (from a placement
// that a node failure cancelled) are rejected by the engine's epoch check.
func (s *Sim) finish(id int64, ran time.Duration, epoch int) {
	comp, ok := s.Engine().Complete(id, epoch, false)
	if !ok {
		return
	}
	t := comp.Task
	cores := t.Constraints.EffectiveCores()
	for _, n := range comp.Nodes {
		s.acct.AddTask(n.Name(), n.Desc(), cores, ran)
		s.result.BusyCoreSeconds += float64(cores) * ran.Seconds()
		if s.cfg.Predictor != nil {
			// Observe the speed-normalised (reference) duration.
			base := time.Duration(float64(ran) * n.Desc().SpeedFactor)
			s.cfg.Predictor.Observe(t.Class, t.InputBytes, base)
		}
	}
	s.result.TasksCompleted++
	if comp.First {
		s.remaining--
	} else {
		s.result.TasksReExecuted++
	}
	if s.cfg.Admission != nil && comp.First {
		// The first completion returns the tenant's quota slot; promoted
		// queue heads (possibly other tenants') get their holds lifted and
		// join the deferred placement wave below.
		for _, rel := range s.cfg.Admission.Complete(s.tenantOf[id]) {
			if rid, ok := rel.Payload.(int64); ok {
				s.Engine().ReleaseHold(rid)
			}
		}
	}
	if ck := s.Checkpointer(); ck != nil {
		// Snapshot before the deferred placement wave, so an every-N
		// policy captures the same post-completion, pre-placement state
		// on both backends (the checkpoint parity invariant).
		ck.TaskCompleted()
	}
	s.deferSchedule()
}

// admitRelease makes one task visible to the scheduler, asking the
// admission controller first when one is configured. A task the
// controller queues keeps its synthetic hold; finish promotes it later.
func (s *Sim) admitRelease(id int64) {
	if s.restored[id] {
		return // resolved from a snapshot; never ran, never admitted
	}
	if s.cfg.Admission == nil {
		if s.Engine().ReleaseHold(id) {
			s.Engine().Schedule()
		}
		return
	}
	switch s.cfg.Admission.Submit(s.tenantOf[id], id) {
	case autoscale.Admitted:
		if s.Engine().ReleaseHold(id) {
			s.Engine().Schedule()
		}
	case autoscale.Queued:
		s.Engine().RecordAdmission(1, 0)
	case autoscale.Rejected:
		// Unreachable: New rejects bounded admission queues on this
		// backend (a preregistered task has no client to bounce to, and
		// dropping it would wedge the run).
		s.Engine().RecordAdmission(0, 1)
	}
}

// deferSchedule coalesces scheduling: the first completion of a virtual
// instant defers a single placement wave to the end of the instant, so a
// batch of same-time completions is scheduled once instead of once each.
func (s *Sim) deferSchedule() {
	if s.schedDeferred {
		return
	}
	s.schedDeferred = true
	s.clock.Defer(func() {
		s.schedDeferred = false
		s.Engine().Schedule()
	})
}

// Run executes the simulation to completion and returns the result.
func (s *Sim) Run() (Result, error) {
	// Arm fault events on the virtual clock.
	if _, err := faults.Run(s.clock, s, s.cfg.Faults); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	// Arm release events (routed through admission when configured).
	for _, r := range s.releases {
		id := r.id
		s.clock.At(r.at, func() { s.admitRelease(id) })
	}
	// Submit the un-delayed tasks to admission at time zero: an
	// over-quota tenant's work queues here and surfaces only as
	// completions free slots.
	for _, id := range s.admitStart {
		s.admitRelease(id)
	}
	// Arm scaling. A step that holds while the heap has no work left
	// means the scaler cannot act again: nothing it reads can change.
	if s.scaling {
		var scale func()
		scale = func() {
			if s.AutoscaleStep().Kind == autoscale.Held && s.clock.Pending() == s.ticks {
				s.scaling = false
				return
			}
			s.tick(s.clock.Now()+s.cfg.ElasticEvery, scale)
		}
		s.tick(s.cfg.ElasticEvery, scale)
	}

	// Arm the simulated process death.
	if s.cfg.HaltAt > 0 {
		s.clock.At(s.cfg.HaltAt, func() { s.halted = true })
	}

	// Arm metric sampling on the virtual clock.
	if s.smp != nil {
		var sample func()
		sample = func() {
			s.smp.Sample(s.clock.Now())
			s.tick(s.clock.Now()+s.cfg.SampleEvery, sample)
		}
		s.tick(s.cfg.SampleEvery, sample)
	}

	s.Engine().Schedule()
	for s.remaining > 0 && !s.halted {
		if !s.clock.Step() {
			if s.err == nil {
				if parked := s.Engine().ParkedCount(); parked > 0 {
					s.err = fmt.Errorf("%w: %d tasks remain at %v (%d parked on unreachable data — a scripted cut never healed?)",
						ErrStuck, s.remaining, s.clock.Now(), parked)
				} else {
					s.err = fmt.Errorf("%w: %d tasks remain at %v", ErrStuck, s.remaining, s.clock.Now())
				}
			}
			break
		}
		if s.err != nil {
			break
		}
	}
	if s.halted && s.remaining > 0 && s.err == nil {
		s.err = fmt.Errorf("%w: %d tasks unfinished at %v", ErrHalted, s.remaining, s.clock.Now())
	}
	if ck := s.Checkpointer(); s.remaining == 0 && ck != nil {
		ck.Drained()
	}
	// One closing sample at the makespan instant, so every series ends on
	// the run's final state (still deterministic — virtual timestamp).
	s.smp.Sample(s.clock.Now())
	s.result.Makespan = s.clock.Now()
	s.result.DepEdges = s.proc.Stats()
	st := s.Engine().Stats()
	s.result.BytesMoved = st.BytesMoved + s.restageBytes
	s.result.TransferTime = st.TransferTime + s.restageTime
	s.result.TasksDeferred = st.Deferred
	s.result.TasksRanMissing = st.RanMissing

	// Close energy/idle accounting and node-seconds.
	var capCoreSeconds float64
	for name, added := range s.nodeAdded {
		span := s.clock.Now() - added
		if span < 0 {
			span = 0
		}
		if n, ok := s.cfg.Pool.Get(name); ok {
			s.acct.SetSpan(name, n.Desc(), span)
			capCoreSeconds += float64(n.Desc().Cores) * span.Seconds()
			s.result.NodeSeconds += span.Seconds()
		}
	}
	s.result.ActiveEnergy = s.acct.ActiveEnergy()
	s.result.TotalEnergy = s.acct.TotalEnergy()
	if capCoreSeconds > 0 {
		s.result.Utilization = s.result.BusyCoreSeconds / capCoreSeconds
	}
	if s.result.PeakNodes == 0 {
		s.result.PeakNodes = s.cfg.Pool.Len()
	}
	return s.result, s.err
}

// FailNode implements faults.Injector: the driver kills, deregisters and
// resubmits (and traces a rejected crash as ignored); the simulator only
// keeps score.
func (s *Sim) FailNode(name string) (engine.FailReport, error) {
	rep, err := s.Driver.FailNode(name)
	s.result.TasksFailed += len(rep.Killed)
	return rep, err
}

// AutoscaleStep runs one scaling evaluation against the engine's current
// signals and applies the decision, modelling the provisioning delay and
// keeping the node-seconds books. Run arms it on the ElasticEvery
// period; it is exported
// so tests (the sim-vs-live parity suite in particular) can drive
// evaluations at instants they control instead of riding the ticker.
func (s *Sim) AutoscaleStep() autoscale.Action {
	act := s.cfg.Autoscale.Step(s.cfg.Pool, autoscale.Snapshot(s.Engine(), s.cfg.Pool, s.clock.Now()))
	switch act.Kind {
	case autoscale.Reclaimed:
		s.cfg.Tracer.Record(trace.Event{At: s.clock.Now(), Kind: trace.NodeUndrained, Node: act.Node.Name()})
		s.Engine().RevalidateAvailability()
	case autoscale.Grew:
		node := act.Node
		s.nodeAdded[node.Name()] = s.clock.Now()
		if s.cfg.Pool.Len() > s.result.PeakNodes {
			s.result.PeakNodes = s.cfg.Pool.Len()
		}
		s.cfg.Tracer.Record(trace.Event{At: s.clock.Now(), Kind: trace.NodeAdded, Node: node.Name()})
		if act.Delay <= 0 {
			// Instant provisioning: capacity is usable in this very
			// wave, exactly as it is on the live backend — the symmetry
			// the parity suite depends on.
			s.Engine().RevalidateAvailability()
			return act
		}
		// Model the provisioning delay by blocking the whole node.
		hold := resources.Constraints{
			Cores:    node.Desc().Cores,
			MemoryMB: node.Desc().MemoryMB,
			GPUs:     node.Desc().GPUs,
		}
		if err := node.Reserve(hold); err == nil {
			s.clock.After(act.Delay, func() {
				node.Release(hold)
				s.Engine().RevalidateAvailability()
			})
		}
	case autoscale.Removed:
		victim := act.Node
		added := s.nodeAdded[victim.Name()]
		span := s.clock.Now() - added
		s.acct.SetSpan(victim.Name(), victim.Desc(), span)
		s.result.NodeSeconds += span.Seconds()
		delete(s.nodeAdded, victim.Name())
		s.cfg.Tracer.Record(trace.Event{At: s.clock.Now(), Kind: trace.NodeRemoved, Node: victim.Name()})
	}
	return act
}

// Now exposes the simulation clock (useful in tests).
func (s *Sim) Now() time.Duration { return s.clock.Now() }

// Sampler returns the virtual-clock metrics sampler (nil unless
// Config.Metrics and Config.SampleEvery are both set). Read it after Run:
// the sampled series are deterministic, byte-identical run to run.
func (s *Sim) Sampler() *obsv.Sampler { return s.smp }
