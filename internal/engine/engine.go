// Package engine is the backend-agnostic scheduling engine shared by the
// live runtime (internal/core) and the virtual-time simulator
// (internal/infra). The paper's central claim is that one task-based
// runtime — graph construction, dependency-aware scheduling, data
// transfers — serves every tier of the computing continuum (Sec. VI-A);
// this package is that single runtime core. Both backends delegate their
// ready-queue, placement loop, dependency release, recovery resubmission
// and transfer accounting here, parameterised by two small interfaces: a
// Clock (wall time vs internal/simclock) and an Executor (goroutine
// workers vs duration-modelled completion events).
//
// The engine is built for scale: the ready set is sharded into
// per-constraint-signature buckets, so a scheduling wave inspects one
// queue head per signature instead of rescanning every queued task
// (O(placements × signatures) rather than O(ready × nodes)), and a
// completing task releases all of its successors under a single lock
// acquisition.
//
// Buckets are strict FIFOs (per-signature priority order), which makes a
// blocked head park its whole bucket until the next completion wave.
// When the blocking is a policy decision — the head is waiting for a
// busier, faster tier — idle slower nodes would sit unused even though
// entries behind the head would gladly run on them. Work stealing
// (Config.Steal) closes that gap: after the normal wave, the engine
// re-offers entries behind each blocked head, deepest first, through the
// identical placement path, so a stolen task keeps every dependency,
// lineage and fault-recovery invariant of a normally placed one. See
// docs/ARCHITECTURE.md for the full picture.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deps"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Clock reports the current time as an offset from the run's epoch. The
// live runtime passes wall time elapsed since start; the simulator passes
// its virtual clock.
type Clock interface {
	Now() time.Duration
}

// WallClock is the Clock of the live runtime: elapsed real time since
// Epoch.
type WallClock struct {
	Epoch time.Time
}

// Now implements Clock.
func (w WallClock) Now() time.Duration { return time.Since(w.Epoch) }

// Placement describes one launched task: the reserved node group (primary
// first) and the staging cost already accounted by the engine.
type Placement struct {
	// Task is the placed task.
	Task *Task
	// Nodes is the reserved group (≥ 1 entries; index 0 is the primary,
	// chosen by the policy).
	Nodes []*resources.Node
	// Epoch snapshots the task's placement counter; pass it back to
	// Complete so completions cancelled by a failure are ignored.
	Epoch int
	// TransferTime is the modelled input-staging time (zero unless the
	// engine was configured with a Registry and Net).
	TransferTime time.Duration
	// SlowFactor is the duration multiplier of the slowest group member
	// (≥ 1; see Engine.SlowNode). Duration-modelling executors stretch
	// compute time by it.
	SlowFactor float64
}

// Primary returns the policy-chosen node of the group.
func (p Placement) Primary() *resources.Node { return p.Nodes[0] }

// Executor starts execution of placed tasks. The live runtime spawns a
// goroutine per placement; the simulator schedules a completion event on
// its virtual clock. Every launch must eventually be answered by a call
// to Engine.Complete (or be invalidated through KillRunningOn).
type Executor interface {
	// Launch starts p. It is called while the engine's launch batch is
	// being drained (the task-state lock is not held), so it may inspect
	// the engine, but it must not call Schedule or CompleteSchedule
	// synchronously — hand completions back from another goroutine, a
	// clock event, or an outer driver loop instead.
	Launch(p Placement)
}

// State is the lifecycle of a task inside the engine.
type State int

// Task states.
const (
	// Pending tasks wait for dependencies (or a hold release).
	Pending State = iota + 1
	// Ready tasks sit in a signature bucket awaiting placement.
	Ready
	// Running tasks hold node reservations.
	Running
	// Done tasks have completed at least once.
	Done
	// Parked tasks sit in the availability wait set: every replica of at
	// least one input is lost or partitioned away, and Config.Availability
	// chose to hold the task until a heal or a fresh replica wakes it.
	Parked
)

// Task is one schedulable unit. The exported fields are set by the
// backend before Add and read-only afterwards; the engine owns the rest.
type Task struct {
	// ID is the graph-unique task ID.
	ID int64
	// Class names the task type (policy/predictor key, trace label).
	Class string
	// Constraints are the placement requirements.
	Constraints resources.Constraints
	// EstDuration is the declared base duration (0 if unknown).
	EstDuration time.Duration
	// InputKeys are the data versions the task reads.
	InputKeys []transfer.Key
	// InputBytes is the total input size (predictor covariate).
	InputBytes int64
	// OutputKeys are the data versions the task produces; the engine
	// registers them as replicas on the primary node at completion.
	OutputKeys []transfer.Key
	// Payload carries backend-specific state (e.g. the future, the spec).
	Payload any

	sig        string
	prio       float64
	state      State
	waitCount  int
	dependents []int64
	redeps     map[int64]struct{} // recovery waiters (lazily allocated)
	completed  bool               // completed at least once
	ckptDirty  bool               // in the engine's dirty set (delta checkpoints)
	epoch      int                // placement counter
	nodes      []string           // reserved node names while Running
	started    time.Duration
	// Latency milestones on the engine clock, first transition only (a
	// recovery re-run never rewrites them). -1 = not reached, because
	// t=0 is a legitimate virtual timestamp.
	submitAt   time.Duration
	readyAt    time.Duration
	firstStart time.Duration
	doneAt     time.Duration
	availKeys  []transfer.Key // unavailable inputs this task is parked on
	availNeed  string         // availability-recompute hint: the primary must reach this node
}

// StealMode selects the engine's cross-bucket work-stealing behaviour.
//
// A bucket whose head fails to place is parked for the rest of the wave.
// When the failure is capacity (no node fits the signature) nothing
// behind the head can run either — the signatures are identical — and
// stealing has nothing to do. When the failure is a policy decision (the
// head is holding out for a busier, faster tier; see sched.WaitFast),
// entries behind the head may still be acceptable on the nodes the wave
// left idle. Stealing re-offers those entries, deepest (lowest-priority,
// newest) first, so the head keeps its claim on the tier it is waiting
// for and bucket order is preserved for everything that is not stolen.
type StealMode int

// Steal modes.
const (
	// StealOff disables stealing: a blocked bucket waits for the next
	// completion wave.
	StealOff StealMode = iota
	// StealOnIdle re-offers the entries behind every blocked head to the
	// capacity the wave left idle, deepest entry first.
	StealOnIdle
	// StealThreshold steals like StealOnIdle, but only from buckets
	// holding more than StealConfig.Threshold entries behind the blocked
	// head — a backlog signal that avoids paying the scan for shallow
	// queues that the next completion wave would drain anyway.
	StealThreshold
)

// String returns the mode name.
func (m StealMode) String() string {
	switch m {
	case StealOff:
		return "off"
	case StealOnIdle:
		return "on-idle"
	case StealThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("StealMode(%d)", int(m))
	}
}

// StealConfig tunes work stealing (see StealMode).
type StealConfig struct {
	// Mode selects the behaviour; the zero value is StealOff.
	Mode StealMode
	// Threshold is the minimum number of entries behind a blocked head
	// before StealThreshold mode will steal from the bucket.
	Threshold int
}

// Config assembles an engine.
type Config struct {
	// Pool is the node set placements draw from. Required.
	Pool *resources.Pool
	// Policy places ready tasks. Required.
	Policy sched.Policy
	// Clock timestamps trace events and task starts. Required.
	Clock Clock
	// Executor runs placed tasks. Required.
	Executor Executor
	// Registry, when set, receives a replica of every task output on its
	// primary node (the locality information source). Optional.
	Registry *transfer.Registry
	// Net, when set together with Registry, makes the engine stage each
	// placed task's inputs onto the primary node and account the moved
	// bytes and modelled transfer time. Optional.
	Net *simnet.Network
	// PersistNode, when non-empty, receives a replica of every output —
	// the dataClay persistence tier that makes recovery cheap.
	PersistNode string
	// Tracer, when set, receives TaskStarted / TaskCompleted /
	// TaskFailed / DataTransfer / DataPersisted events.
	Tracer *trace.Tracer
	// SchedContext is handed to the policy on every decision. Optional.
	SchedContext *sched.Context
	// Steal enables cross-bucket work stealing (default off).
	Steal StealConfig
	// Availability selects what placement does with a task whose inputs
	// are lost or partitioned away (default AvailRunAnyway; see the
	// Availability type). Effective only when Registry and Net are both
	// set — without the transfer books the engine cannot classify inputs.
	Availability Availability
	// Metrics, when set, receives continuous observability signals:
	// per-signature ready depth, parked count, wave size/duration,
	// decline reasons, steal and availability churn, transfer volume.
	// Durations are observed on the engine Clock, so simulator series are
	// deterministic (and wave durations are 0 — no virtual time passes
	// inside a wave). Leave nil for an inert bundle (metrics off; the hot
	// paths then write to nil instruments, which discard). Optional.
	Metrics *obsv.EngineMetrics
}

// Stats counts engine activity since creation.
type Stats struct {
	// Launched counts task launches (re-executions count again).
	Launched int
	// Steals counts launches that bypassed a blocked bucket head (work
	// stealing; every steal is also counted in Launched).
	Steals int
	// Completed counts live completions.
	Completed int
	// Restored counts tasks marked completed from a checkpoint snapshot
	// instead of executing (RestoreCompleted; never counted in Launched).
	Restored int
	// Reexecuted counts recovery re-runs of already-completed tasks.
	Reexecuted int
	// Transfers counts planned input fetches (replica-miss moves).
	Transfers int
	// BytesMoved totals the payload of those fetches.
	BytesMoved int64
	// TransferTime sums the modelled staging time on task critical paths.
	TransferTime time.Duration
	// RanMissing counts launches that proceeded although at least one
	// input had no reachable replica (Availability == AvailRunAnyway) —
	// the executions the defer/recompute policies exist to eliminate.
	RanMissing int
	// Deferred counts park events: placement attempts diverted into the
	// availability wait set (a task woken optimistically and re-parked
	// counts again).
	Deferred int
	// Woken counts releases from the availability wait set back to the
	// ready queue (heals, fresh replicas, failure sweeps).
	Woken int
	// AvailRecomputes counts producer resubmissions triggered by
	// AvailRecompute placement decisions (every one also shows up in
	// Reexecuted when the producer had completed before).
	AvailRecomputes int
	// AdmitQueued counts submissions the admission controller held back
	// for a freed quota slot; AdmitRejected counts submissions it refused
	// outright (per-tenant queue bound exceeded). The engine never queues
	// or rejects itself — backends record outcomes through
	// RecordAdmission so both counters ride the same consistent snapshot
	// as the scheduling counters.
	AdmitQueued   int
	AdmitRejected int
}

// Completion reports the outcome of a live Complete call.
type Completion struct {
	// Task is the completed task.
	Task *Task
	// Nodes are the group members still in the pool, resolved for the
	// caller's accounting (energy, predictor).
	Nodes []*resources.Node
	// Ran is the clock time since the task's launch.
	Ran time.Duration
	// First reports whether this was the task's first completion (false
	// for recovery re-executions).
	First bool
}

// Engine is the shared scheduling core. All methods are safe for
// concurrent use; scheduling decisions are serialised by an internal
// mutex, like the single-threaded Task Scheduler component of COMPSs.
type Engine struct {
	cfg  Config
	mgr  *transfer.Manager // nil unless Registry and Net are both set
	prio sched.Prioritizer // non-nil when the policy ranks ready tasks
	// idxPol is non-nil when the policy can pick straight off the pool's
	// capability index (sched.IndexedPolicy); placeLocked then skips
	// materializing the fitting slice for unhinted single-node tasks.
	// Every other policy takes the materialized-slice path.
	idxPol sched.IndexedPolicy

	// readyN is the queued-ready count. It is written only under mu but
	// read lock-free by Schedule's empty fast path and ReadyCount, so a
	// completion storm with nothing queued skips the lock entirely.
	readyN atomic.Int64

	mu    sync.Mutex
	tasks map[int64]*Task
	order []int64 // insertion order (deterministic iteration)
	// The ready set is one FIFO per constraint signature: placeability
	// depends only on the signature, so a scheduling wave touches each
	// signature's head instead of rescanning every queued task.
	ready map[string]*bucket
	sigs  []*bucket // sorted by signature (deterministic iteration)
	wave  int       // placement-wave counter (bucket blocking)
	// cand is the live candidate view of the current wave: the unblocked,
	// non-empty buckets the selection loop actually scans. It is rebuilt
	// from sigs once per wave and compacted as buckets drain or block, so
	// a placement inspects live candidates instead of rescanning every
	// signature ever seen; pushReadyLocked re-admits a bucket that refills
	// mid-wave (availability recomputes resubmit into the running wave).
	cand       []*bucket
	waveActive bool
	producer   map[transfer.Key]int64 // which task writes each version
	slow       map[string]float64     // per-node duration multipliers (fault injection)
	// Dirty tracking for delta checkpoints: every task whose snapshot-
	// relevant state (lifecycle state, epoch, completed flag) changed since
	// the last delta capture, in first-change order (dedup lives in the
	// task's ckptDirty flag — a map here would put a hash insert on every
	// completion), plus the tasks added since then in registration order
	// (a delta appends them to the base snapshot's task ordering on
	// reconstruction).
	dirtyIDs []int64
	added    []int64
	// Availability wait set: tasks parked on unavailable data versions
	// (see availability.go), plus the scratch a placement attempt leaves
	// for divertUnavailableLocked.
	waiters      map[transfer.Key]map[int64]struct{} // parked task IDs per missing datum
	parked       map[int64]struct{}                  // all parked task IDs
	availMissing []transfer.Key                      // scratch: last attempt's unavailable inputs
	availPrimary string                              // scratch: last attempt's chosen primary
	pendingWakes []transfer.Key                      // staged replicas with waiters (processed between waves)
	stats        Stats
	view         sched.TaskView // scratch view (guarded by mu; never retained)
	// Scratch candidate buffers for the wave hot path (guarded by mu;
	// never escape a placement attempt — Placement.Nodes is always a
	// fresh allocation).
	fitScratch []*resources.Node
	capScratch []*resources.Node

	launchMu sync.Mutex  // serialises launch batches (not held with mu)
	launch   []Placement // scratch batch (guarded by launchMu)
}

// bucket is one signature's ready FIFO. blocked marks the wave in which
// the head failed to place, parking the whole bucket for that wave; seen
// marks the wave whose candidate view currently holds the bucket, so a
// mid-wave refill re-admits it exactly once. depth mirrors len(q) into
// the per-signature ready-depth gauge; it is resolved once at bucket
// creation (nil when metrics are off) and updated at exactly the sites
// that maintain readyN, so the gauge cannot drift from the queue.
type bucket struct {
	sig     string
	q       []int64
	blocked int
	seen    int
	depth   *obsv.Gauge
}

// New returns an engine over the given configuration. Pool, Policy,
// Clock and Executor are required; New panics if any is missing, since
// that is a programming error in the backend, not a runtime condition.
func New(cfg Config) *Engine {
	if cfg.Pool == nil || cfg.Policy == nil || cfg.Clock == nil || cfg.Executor == nil {
		panic("engine: Pool, Policy, Clock and Executor are required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.NewEngineMetrics(nil) // inert: nil instruments discard
	}
	e := &Engine{
		cfg:      cfg,
		tasks:    make(map[int64]*Task),
		ready:    make(map[string]*bucket),
		producer: make(map[transfer.Key]int64),
	}
	if p, ok := cfg.Policy.(sched.Prioritizer); ok {
		e.prio = p
	}
	if ip, ok := cfg.Policy.(sched.IndexedPolicy); ok {
		e.idxPol = ip
	}
	if cfg.Registry != nil && cfg.Net != nil {
		e.mgr = transfer.NewManager(cfg.Net, cfg.Registry)
	}
	return e
}

// Task returns a registered task by ID.
func (e *Engine) Task(id int64) (*Task, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tasks[id]
	return t, ok
}

// Producer returns the ID of the task that writes the given data version.
func (e *Engine) Producer(k transfer.Key) (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.producer[k]
	return id, ok
}

// Each visits every registered task in registration order, under the
// engine lock: fn must be quick, must not retain the task, and must not
// call back into the engine.
func (e *Engine) Each(fn func(*Task)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range e.order {
		fn(e.tasks[id])
	}
}

// ReadyCount returns the number of queued ready tasks (the elasticity
// managers' pending-load signal). Lock-free: the count is maintained
// atomically alongside the bucket state.
func (e *Engine) ReadyCount() int {
	return int(e.readyN.Load())
}

// markDirtyLocked records that t's snapshot-relevant state changed since
// the last delta capture. Cheap and idempotent; called on every lifecycle
// transition, epoch bump and completion-flag change.
func (e *Engine) markDirtyLocked(t *Task) {
	if t.ckptDirty {
		return
	}
	t.ckptDirty = true
	e.dirtyIDs = append(e.dirtyIDs, t.ID)
}

// Stats returns the activity counters as a mutually consistent snapshot:
// every counter mutation happens under the engine mutex, and the whole
// struct is copied out under one acquisition, so cross-counter
// invariants hold in the returned value even while the engine is mid-run
// (Steals ≤ Launched, Reexecuted ≤ Completed, Woken ≤ Deferred — a
// reader never observes the increment of one side without the other).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// RecordAdmission adds admission-control outcomes to the engine's books.
// The admission layer sits in front of submission (internal/autoscale),
// so the backends report its queue/reject counts here rather than the
// engine observing them itself.
func (e *Engine) RecordAdmission(queued, rejected int) {
	e.mu.Lock()
	e.stats.AdmitQueued += queued
	e.stats.AdmitRejected += rejected
	e.mu.Unlock()
}

// SigLoad is one non-empty ready bucket's demand and supply snapshot:
// how many tasks of the signature are queued, and how many pool nodes
// could currently fit one (Fit, the index's exact saturation counter)
// or are capable at all (Capable, cordons and load ignored). A starved
// signature — Ready > 0, Capable == 0 — is the autoscaler's strongest
// grow signal: queued work no pool node could ever take. Fit == 0 with
// Capable > 0 is mere saturation.
type SigLoad struct {
	Sig         string
	Constraints resources.Constraints
	Ready       int
	Fit         int
	Capable     int
}

// SigLoads returns one entry per non-empty ready bucket, in signature
// order — deterministic for a given engine state. Constraints are taken
// from the bucket's head task (placeability depends only on the
// signature, so any member's constraints are the signature's).
func (e *Engine) SigLoads() []SigLoad {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SigLoad, 0, len(e.sigs))
	for _, b := range e.sigs {
		if len(b.q) == 0 {
			continue
		}
		c := e.tasks[b.q[0]].Constraints
		si := e.cfg.Pool.IndexForSig(b.sig, c)
		out = append(out, SigLoad{
			Sig: b.sig, Constraints: c,
			Ready: len(b.q), Fit: si.FitCount(), Capable: si.Len(),
		})
	}
	return out
}

// Timing is one task's latency milestones on the engine clock. Every
// field after Submit is the FIRST time the transition happened — a
// recovery re-execution never rewrites them — and is -1 when the task
// has not reached that state. Queue wait is Start−Ready; end-to-end
// latency is Done−Submit.
type Timing struct {
	// ID is the task's graph-unique ID; Class its registered type name.
	ID    int64
	Class string
	// Submit is when the task entered the engine (Add/AddBatch).
	Submit time.Duration
	// Ready is when its last dependency (or synthetic hold) cleared.
	Ready time.Duration
	// Start is when it was first placed on a node.
	Start time.Duration
	// Done is when it first completed.
	Done time.Duration
}

// Timings returns the latency milestones of every registered task, in
// registration order. The slice is freshly allocated; call it after the
// run drains (or at any quiescent point) for a consistent view.
func (e *Engine) Timings() []Timing {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Timing, 0, len(e.order))
	for _, id := range e.order {
		t := e.tasks[id]
		out = append(out, Timing{
			ID: t.ID, Class: t.Class,
			Submit: t.submitAt, Ready: t.readyAt,
			Start: t.firstStart, Done: t.doneAt,
		})
	}
	return out
}

// Add registers a task. producers lists the tasks it must wait for (from
// the access processor); producers already completed — or unknown to the
// engine — count as satisfied. holds adds synthetic dependencies cleared
// later through ReleaseHold (delayed-release arrivals). Add does not
// trigger placement — it reports whether the task went straight to the
// ready queue, so the caller knows whether a Schedule is worthwhile.
func (e *Engine) Add(t *Task, producers []deps.TaskID, holds int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addLocked(t, producers, holds)
}

// AddBatch registers several tasks under a single lock acquisition —
// submission-bound workloads pay one round-trip for the whole batch
// instead of one per task. Tasks are registered in slice order, so
// dependencies may point at earlier batch members. It reports whether any
// task went straight to the ready queue (in which case the caller should
// Schedule once).
func (e *Engine) AddBatch(ts []*Task, producers [][]deps.TaskID) bool {
	return e.AddBatchHolds(ts, producers, nil)
}

// AddBatchHolds is AddBatch with per-task synthetic holds: holds[i]
// extra dependencies on ts[i], cleared later through ReleaseHold. A nil
// holds slice means no holds anywhere — admission-gated batch
// submission uses this to keep over-quota tasks invisible to the
// scheduler while the rest of the batch proceeds.
func (e *Engine) AddBatchHolds(ts []*Task, producers [][]deps.TaskID, holds []int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	ready := false
	for i, t := range ts {
		h := 0
		if holds != nil {
			h = holds[i]
		}
		if e.addLocked(t, producers[i], h) {
			ready = true
		}
	}
	return ready
}

func (e *Engine) addLocked(t *Task, producers []deps.TaskID, holds int) bool {
	t.sig = t.Constraints.Signature()
	t.state = Pending
	t.submitAt = e.cfg.Clock.Now()
	t.readyAt, t.firstStart, t.doneAt = -1, -1, -1
	e.added = append(e.added, t.ID)
	e.markDirtyLocked(t)
	for _, d := range producers {
		if p, ok := e.tasks[int64(d)]; ok && !p.completed {
			p.dependents = append(p.dependents, t.ID)
			t.waitCount++
		}
	}
	t.waitCount += holds
	for _, k := range t.OutputKeys {
		e.producer[k] = t.ID
	}
	e.tasks[t.ID] = t
	e.order = append(e.order, t.ID)
	if t.waitCount == 0 {
		t.state = Ready
		e.pushReadyLocked(t)
		return true
	}
	return false
}

// ReleaseHold clears one synthetic dependency of a pending task and
// reports whether the task became ready (in which case the caller should
// Schedule).
func (e *Engine) ReleaseHold(id int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tasks[id]
	if !ok {
		return false
	}
	t.waitCount--
	if t.waitCount == 0 && t.state == Pending {
		t.state = Ready
		e.pushReadyLocked(t)
		return true
	}
	return false
}

// pushReadyLocked inserts a ready task into its signature bucket, keeping
// the bucket ordered by (priority desc, ID asc). Priority is evaluated
// once, at push time (for prioritising policies). The push marks the task
// dirty (a Pending→Ready transition is snapshot-relevant) and, mid-wave,
// re-admits a refilled bucket into the wave's candidate view.
func (e *Engine) pushReadyLocked(t *Task) {
	e.markDirtyLocked(t)
	if t.readyAt < 0 {
		t.readyAt = e.cfg.Clock.Now()
	}
	if e.prio != nil {
		t.prio = e.prio.Priority(e.viewLocked(t), e.cfg.SchedContext)
	}
	b, exists := e.ready[t.sig]
	if !exists {
		b = &bucket{sig: t.sig, depth: e.cfg.Metrics.ReadyDepth(t.sig)}
		e.ready[t.sig] = b
		pos := sort.Search(len(e.sigs), func(i int) bool { return e.sigs[i].sig >= t.sig })
		e.sigs = append(e.sigs, nil)
		copy(e.sigs[pos+1:], e.sigs[pos:])
		e.sigs[pos] = b
	}
	if e.waveActive && b.seen != e.wave && b.blocked != e.wave {
		// A bucket that drained (or never existed) earlier in this wave
		// just refilled — availability recomputes resubmit producers into
		// the running wave. Blocked buckets stay out: nothing unblocks a
		// signature until the next wave.
		b.seen = e.wave
		e.cand = append(e.cand, b)
	}
	// Binary insert; the common case (ascending IDs, equal priority)
	// appends at the end in O(1).
	at := sort.Search(len(b.q), func(i int) bool { return headLess(t, e.tasks[b.q[i]]) })
	b.q = append(b.q, 0)
	copy(b.q[at+1:], b.q[at:])
	b.q[at] = t.ID
	e.readyN.Add(1)
	b.depth.Add(1)
}

// headLess orders bucket heads: multi-node first, then higher priority,
// then lower ID.
func headLess(a, b *Task) bool {
	an, bn := a.Constraints.EffectiveNodes(), b.Constraints.EffectiveNodes()
	if an != bn {
		return an > bn
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.ID < b.ID
}

// viewLocked fills the scratch scheduler-facing summary of a task. The
// returned pointer is only valid until the next call; policies read it
// during the decision and never retain it.
func (e *Engine) viewLocked(t *Task) *sched.TaskView {
	e.view = sched.TaskView{
		ID:          t.ID,
		Class:       t.Class,
		Constraints: t.Constraints,
		EstDuration: t.EstDuration,
		InputKeys:   t.InputKeys,
		InputBytes:  t.InputBytes,
	}
	return &e.view
}

// Schedule runs one placement wave: best queue head first, until every
// signature is blocked or the buckets drain. Executor.Launch is invoked
// after the engine lock is released, in placement order. An empty ready
// set returns without touching either lock — the common case on a
// completion storm whose successors are not yet released, and the reason
// a million-task drain does not serialise on wave setup.
func (e *Engine) Schedule() {
	if e.readyN.Load() == 0 {
		return
	}
	e.launchMu.Lock()
	e.mu.Lock()
	e.launch = e.placeWaveLocked(e.launch[:0])
	e.mu.Unlock()
	for _, p := range e.launch {
		e.cfg.Executor.Launch(p)
	}
	e.launchMu.Unlock()
}

// placeWaveLocked is the placement loop, appending into placed. A head
// that cannot be placed blocks its whole signature for the rest of the
// wave: placeability depends only on the constraint signature, so its
// siblings cannot be placed either — except through a policy decline,
// which is task-specific; the steal phase below revisits those. A wave
// whose placements staged replicas some parked task is waiting for wakes
// those waiters and runs again (fresh wave, blocked flags reset), so
// data made reachable by ordinary staging releases deferred work without
// waiting for a heal.
func (e *Engine) placeWaveLocked(placed []Placement) []Placement {
	if e.readyN.Load() == 0 {
		return placed
	}
	e.waveActive = true
	defer func() { e.waveActive = false }()
	m := e.cfg.Metrics
	for {
		e.wave++
		// Wave shape metrics. Duration is on the engine clock: zero in the
		// simulator (virtual time stands still inside a wave), wall time
		// live. The Now() calls are skipped entirely when metrics are off.
		var waveStart time.Duration
		if m.WaveSeconds != nil {
			waveStart = e.cfg.Clock.Now()
		}
		waveBase := len(placed)
		// Build this wave's candidate view once: every non-empty bucket.
		// The selection loop below scans and compacts this view instead of
		// rescanning every signature ever registered per placement — on a
		// graph that has accumulated thousands of signatures but has a
		// handful live, that is the difference between O(placements ×
		// live) and O(placements × everything).
		e.cand = e.cand[:0]
		for _, b := range e.sigs {
			if len(b.q) > 0 {
				b.seen = e.wave
				e.cand = append(e.cand, b)
			}
		}
		for {
			var bestB *bucket
			var best *Task
			live := e.cand[:0]
			for _, b := range e.cand {
				if b.blocked == e.wave {
					continue // parked for the wave; drops out of the view
				}
				if len(b.q) == 0 {
					b.seen = 0 // drained; a mid-wave refill re-admits it
					continue
				}
				live = append(live, b)
				t := e.tasks[b.q[0]]
				if best == nil || headLess(t, best) {
					bestB, best = b, t
				}
			}
			e.cand = live
			if best == nil {
				break
			}
			p, outcome := e.placeLocked(best)
			switch outcome {
			case placeOK:
				placed = append(placed, p)
				bestB.q = bestB.q[1:]
				e.readyN.Add(-1)
				bestB.depth.Add(-1)
			case placeUnavailable:
				// The head's inputs are unreachable: divert it into the
				// availability wait set (which may resubmit producers into
				// this very wave) and keep placing — unavailability is
				// task-specific, so the bucket is not blocked.
				bestB.q = bestB.q[1:]
				e.readyN.Add(-1)
				bestB.depth.Add(-1)
				m.DeclineUnavailable.Inc()
				e.divertUnavailableLocked(best)
			case placeNoCapacity:
				bestB.blocked = e.wave
				m.DeclineNoCapacity.Inc()
			default:
				bestB.blocked = e.wave
				m.DeclineDeclined.Inc()
			}
		}
		if e.cfg.Steal.Mode != StealOff && e.readyN.Load() > 0 {
			placed = e.stealWaveLocked(placed)
		}
		m.Waves.Inc()
		m.WaveSize.Observe(float64(len(placed) - waveBase))
		if m.WaveSeconds != nil {
			m.WaveSeconds.ObserveDuration(e.cfg.Clock.Now() - waveStart)
		}
		if len(e.pendingWakes) == 0 {
			return placed
		}
		woken := 0
		for _, k := range e.pendingWakes {
			woken += e.wakeKeyWaitersLocked(k)
		}
		e.pendingWakes = e.pendingWakes[:0]
		if woken == 0 {
			return placed
		}
	}
}

// stealWaveLocked is the work-stealing phase of a placement wave: every
// bucket the wave parked is re-scanned from the tail (the deepest,
// lowest-priority entry) towards — but never including — the head, and
// each entry is offered to whatever capacity the wave left idle through
// the ordinary placement path. The head is never stolen: it keeps its
// priority claim on the tier it is waiting for, and everything that is
// not stolen keeps its bucket order. A signature-wide capacity failure
// ends the bucket's scan at once — nothing shallower can fit either.
//
// A stolen task is indistinguishable from a normally placed one to the
// rest of the engine: same reservation, staging, epoch and trace
// choreography, so FailNode/Partition recovery applies to it unchanged.
func (e *Engine) stealWaveLocked(placed []Placement) []Placement {
	for _, b := range e.sigs {
		if b.blocked != e.wave || len(b.q) < 2 {
			continue
		}
		if e.cfg.Steal.Mode == StealThreshold && len(b.q)-1 <= e.cfg.Steal.Threshold {
			continue
		}
		for i := len(b.q) - 1; i >= 1; i-- {
			t := e.tasks[b.q[i]]
			e.cfg.Metrics.StealAttempts.Inc()
			p, outcome := e.placeLocked(t)
			if outcome == placeNoCapacity {
				break
			}
			if outcome == placeDeclined || outcome == placeUnavailable {
				// Unavailable entries are left queued rather than parked:
				// diverting would mutate the bucket mid-scan, and the
				// entry is classified properly once it reaches the head.
				continue
			}
			b.q = append(b.q[:i], b.q[i+1:]...)
			e.readyN.Add(-1)
			b.depth.Add(-1)
			e.stats.Steals++
			e.cfg.Metrics.StealSuccesses.Inc()
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Record(trace.Event{
					At: e.cfg.Clock.Now(), Kind: trace.TaskStolen, Task: t.ID,
					Node: p.Primary().Name(), Info: b.sig,
				})
			}
			placed = append(placed, p)
		}
	}
	return placed
}

// placeOutcome distinguishes why a placement attempt failed: capacity
// failures are signature-wide (every sibling of the task fails too),
// policy declines are task-specific (a sibling may still be accepted —
// the distinction work stealing runs on).
type placeOutcome int

const (
	placeOK placeOutcome = iota
	placeNoCapacity
	placeDeclined
	// placeUnavailable reports that the chosen primary cannot obtain at
	// least one input (lost or partitioned) and the availability policy
	// is not run-anyway; the attempt's classification is left in
	// e.availMissing / e.availPrimary for divertUnavailableLocked.
	placeUnavailable
)

// placeLocked tries to start one task now: policy choice, availability
// classification, group reservation, input staging.
func (e *Engine) placeLocked(t *Task) (Placement, placeOutcome) {
	hinted := t.availNeed != "" && e.cfg.Net != nil
	capFail := placeNoCapacity
	if hinted {
		capFail = placeDeclined
	}
	wantNodes := t.Constraints.EffectiveNodes()

	var primary *resources.Node
	var fitting []*resources.Node // nil on the indexed fast path until needed
	if e.idxPol != nil && !hinted && wantNodes == 1 {
		// Indexed fast path: the policy picks straight off the pool's
		// per-signature index — no fitting slice is materialized. The
		// IndexedPolicy contract makes nil mean "nothing fits", which is
		// exactly the signature-wide capacity failure.
		primary = e.idxPol.PickIndexed(e.viewLocked(t), e.cfg.Pool.IndexForSig(t.sig, t.Constraints), e.cfg.SchedContext)
		if primary == nil {
			return Placement{}, placeNoCapacity
		}
	} else {
		fitting = e.cfg.Pool.IndexForSig(t.sig, t.Constraints).AppendFitting(e.fitScratch[:0], t.Constraints)
		e.fitScratch = fitting // keep the (possibly grown) buffer
		if hinted {
			// Availability-recompute hint: this is a producer resubmitted for
			// a consumer stranded behind a cut, so only nodes that can reach
			// the consumer's side produce a useful replica. A capacity
			// failure under the hint filter is task-specific — unhinted
			// siblings may still fit the excluded nodes — so it is reported
			// as a decline, not a signature-wide failure.
			kept := fitting[:0]
			for _, n := range fitting {
				if e.cfg.Net.Reachable(n.Name(), t.availNeed) {
					kept = append(kept, n)
				}
			}
			fitting = kept
		}
		if len(fitting) < wantNodes {
			return Placement{}, capFail
		}
		primary = e.cfg.Policy.Pick(e.viewLocked(t), fitting, e.cfg.SchedContext)
		if primary == nil {
			return Placement{}, placeDeclined
		}
	}

	// Classify inputs against the chosen primary before reserving
	// anything: reachable inputs get a fetch plan; partitioned ones —
	// and lost ones with a registered producer — are handed to the
	// availability policy. A missing key with no producer is external
	// data the run never staged (or lost for good): no policy can bring
	// it back, so it keeps the historical run-anyway semantics and is
	// not counted as an actionable miss. Under run-anyway the launch
	// proceeds regardless — the recovery path covers lost data whose
	// producers are mid-resubmission, and partitioned data is simply
	// (observably) absent.
	var plan transfer.Plan
	if e.mgr != nil {
		plan = e.mgr.PlanFetch(primary.Name(), t.InputKeys)
		if actionable := e.actionableMissesLocked(plan); len(actionable) > 0 && e.cfg.Availability != AvailRunAnyway {
			// The chosen primary cannot be fed, but another fitting node
			// may well be — the replica's own node, or one on the right
			// side of the cut. Re-offer the choice over the feedable
			// subset before giving up on the task for this wave. The
			// indexed fast path defers materializing the fitting slice to
			// exactly this (rare) branch.
			if fitting == nil {
				fitting = e.cfg.Pool.IndexForSig(t.sig, t.Constraints).AppendFitting(e.fitScratch[:0], t.Constraints)
				e.fitScratch = fitting
			}
			if alt, altPlan, ok := e.feedablePickLocked(t, fitting, primary); ok {
				primary, plan = alt, altPlan
			} else if e.feedableCapableLocked(t) {
				// Some node that could ever run the task can be fed — the
				// shortfall is busy capacity (or a policy decline), not
				// the partition. Parking would be a trap: capacity
				// release is not an availability wake source, so leave
				// the task queued for the next completion wave instead.
				return Placement{}, placeDeclined
			} else {
				e.availMissing = append(e.availMissing[:0], actionable...)
				e.availPrimary = primary.Name()
				return Placement{}, placeUnavailable
			}
		}
	}

	group := []*resources.Node{primary}
	for _, n := range fitting {
		if len(group) == wantNodes {
			break
		}
		if n != primary {
			group = append(group, n)
		}
	}
	if len(group) < wantNodes {
		return Placement{}, capFail
	}
	for i, n := range group {
		if err := n.Reserve(t.Constraints); err != nil {
			for _, done := range group[:i] {
				done.Release(t.Constraints)
			}
			return Placement{}, capFail
		}
	}

	// Stage the planned inputs onto the primary node.
	var staging time.Duration
	if e.mgr != nil {
		e.mgr.Apply(plan)
		// A staged copy may be the very replica a parked task waits for
		// (now fetchable from this side of a cut). Wakes are queued and
		// processed between waves: waking mid-steal would mutate the
		// bucket a scan is walking.
		for _, mv := range plan.Moves {
			if _, waited := e.waiters[mv.Key]; waited {
				e.pendingWakes = append(e.pendingWakes, mv.Key)
			}
		}
		staging = plan.Time
		e.stats.Transfers += len(plan.Moves)
		e.stats.BytesMoved += plan.Bytes
		e.stats.TransferTime += plan.Time
		if len(plan.Moves) > 0 {
			e.cfg.Metrics.Transfers.Add(int64(len(plan.Moves)))
			e.cfg.Metrics.TransferBytes.Add(plan.Bytes)
			e.cfg.Metrics.FetchSeconds.ObserveDuration(plan.Time)
		}
		if plan.Bytes > 0 && e.cfg.Tracer != nil {
			e.cfg.Tracer.Record(trace.Event{
				At: e.cfg.Clock.Now(), Kind: trace.DataTransfer, Task: t.ID,
				Node: primary.Name(), Info: fmt.Sprintf("%dB", plan.Bytes),
			})
		}
		if actionable := e.actionableMissesLocked(plan); len(actionable) > 0 {
			e.stats.RanMissing++
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Record(trace.Event{
					At: e.cfg.Clock.Now(), Kind: trace.DataUnavailable, Task: t.ID,
					Node: primary.Name(), Info: fmt.Sprintf("%d inputs missing, run anyway", len(actionable)),
				})
			}
		}
	}

	t.state = Running
	t.started = e.cfg.Clock.Now()
	if t.firstStart < 0 {
		t.firstStart = t.started
	}
	t.epoch++
	e.markDirtyLocked(t)
	t.nodes = make([]string, len(group))
	slow := 1.0
	for i, n := range group {
		t.nodes[i] = n.Name()
		if f := e.slow[n.Name()]; f > slow {
			slow = f // a group runs at its slowest member
		}
	}
	e.stats.Launched++
	e.cfg.Metrics.Launched.Inc()
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{
			At: e.cfg.Clock.Now(), Kind: trace.TaskStarted, Task: t.ID,
			Node: primary.Name(), Info: t.Class,
		})
	}
	return Placement{Task: t, Nodes: group, Epoch: t.epoch, TransferTime: staging, SlowFactor: slow}, placeOK
}

// Complete finishes a running task: reservations are released, outputs
// are registered on the primary node (and the persistence tier), and — in
// one lock acquisition — every successor is released, with the newly
// ready ones pushed into their buckets. Stale completions (epoch mismatch
// after a failure) report ok = false and have no effect. failed marks the
// execution as errored: outputs are not registered and the trace records
// TaskFailed. The caller should Schedule afterwards.
func (e *Engine) Complete(id int64, epoch int, failed bool) (Completion, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.completeLocked(id, epoch, failed)
}

// CompleteSchedule is Complete immediately followed by a placement wave —
// the completion path for backends that do not coalesce waves. With a
// nil onDone both share one lock acquisition. A non-nil onDone runs
// after an accepted completion and before the wave, outside the task
// lock but under the launch lock, so no other goroutine's wave can slip
// in between: a checkpoint captured there sees exactly the
// post-completion, pre-placement state. onDone may read the engine but
// must not call Schedule or CompleteSchedule.
func (e *Engine) CompleteSchedule(id int64, epoch int, failed bool, onDone func()) (Completion, bool) {
	e.launchMu.Lock()
	e.mu.Lock()
	c, ok := e.completeLocked(id, epoch, failed)
	if ok && onDone != nil {
		e.mu.Unlock()
		onDone()
		e.mu.Lock()
	}
	e.launch = e.placeWaveLocked(e.launch[:0])
	e.mu.Unlock()
	for _, p := range e.launch {
		e.cfg.Executor.Launch(p)
	}
	e.launchMu.Unlock()
	return c, ok
}

func (e *Engine) completeLocked(id int64, epoch int, failed bool) (Completion, bool) {
	t, ok := e.tasks[id]
	if !ok || t.state != Running || t.epoch != epoch {
		return Completion{}, false
	}
	c := Completion{Task: t, Ran: e.cfg.Clock.Now() - t.started}
	primary := t.nodes[0]
	c.Nodes = make([]*resources.Node, 0, len(t.nodes))
	for _, name := range t.nodes {
		if n, ok := e.cfg.Pool.Get(name); ok {
			n.Release(t.Constraints)
			c.Nodes = append(c.Nodes, n)
		}
	}
	if !failed && e.cfg.Registry != nil {
		// A completion can race a concurrent FailNode on the live backend:
		// if the primary left the pool after this execution started, its
		// replicas were already dropped and must not be re-registered on
		// the dead node — the output survives only on the persist tier.
		_, primaryAlive := e.cfg.Pool.Get(primary)
		for _, k := range t.OutputKeys {
			if primaryAlive {
				e.cfg.Registry.AddReplica(k, primary)
			}
			if e.cfg.PersistNode != "" && e.cfg.PersistNode != primary {
				e.cfg.Registry.AddReplica(k, e.cfg.PersistNode)
				if e.cfg.Tracer != nil {
					e.cfg.Tracer.Record(trace.Event{
						At: e.cfg.Clock.Now(), Kind: trace.DataPersisted, Task: id, Node: e.cfg.PersistNode,
					})
				}
			}
			// A fresh replica may be exactly what a parked task is waiting
			// for (the availability-recompute hand-off): wake its waiters
			// and let the next wave re-classify.
			e.wakeKeyWaitersLocked(k)
		}
	}
	t.availNeed = "" // a recompute hint is spent once the producer completes
	if e.cfg.Tracer != nil {
		kind := trace.TaskCompleted
		if failed {
			kind = trace.TaskFailed
		}
		e.cfg.Tracer.Record(trace.Event{At: e.cfg.Clock.Now(), Kind: kind, Task: id, Node: primary})
	}
	e.stats.Completed++
	if failed {
		e.cfg.Metrics.Failed.Inc()
	} else {
		e.cfg.Metrics.Completed.Inc()
	}

	c.First = !t.completed
	t.completed = true
	if t.doneAt < 0 {
		t.doneAt = e.cfg.Clock.Now()
	}
	t.state = Done
	t.nodes = nil
	e.markDirtyLocked(t)

	// Batched dependency release: every successor is decremented under
	// this single lock acquisition. The edge list is consumed — releases
	// happen once — so it is dropped to keep long-lived graphs lean.
	if c.First {
		for _, dep := range t.dependents {
			dt := e.tasks[dep]
			dt.waitCount--
			if dt.waitCount == 0 && dt.state == Pending {
				dt.state = Ready
				e.pushReadyLocked(dt)
			}
		}
		t.dependents = nil
	} else {
		e.stats.Reexecuted++
	}
	if e.cfg.Registry == nil {
		// Without a replica registry there is no recovery resubmission,
		// so a done task's access keys are dead weight.
		t.InputKeys = nil
		t.OutputKeys = nil
	}
	// Wake tasks waiting on this re-execution (recovery).
	for dep := range t.redeps {
		dt := e.tasks[dep]
		dt.waitCount--
		if dt.waitCount == 0 && dt.state == Pending {
			dt.state = Ready
			e.pushReadyLocked(dt)
		}
	}
	t.redeps = nil
	return c, true
}

// KillRunningOn invalidates every running task that reserved the named
// node (which the caller has already removed from the pool): reservations
// on surviving group members are released, the pending completion event
// is invalidated through the epoch, and the task returns to Pending with
// no waits — ready for Resubmit. The killed tasks are returned in
// registration order.
func (e *Engine) KillRunningOn(name string) []*Task {
	e.mu.Lock()
	defer e.mu.Unlock()
	var killed []*Task
	for _, id := range e.order {
		t := e.tasks[id]
		if t.state != Running {
			continue
		}
		uses := false
		for _, n := range t.nodes {
			if n == name {
				uses = true
				break
			}
		}
		if !uses {
			continue
		}
		for _, n := range t.nodes {
			if n == name {
				continue
			}
			if node, ok := e.cfg.Pool.Get(n); ok {
				node.Release(t.Constraints)
			}
		}
		t.nodes = nil
		t.state = Pending
		t.waitCount = 0
		t.epoch++ // invalidate the in-flight completion event
		e.markDirtyLocked(t)
		killed = append(killed, t)
	}
	return killed
}

// DropReadyMissingInputs removes from the buckets every ready task that
// has an input version with no replica left but a known producer (data
// lost to a node failure), returning them reset to Pending so the caller
// can Resubmit each. Tasks whose missing inputs have no producer are left
// queued: the data was external and nothing can recompute it.
func (e *Engine) DropReadyMissingInputs() []*Task {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.Registry == nil {
		return nil
	}
	var dropped []*Task
	for _, b := range e.sigs {
		still := b.q[:0]
		for _, id := range b.q {
			t := e.tasks[id]
			if e.missingProducerLocked(t) {
				t.state = Pending
				t.waitCount = 0
				e.readyN.Add(-1)
				b.depth.Add(-1)
				e.markDirtyLocked(t)
				dropped = append(dropped, t)
				continue
			}
			still = append(still, id)
		}
		b.q = still
	}
	return dropped
}

// missingProducerLocked reports whether t reads a version that lost every
// replica and has a registered producer to recompute it.
func (e *Engine) missingProducerLocked(t *Task) bool {
	for _, k := range t.InputKeys {
		if len(e.cfg.Registry.Where(k)) > 0 {
			continue
		}
		if _, ok := e.producer[k]; ok {
			return true
		}
	}
	return false
}

// Resubmit queues a task for (re-)execution, recursively resubmitting the
// producers of any input versions that lost every replica — the recompute-
// lineage recovery path. Tasks that are already queued or running are left
// alone. The caller should Schedule afterwards.
func (e *Engine) Resubmit(id int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resubmitLocked(id)
}

func (e *Engine) resubmitLocked(id int64) {
	t, ok := e.tasks[id]
	if !ok {
		return
	}
	switch t.state {
	case Ready, Running:
		return
	case Pending:
		if t.waitCount > 0 {
			return // already mid-resubmission (or waiting on live deps)
		}
	case Parked:
		// A parked task re-entering the lineage path leaves the
		// availability wait set; its unreachable inputs are re-classified
		// below (lost ones recompute, partitioned ones re-park at
		// placement).
		e.unparkLocked(t)
		t.state = Pending
		t.waitCount = 0
		e.markDirtyLocked(t)
	case Done:
		t.state = Pending
		t.waitCount = 0
		e.markDirtyLocked(t)
	}
	waits := 0
	for _, k := range t.InputKeys {
		if e.cfg.Registry == nil || len(e.cfg.Registry.Where(k)) > 0 {
			continue
		}
		p, ok := e.producer[k]
		if !ok {
			continue // external data lost for good; nothing to recompute
		}
		pt := e.tasks[p]
		if _, dup := pt.redeps[id]; !dup {
			if pt.redeps == nil {
				pt.redeps = make(map[int64]struct{})
			}
			pt.redeps[id] = struct{}{}
			waits++
		}
		e.resubmitLocked(p)
	}
	t.waitCount += waits
	if t.waitCount == 0 {
		t.state = Ready
		e.pushReadyLocked(t)
	}
}
