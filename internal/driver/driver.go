// Package driver is the backend driver the live runtime (internal/core)
// and the simulator (internal/infra) share. It builds the scheduling
// engine from the backend's engine.Config, owns the checkpointer and the
// capture source it drives, takes fault injections and cordons autoscale
// victims. Each backend embeds a *Driver and supplies only what differs:
// the Clock and Executor inside engine.Config, the checkpoint Timer and,
// live, the value-attach and kill-cancel hooks. Restore application,
// admission and autoscale application stay per backend on purpose: a
// shared version of any of them would branch on which backend calls it
// (docs/ARCHITECTURE.md).
package driver

import (
	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Config is the backend wiring of a Driver.
type Config struct {
	// Engine configures the shared engine. The backend sets its own Clock
	// and Executor; the driver fills in Metrics.
	Engine engine.Config
	// Metrics backs the engine's instruments and, unless the checkpoint
	// config carries its own bundle, the checkpointer's. Optional.
	Metrics *obsv.Registry
	// Checkpoint, when set with a Store, arms a checkpointer over the
	// driver's capture source.
	Checkpoint *checkpoint.Config
	// Timer drives interval checkpoints when Checkpoint carries none: the
	// virtual clock on the simulator, a wall timer live.
	Timer checkpoint.Timer
	// Autoscale, when set, cordons its downscale victims through the
	// engine, so the drain lands on the scheduler's books (and the trace)
	// before removal.
	Autoscale autoscale.Scaler
	// Values, when set, attaches backend values to the catalog rows of
	// every capture: the live runtime's encoded task outputs. Nil on the
	// simulator.
	Values func(catalog []checkpoint.CatalogEntry)
	// OnKill, when set, is called for every execution a crash kills: the
	// live runtime cancels its context. Nil on the simulator, which
	// discards the stale completion event instead.
	OnKill func(*engine.Task)
}

// Driver is the part of a backend both runtimes run identically.
type Driver struct {
	eng    *engine.Engine
	ckpt   *checkpoint.Checkpointer
	reg    *transfer.Registry
	tracer *trace.Tracer
	values func([]checkpoint.CatalogEntry)
	onKill func(*engine.Task)
}

// New builds the engine and, when configured, the checkpointer. An
// interval checkpointer arms its Timer here, so a backend whose timer
// runs on its own (the wall clock) must finish writing any state the
// Values hook reads before calling New.
func New(cfg Config) *Driver {
	ec := cfg.Engine
	ec.Metrics = obsv.NewEngineMetrics(cfg.Metrics)
	d := &Driver{
		eng:    engine.New(ec),
		reg:    ec.Registry,
		tracer: ec.Tracer,
		values: cfg.Values,
		onKill: cfg.OnKill,
	}
	if cfg.Autoscale != nil {
		cfg.Autoscale.SetCordon(d.eng.DrainNode)
	}
	if cfg.Checkpoint != nil && cfg.Checkpoint.Store != nil {
		ck := *cfg.Checkpoint
		if ck.Timer == nil {
			ck.Timer = cfg.Timer
		}
		if ck.Tracer == nil {
			ck.Tracer = ec.Tracer
		}
		if ck.Metrics == nil && cfg.Metrics != nil {
			ck.Metrics = obsv.NewCkptMetrics(cfg.Metrics)
		}
		d.ckpt = checkpoint.NewCheckpointer(ck, d)
	}
	return d
}

// Engine returns the shared scheduling engine.
func (d *Driver) Engine() *engine.Engine { return d.eng }

// Checkpointer returns the checkpointer, or nil when checkpointing is
// not configured.
func (d *Driver) Checkpointer() *checkpoint.Checkpointer { return d.ckpt }

// EngineStats exposes the engine's counters (launches, transfer
// accounting), comparable one-to-one across backends.
func (d *Driver) EngineStats() engine.Stats { return d.eng.Stats() }

// Timings exposes the engine's per-task latency milestones
// (submit→ready→start→done on the backend's clock), in registration
// order.
func (d *Driver) Timings() []engine.Timing { return d.eng.Timings() }

// RevalidateAvailability wakes every task parked by the availability
// policy and runs a placement wave. Call it after adding nodes to the
// pool, since a new node may sit on the reachable side of a partition.
// Tasks whose data is still unobtainable re-park. Returns the number of
// tasks woken.
func (d *Driver) RevalidateAvailability() int { return d.eng.RevalidateAvailability() }

// CheckpointSnapshot implements checkpoint.Source: the engine's task
// table plus the location registry as the data catalog, with backend
// values attached. It leaves the dirty sets alone.
func (d *Driver) CheckpointSnapshot() *checkpoint.Snapshot {
	snap := checkpoint.Capture(d.eng, d.reg)
	d.attach(snap.Catalog)
	return snap
}

// CheckpointBase implements checkpoint.Source: a full capture that
// resets the dirty sets, starting (or compacting) a delta chain.
func (d *Driver) CheckpointBase() *checkpoint.Snapshot {
	snap := checkpoint.CaptureBase(d.eng, d.reg)
	d.attach(snap.Catalog)
	return snap
}

// CheckpointDelta implements checkpoint.Source: the changes since the
// last base or delta capture, with values attached to the changed rows
// so a chain reconstruction restores them like a full snapshot would.
func (d *Driver) CheckpointDelta() *checkpoint.Delta {
	delta := checkpoint.CaptureDelta(d.eng, d.reg)
	d.attach(delta.Catalog)
	return delta
}

// CheckpointDirty implements checkpoint.Source.
func (d *Driver) CheckpointDirty() int {
	n := d.eng.DirtyCount()
	if d.reg != nil {
		n += d.reg.DirtyCount()
	}
	return n
}

func (d *Driver) attach(catalog []checkpoint.CatalogEntry) {
	if d.values != nil {
		d.values(catalog)
	}
}

// FailNode implements the faults.Injector crash: the engine removes the
// node, kills its running tasks (their placements' epochs are
// invalidated, so late completions are rejected), hands each to OnKill
// and resubmits them through lineage recovery.
func (d *Driver) FailNode(name string) (engine.FailReport, error) {
	rep, err := d.eng.FailNode(name, d.onKill)
	return rep, d.ignored(trace.Event{Node: name}, err)
}

// SlowNode implements the faults.Injector slow node: placements on it
// carry the factor in Placement.SlowFactor.
func (d *Driver) SlowNode(name string, factor float64) error {
	return d.ignored(trace.Event{Node: name}, d.eng.SlowNode(name, factor))
}

// DrainNode implements the faults.Injector drain: running tasks finish,
// new placements avoid the node.
func (d *Driver) DrainNode(name string) error {
	return d.ignored(trace.Event{Node: name}, d.eng.DrainNode(name))
}

// Partition implements the faults.Injector link cut (requires a network
// model in the engine config).
func (d *Driver) Partition(a, b string) error {
	return d.ignored(trace.Event{Info: a + "~" + b + ": "}, d.eng.Partition(a, b))
}

// Heal restores a link cut by Partition.
func (d *Driver) Heal(a, b string) error {
	return d.ignored(trace.Event{Info: a + "~" + b + ": "}, d.eng.Heal(a, b))
}

// ignored traces a rejected fault as fault_ignored, so a scripted
// scenario leaves the same audit trail on every backend, and passes the
// error through.
func (d *Driver) ignored(ev trace.Event, err error) error {
	if err != nil {
		ev.At, ev.Kind, ev.Info = d.eng.Now(), trace.FaultIgnored, ev.Info+err.Error()
		d.tracer.Record(ev)
	}
	return err
}
