package checkpoint

import (
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/trace"
)

// Timer schedules a callback at an absolute offset from the run's epoch
// — the same shape as faults.Timer, so *simclock.Clock and
// faults.WallTimer both satisfy it and one checkpoint policy runs
// unchanged on virtual and wall time.
type Timer interface {
	At(t time.Duration, fn func())
}

// Source produces snapshots. internal/driver implements it once for
// both backends: the shared engine capture plus the backend's extras
// (the live runtime attaches encoded output values).
type Source interface {
	// CheckpointSnapshot captures the full state without touching the
	// dirty sets (the on-demand and drain saves).
	CheckpointSnapshot() *Snapshot
	// CheckpointBase captures the full state and resets the dirty sets,
	// starting (or compacting) a delta chain.
	CheckpointBase() *Snapshot
	// CheckpointDelta drains the dirty sets into a delta.
	CheckpointDelta() *Delta
	// CheckpointDirty reports how many records changed since the last
	// base or delta capture — zero means a capture would be a no-op.
	CheckpointDirty() int
}

// DefaultCompactEvery is the delta-chain length at which the
// Checkpointer writes a fresh base when Config.CompactEvery is unset:
// long enough that base cost amortises to a small constant per capture,
// short enough that reconstruction replays a bounded chain.
const DefaultCompactEvery = 8

// Config wires a Checkpointer into a backend.
type Config struct {
	// Store receives snapshots. Required.
	Store *Store
	// Policy decides when snapshots are taken automatically.
	Policy Policy
	// Timer schedules ModeInterval policies. Backends default it to
	// their own clock (virtual time on the simulator, a wall timer
	// live); only set it to override that.
	Timer Timer
	// Tracer, when set, records a CheckpointSaved event per snapshot.
	Tracer *trace.Tracer
	// Delta switches automatic saves to incremental mode: a full base
	// first, then deltas carrying only the changes since the previous
	// save, with a fresh base (compaction) every CompactEvery deltas.
	// On-demand Save and the drain save always write full snapshots.
	Delta bool
	// CompactEvery is the number of consecutive deltas after which the
	// next automatic save writes a full base instead (default
	// DefaultCompactEvery).
	CompactEvery int
	// Metrics, when set, records capture wall time, per-delta dirty-set
	// size and save counts. Capture cost is real serialization work, so
	// it is measured on the wall clock even under the simulator — these
	// are the one engine-metric family that is NOT deterministic in sim
	// (the CI determinism smoke runs checkpoint-free). Optional.
	Metrics *obsv.CkptMetrics
}

// Checkpointer drives a Source against a Store under a Policy. Backends
// call TaskCompleted after every completion and Drained when the run
// finishes; interval policies fire from the Timer on their own. It is
// safe for concurrent use — wall timers fire from their own goroutines.
type Checkpointer struct {
	cfg Config
	src Source

	mu          sync.Mutex
	completions int
	saves       int
	deltaSaves  int // saves that were deltas (subset of saves)
	skipped     int // automatic captures skipped because nothing changed
	chainLen    int // deltas since the last base
	haveBase    bool
	lastErr     error
	stopped     bool
}

// NewCheckpointer returns a checkpointer and, for interval policies,
// arms the first timer callback.
func NewCheckpointer(cfg Config, src Source) *Checkpointer {
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.NewCkptMetrics(nil) // inert: nil instruments discard
	}
	c := &Checkpointer{cfg: cfg, src: src}
	if cfg.Policy.Mode == ModeInterval && cfg.Timer != nil && cfg.Policy.Every > 0 {
		c.arm(cfg.Policy.Every)
	}
	return c
}

// arm schedules the next interval snapshot at the absolute offset next,
// re-arming itself after each firing until Stop.
func (c *Checkpointer) arm(next time.Duration) {
	c.cfg.Timer.At(next, func() {
		c.mu.Lock()
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		_ = c.autoSave()
		c.arm(next + c.cfg.Policy.Every)
	})
}

// TaskCompleted notifies the checkpointer of one task completion (the
// ModeEveryN trigger). Backends call it after the engine completion, so
// the snapshot includes the just-finished task.
func (c *Checkpointer) TaskCompleted() {
	if c.cfg.Policy.Mode != ModeEveryN || c.cfg.Policy.N <= 0 {
		return
	}
	c.mu.Lock()
	c.completions++
	due := c.completions%c.cfg.Policy.N == 0
	c.mu.Unlock()
	if due {
		_ = c.autoSave()
	}
}

// Drained notifies the checkpointer that every submitted task has
// finished (the ModeOnDrain trigger).
func (c *Checkpointer) Drained() {
	if c.cfg.Policy.Mode == ModeOnDrain {
		_ = c.Save()
	}
}

// Save captures and persists one full snapshot immediately, regardless
// of policy — the on-demand checkpoint. The capture is side-effect-free
// (dirty sets are left alone), so an explicit Save never perturbs a
// running delta chain: the next delta simply carries a superset of the
// changes, and absolute records make re-application harmless.
func (c *Checkpointer) Save() error {
	start := time.Now()
	snap := c.src.CheckpointSnapshot()
	c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
	return c.commitFull(snap, false)
}

// autoSave is the policy-triggered capture path. It is change-aware:
// the first save writes a base, an idle trigger (no changes since the
// last capture) is skipped outright instead of paying a full graph walk
// for a no-op snapshot, and — in delta mode — the steady state writes
// chained deltas with a compacting base every CompactEvery.
func (c *Checkpointer) autoSave() error {
	c.mu.Lock()
	compact := c.cfg.CompactEvery
	if compact <= 0 {
		compact = DefaultCompactEvery
	}
	kind := "base"
	switch {
	case !c.haveBase:
		// first capture: a chain needs a base beneath it
	case c.src.CheckpointDirty() == 0:
		kind = "skip"
	case c.cfg.Delta && c.chainLen < compact:
		kind = "delta"
	}
	c.mu.Unlock()
	switch kind {
	case "skip":
		c.mu.Lock()
		c.skipped++
		c.mu.Unlock()
		return nil
	case "delta":
		c.cfg.Metrics.DirtyRecords.Observe(float64(c.src.CheckpointDirty()))
		start := time.Now()
		d := c.src.CheckpointDelta()
		c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
		return c.commitDelta(d)
	default:
		start := time.Now()
		snap := c.src.CheckpointBase()
		c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
		return c.commitFull(snap, true)
	}
}

// commitFull persists a full snapshot. base marks a chain-starting
// capture (dirty sets already reset by it); an explicit Save is not one
// and leaves the chain bookkeeping untouched.
func (c *Checkpointer) commitFull(snap *Snapshot, base bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil
	}
	path, err := c.cfg.Store.Save(snap)
	if err != nil {
		c.lastErr = err
		return err
	}
	c.saves++
	c.cfg.Metrics.Saves.Inc()
	if base {
		c.haveBase = true
		c.chainLen = 0
	}
	c.traceSavedLocked(snap.At, path)
	return nil
}

// commitDelta persists one delta, skipping empty ones (an idle interval
// that raced the dirty check).
func (c *Checkpointer) commitDelta(d *Delta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil
	}
	if d.Empty() {
		c.skipped++
		return nil
	}
	path, err := c.cfg.Store.SaveDelta(d)
	if err != nil {
		c.lastErr = err
		return err
	}
	c.saves++
	c.deltaSaves++
	c.cfg.Metrics.Saves.Inc()
	c.cfg.Metrics.DeltaSaves.Inc()
	c.chainLen++
	c.traceSavedLocked(d.At, path)
	return nil
}

func (c *Checkpointer) traceSavedLocked(at time.Duration, path string) {
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Record(trace.Event{
			At: at, Kind: trace.CheckpointSaved, Info: path,
		})
	}
}

// Stop disables further snapshots (armed interval callbacks become
// no-ops). Pending wall timers are not cancelled, only neutered.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
}

// Saves returns how many snapshots have been persisted (full and delta).
func (c *Checkpointer) Saves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves
}

// DeltaSaves returns how many of the persisted saves were deltas.
func (c *Checkpointer) DeltaSaves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deltaSaves
}

// Skipped returns how many automatic captures were skipped because
// nothing changed since the previous one.
func (c *Checkpointer) Skipped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skipped
}

// Err returns the most recent save error, if any.
func (c *Checkpointer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}
