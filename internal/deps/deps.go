// Package deps implements the Access Processor of the COMPSs runtime
// ("the AP is the component of the runtime that receives calls from the
// instrumented code and builds a dependency graph", paper Sec. VI-B, Fig. 6).
//
// Tasks declare how they access data (IN, OUT, INOUT, CONCURRENT,
// COMMUTATIVE); the processor derives inter-task dependencies
// automatically. Like COMPSs, it applies *renaming*: every write creates a
// fresh version of the datum, which removes write-after-read and
// write-after-write false dependencies. Renaming can be disabled to measure
// its effect (DESIGN.md ablation 2).
package deps

import (
	"fmt"
	"sort"
	"sync"
)

// DataID identifies a logical datum (a file, an object, a future value).
type DataID int64

// TaskID identifies a task in the dependency graph.
type TaskID int64

// Direction describes how a task accesses a parameter.
type Direction int

// Access directions, mirroring the COMPSs parameter annotations.
const (
	// In declares a read-only access.
	In Direction = iota + 1
	// Out declares a write that fully overwrites the datum.
	Out
	// InOut declares a read-modify-write access.
	InOut
	// Concurrent declares accesses that may run simultaneously (e.g.
	// tasks appending to a shared persistent structure); later
	// non-concurrent accesses wait for all of them.
	Concurrent
	// Commutative declares writes whose order is irrelevant (e.g.
	// reductions); they do not depend on each other, but later accesses
	// depend on all of them.
	Commutative
)

// String returns the annotation name.
func (d Direction) String() string {
	switch d {
	case In:
		return "IN"
	case Out:
		return "OUT"
	case InOut:
		return "INOUT"
	case Concurrent:
		return "CONCURRENT"
	case Commutative:
		return "COMMUTATIVE"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Reads reports whether the direction implies reading the previous value.
func (d Direction) Reads() bool {
	return d == In || d == InOut || d == Concurrent || d == Commutative
}

// Writes reports whether the direction implies producing a new value.
func (d Direction) Writes() bool {
	return d == Out || d == InOut || d == Commutative || d == Concurrent
}

// Access pairs a datum with a direction.
type Access struct {
	Data DataID
	Dir  Direction
}

// Version is a specific immutable version of a datum. Version numbers start
// at 1 for the first write; version 0 denotes the initial (externally
// provided) value.
type Version struct {
	Data DataID
	Ver  int
}

// String formats the version as d<id>v<ver>.
func (v Version) String() string { return fmt.Sprintf("d%dv%d", v.Data, v.Ver) }

// EdgeKind classifies a dependency edge.
type EdgeKind int

// Dependency kinds. With renaming enabled only true (RAW and group) edges
// are produced.
const (
	// RAW is a true read-after-write dependency.
	RAW EdgeKind = iota + 1
	// WAR is a write-after-read false dependency (renaming removes it).
	WAR
	// WAW is a write-after-write false dependency (renaming removes it).
	WAW
	// Group is an edge forced by concurrent/commutative group semantics.
	Group
)

// String returns the edge-kind name.
func (k EdgeKind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	case Group:
		return "GROUP"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Result reports the outcome of registering one task.
type Result struct {
	// Deps lists the tasks this one must wait for (sorted, de-duplicated).
	Deps []TaskID
	// Reads lists the exact data versions consumed.
	Reads []Version
	// Writes lists the data versions produced.
	Writes []Version
}

// Stats counts dependency edges by kind since the processor was created.
type Stats struct {
	RAW, WAR, WAW, Group int
}

// Total returns the total number of edges.
func (s Stats) Total() int { return s.RAW + s.WAR + s.WAW + s.Group }

// dataState tracks the bookkeeping for one datum.
type dataState struct {
	ver         int
	lastWriter  TaskID // NoTask when version 0 is externally provided
	readers     []TaskID
	groupAccess []TaskID // concurrent/commutative accessors of current version
}

// NoTask is the sentinel for "no producing task" (externally provided data).
const NoTask TaskID = -1

// depShards is the stripe count of the processor's datum table. Sixteen
// stripes keep concurrent registrations from unrelated workflow regions
// off each other's locks without bloating the struct.
const depShards = 16

// depShard is one stripe: its slice of the datum table plus its own edge
// counters, so Register never touches a process-global counter word.
type depShard struct {
	mu    sync.Mutex
	data  map[DataID]*dataState
	stats Stats
}

// Processor derives task dependencies from declared accesses. It is safe
// for concurrent use: the datum table is hash-sharded by DataID, a
// registration locks only the stripes its accesses touch (in stripe
// order, so overlapping registrations serialise without deadlock), and
// edge counters are kept per stripe and summed on read — registrations
// over disjoint data proceed fully in parallel.
type Processor struct {
	renaming bool
	shards   [depShards]depShard
}

// shardIndex maps a datum to its stripe.
func shardIndex(d DataID) int {
	h := uint64(d) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % depShards)
}

// Option configures a Processor.
type Option func(*Processor)

// WithoutRenaming disables version renaming, so WAR and WAW edges are
// produced. Exists for the ablation experiment.
func WithoutRenaming() Option {
	return func(p *Processor) { p.renaming = false }
}

// NewProcessor returns an access processor with renaming enabled.
func NewProcessor(opts ...Option) *Processor {
	p := &Processor{renaming: true}
	for i := range p.shards {
		p.shards[i].data = make(map[DataID]*dataState)
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Stats returns edge counts by kind, summed over the stripes.
func (p *Processor) Stats() Stats {
	var total Stats
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total.RAW += s.stats.RAW
		total.WAR += s.stats.WAR
		total.WAW += s.stats.WAW
		total.Group += s.stats.Group
		s.mu.Unlock()
	}
	return total
}

// CurrentVersion returns the newest version of a datum (0 if never written
// and never registered).
func (p *Processor) CurrentVersion(d DataID) Version {
	s := &p.shards[shardIndex(d)]
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.data[d]
	if !ok {
		return Version{Data: d, Ver: 0}
	}
	return Version{Data: d, Ver: st.ver}
}

// lockFor locks the stripes named in mask, in stripe order — the one
// acquisition order every caller shares, so two registrations whose data
// overlap serialise on the shared stripes instead of deadlocking.
func (p *Processor) lockFor(mask *[depShards]bool) {
	for i := range p.shards {
		if mask[i] {
			p.shards[i].mu.Lock()
		}
	}
}

// unlockFor releases the stripes named in mask.
func (p *Processor) unlockFor(mask *[depShards]bool) {
	for i := range p.shards {
		if mask[i] {
			p.shards[i].mu.Unlock()
		}
	}
}

// Register records the accesses of a task and returns its dependencies and
// the exact data versions it reads and writes. Accesses on the same datum
// within one task should be merged by the caller (the most permissive rule
// applies if not: later entries see the state left by earlier ones). Only
// the stripes holding the accessed data are locked.
func (p *Processor) Register(task TaskID, accesses []Access) Result {
	if len(accesses) == 0 {
		return Result{}
	}
	var mask [depShards]bool
	for _, a := range accesses {
		mask[shardIndex(a.Data)] = true
	}
	p.lockFor(&mask)
	defer p.unlockFor(&mask)
	return p.registerLocked(task, accesses)
}

// TaskAccesses pairs a task with its declared accesses, for batch
// registration.
type TaskAccesses struct {
	Task     TaskID
	Accesses []Access
}

// RegisterBatch registers several tasks under a single lock acquisition
// per stripe, in slice order, and returns one Result per task.
// Registering a whole workflow this way costs one lock round-trip instead
// of one per task, which matters when simulations build million-task
// graphs. All stripes are held for the duration, so the batch is atomic
// exactly as it was under the old single mutex.
func (p *Processor) RegisterBatch(batch []TaskAccesses) []Result {
	var all [depShards]bool
	for i := range all {
		all[i] = true
	}
	p.lockFor(&all)
	defer p.unlockFor(&all)
	out := make([]Result, len(batch))
	for i, b := range batch {
		out[i] = p.registerLocked(b.Task, b.Accesses)
	}
	return out
}

// registerLocked is Register with every stripe the accesses touch held.
func (p *Processor) registerLocked(task TaskID, accesses []Access) Result {
	if len(accesses) == 0 {
		return Result{}
	}
	depSet := make(map[TaskID]struct{})
	var res Result

	// stats points at the stripe of the access currently being processed,
	// so each edge is attributed to (and counted under the lock of) the
	// stripe whose datum produced it.
	var stats *Stats
	addDep := func(t TaskID, kind EdgeKind) {
		if t == NoTask || t == task {
			return
		}
		if _, dup := depSet[t]; dup {
			return
		}
		depSet[t] = struct{}{}
		switch kind {
		case RAW:
			stats.RAW++
		case WAR:
			stats.WAR++
		case WAW:
			stats.WAW++
		case Group:
			stats.Group++
		}
	}

	for _, a := range accesses {
		shard := &p.shards[shardIndex(a.Data)]
		stats = &shard.stats
		st, ok := shard.data[a.Data]
		if !ok {
			st = &dataState{lastWriter: NoTask}
			shard.data[a.Data] = st
		}

		switch a.Dir {
		case In:
			addDep(st.lastWriter, RAW)
			for _, g := range st.groupAccess {
				addDep(g, Group)
			}
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			st.readers = append(st.readers, task)

		case Out:
			if !p.renaming {
				addDep(st.lastWriter, WAW)
				for _, r := range st.readers {
					addDep(r, WAR)
				}
			}
			// Group accessors mutate the live object in place, so a
			// superseding write must wait for them even with renaming.
			for _, g := range st.groupAccess {
				addDep(g, Group)
			}
			st.ver++
			st.lastWriter = task
			st.readers = nil
			st.groupAccess = nil
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})

		case InOut:
			addDep(st.lastWriter, RAW)
			for _, g := range st.groupAccess {
				addDep(g, Group)
			}
			if !p.renaming {
				for _, r := range st.readers {
					addDep(r, WAR)
				}
			}
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			st.ver++
			st.lastWriter = task
			st.readers = nil
			st.groupAccess = nil
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})

		case Concurrent, Commutative:
			// Members depend on the preceding writer but not on each
			// other; later accesses depend on all members.
			addDep(st.lastWriter, RAW)
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})
			st.groupAccess = append(st.groupAccess, task)
		}
	}

	res.Deps = make([]TaskID, 0, len(depSet))
	for t := range depSet {
		res.Deps = append(res.Deps, t)
	}
	sort.Slice(res.Deps, func(i, j int) bool { return res.Deps[i] < res.Deps[j] })
	return res
}

// MergeAccesses canonicalises a task's access list: multiple accesses to
// the same datum collapse into the most permissive single access (In+Out ⇒
// InOut; anything + Concurrent/Commutative keeps the group direction only
// if no plain write is present). Order of first occurrence is preserved.
func MergeAccesses(accesses []Access) []Access {
	idx := make(map[DataID]int)
	var out []Access
	for _, a := range accesses {
		i, seen := idx[a.Data]
		if !seen {
			idx[a.Data] = len(out)
			out = append(out, a)
			continue
		}
		out[i].Dir = mergeDir(out[i].Dir, a.Dir)
	}
	return out
}

func mergeDir(a, b Direction) Direction {
	if a == b {
		return a
	}
	// Plain read/write combinations.
	plain := func(d Direction) bool { return d == In || d == Out || d == InOut }
	if plain(a) && plain(b) {
		reads := a.Reads() || b.Reads()
		writes := a == Out || a == InOut || b == Out || b == InOut
		switch {
		case reads && writes:
			return InOut
		case writes:
			return Out
		default:
			return In
		}
	}
	// Mixing a group direction with anything else degrades to the
	// conservative InOut (serialised read-modify-write).
	return InOut
}
