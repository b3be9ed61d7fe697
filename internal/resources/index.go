// Placement index — the load-indexed node structure that ends the
// O(pool) placement scan. Placeability depends only on a task's
// constraint *signature* (Constraints.Signature), so the pool keeps one
// capability set per signature ever queried: the member nodes that could
// statically run such tasks, in pool insertion order, plus a min-heap of
// the undrained members ordered by busy-core fraction (ties broken by
// node name, the deterministic order scan- and index-backed picks agree
// on). Membership is maintained incrementally on Pool.Add/Remove and
// Node.Drain/Undrain; load order is maintained on every Reserve/Release
// through a node→index notification, so a MinLoad-style pick is a heap
// walk instead of a full-pool rescan and Fitting/Capable read cached
// capacity instead of taking every node's mutex.
//
// Locking: the index has one mutex and is a leaf — index methods never
// acquire a pool or node lock. Nodes notify their watching indexes while
// holding their own mutex (node.mu → idx.mu), so deliveries are ordered
// and the cache can never run backwards; queries read only the cached
// state and the immutable Description. The lock hierarchy is
// pool.mu → node.mu → idx.mu, acquired strictly left to right.
package resources

import (
	"math/rand"
	"sync"
)

// capState is a node's cached dynamic capacity inside the index: a copy
// of the fields Reserve/Release/Drain mutate, refreshed on every change.
type capState struct {
	freeCores int
	freeMemMB int64
	freeGPUs  int
	drained   bool
}

// fits mirrors Node.fits over the cached capacity.
func (st capState) fits(c Constraints) bool {
	return c.EffectiveCores() <= st.freeCores &&
		c.MemoryMB <= st.freeMemMB &&
		c.GPUs <= st.freeGPUs
}

// rec is the index's record of one node: identity, immutable description,
// cached capacity, load fraction, and the signature sets it belongs to.
type rec struct {
	n    *Node
	name string
	desc Description
	st   capState
	frac float64 // busy-core fraction (the MinLoad metric)
	sets []*sigSet
}

// recLess is the load order shared by the heap and the pick walk:
// ascending busy fraction, ties broken by node name so the winner never
// depends on pool insertion order.
func recLess(a, b *rec) bool {
	if a.frac != b.frac {
		return a.frac < b.frac
	}
	return a.name < b.name
}

func (r *rec) refresh(st capState) {
	r.st = st
	if r.desc.Cores == 0 {
		r.frac = 1
		return
	}
	r.frac = float64(r.desc.Cores-st.freeCores) / float64(r.desc.Cores)
}

// sigEntry is one node's membership in one signature set. pos is the
// entry's slot in the set's load heap, -1 while the node is drained
// (capable but not placeable).
type sigEntry struct {
	r   *rec
	pos int
}

// sigSet is one constraint signature's capability set: every node whose
// description satisfies the signature, in pool insertion order, plus the
// load heap over the undrained members.
type sigSet struct {
	sig     string
	c       Constraints // representative constraints for the signature
	members []*sigEntry // insertion order, drained included
	byName  map[string]*sigEntry
	heap    []*sigEntry // min-heap by (frac, name); undrained members only
	// fitCount is the number of undrained members that currently fit the
	// signature's capacity demand. Every query against this set carries
	// the same demand (equal signatures ⇒ equal Cores/MemoryMB/GPUs), so
	// the count answers "no capacity" in O(1) — the saturated-pool case
	// that would otherwise walk the whole heap to conclude nil.
	fitCount int
}

// entryFits reports whether a state counts toward fitCount.
func (s *sigSet) entryFits(st capState) bool {
	return !st.drained && st.fits(s.c)
}

func (s *sigSet) heapLess(i, j int) bool { return recLess(s.heap[i].r, s.heap[j].r) }

func (s *sigSet) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].pos, s.heap[j].pos = i, j
}

func (s *sigSet) heapPush(e *sigEntry) {
	e.pos = len(s.heap)
	s.heap = append(s.heap, e)
	s.heapUp(e.pos)
}

func (s *sigSet) heapRemove(i int) {
	last := len(s.heap) - 1
	if i != last {
		s.heapSwap(i, last)
	}
	s.heap[last].pos = -1
	s.heap = s.heap[:last]
	if i < last {
		s.heapDown(i)
		s.heapUp(i)
	}
}

func (s *sigSet) heapFix(i int) {
	s.heapDown(i)
	s.heapUp(i)
}

func (s *sigSet) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(i, parent) {
			return
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

func (s *sigSet) heapDown(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && s.heapLess(r, l) {
			m = r
		}
		if !s.heapLess(m, i) {
			return
		}
		s.heapSwap(i, m)
		i = m
	}
}

// minFitting returns the least-loaded undrained member that currently
// fits c, walking the heap top-down and pruning every subtree whose root
// is already no better than the best fitting candidate found — by the
// heap property its descendants cannot improve on it either. The result
// is exactly the (frac, name)-minimum of the fitting set, i.e. what a
// full MinLoad scan with the name tie-break would pick, at a cost that
// is O(log n) when the least-loaded node fits (the common case) and
// never worse than one heap traversal.
func (s *sigSet) minFitting(c Constraints) *rec {
	if s.fitCount == 0 {
		return nil // saturated: answer in O(1), not a fruitless heap walk
	}
	var best *rec
	var walk func(i int)
	walk = func(i int) {
		if i >= len(s.heap) {
			return
		}
		r := s.heap[i].r
		if best != nil && !recLess(r, best) {
			return
		}
		if r.st.fits(c) {
			best = r
			return
		}
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return best
}

// Index is a pool's placement index. Every Pool owns one (created by
// NewPool and kept consistent by Add/Remove and node notifications);
// signature sets are built lazily on first query and maintained
// incrementally from then on.
type Index struct {
	mu    sync.Mutex
	recs  map[string]*rec
	order []*rec // pool insertion order (new sigSets inherit it)
	sigs  map[string]*sigSet
}

func newIndex() *Index {
	return &Index{
		recs: make(map[string]*rec),
		sigs: make(map[string]*sigSet),
	}
}

// addNode installs a node with the given snapshot of its state. Called
// with the node's mutex held (see Node.attachIndex), so no capacity
// change can slip between the snapshot and the installation.
func (x *Index) addNode(n *Node, st capState) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, dup := x.recs[n.name]; dup {
		return
	}
	r := &rec{n: n, name: n.name, desc: n.desc}
	r.refresh(st)
	x.recs[r.name] = r
	x.order = append(x.order, r)
	for _, s := range x.sigs {
		if r.desc.Satisfies(s.c) {
			x.joinLocked(s, r)
		}
	}
}

// removeNode drops a node from every signature set.
func (x *Index) removeNode(name string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	r, ok := x.recs[name]
	if !ok {
		return
	}
	delete(x.recs, name)
	for i, o := range x.order {
		if o == r {
			x.order = append(x.order[:i], x.order[i+1:]...)
			break
		}
	}
	for _, s := range r.sets {
		e := s.byName[name]
		if e.pos >= 0 {
			s.heapRemove(e.pos)
		}
		if s.entryFits(r.st) {
			s.fitCount--
		}
		delete(s.byName, name)
		for i, m := range s.members {
			if m == e {
				s.members = append(s.members[:i], s.members[i+1:]...)
				break
			}
		}
	}
	r.sets = nil
}

// nodeChanged refreshes a node's cached capacity and re-positions it in
// every signature heap it belongs to. Called with the node's mutex held,
// after every Reserve/Release/Drain/Undrain.
func (x *Index) nodeChanged(name string, st capState) {
	x.mu.Lock()
	defer x.mu.Unlock()
	r, ok := x.recs[name]
	if !ok {
		return
	}
	was := r.st
	wasDrained := was.drained
	r.refresh(st)
	for _, s := range r.sets {
		e := s.byName[name]
		if of, nf := s.entryFits(was), s.entryFits(st); of != nf {
			if nf {
				s.fitCount++
			} else {
				s.fitCount--
			}
		}
		switch {
		case st.drained && !wasDrained:
			if e.pos >= 0 {
				s.heapRemove(e.pos)
			}
		case !st.drained && wasDrained:
			if e.pos < 0 {
				s.heapPush(e)
			}
		case e.pos >= 0:
			s.heapFix(e.pos)
		}
	}
}

// joinLocked adds a record to a signature set (membership at the end —
// callers preserve pool insertion order — and the heap unless drained).
func (x *Index) joinLocked(s *sigSet, r *rec) {
	e := &sigEntry{r: r, pos: -1}
	s.members = append(s.members, e)
	s.byName[r.name] = e
	r.sets = append(r.sets, s)
	if !r.st.drained {
		s.heapPush(e)
	}
	if s.entryFits(r.st) {
		s.fitCount++
	}
}

// sigFor returns the signature set for c, building it on first use from
// the per-node records (pool insertion order). sig must equal
// c.Signature(); callers that have it cached (the engine caches one per
// task) pass it in so the hot path does not rebuild the string.
func (x *Index) sigFor(sig string, c Constraints) *sigSet {
	x.mu.Lock()
	defer x.mu.Unlock()
	if s, ok := x.sigs[sig]; ok {
		return s
	}
	s := &sigSet{sig: sig, c: c, byName: make(map[string]*sigEntry)}
	for _, r := range x.order {
		if r.desc.Satisfies(c) {
			x.joinLocked(s, r)
		}
	}
	x.sigs[sig] = s
	return s
}

// SigIndex is the per-signature view handed to index-aware scheduling
// policies (sched.IndexedPolicy): capability membership plus load order
// for one constraint signature. Obtain one with Pool.IndexFor. The view
// stays valid across pool churn — it reads the live index under its
// lock on every call.
type SigIndex struct {
	x *Index
	s *sigSet
}

// IndexFor returns the placement-index view for c's constraint
// signature, building the capability set on first use.
func (p *Pool) IndexFor(c Constraints) SigIndex {
	return p.IndexForSig(c.Signature(), c)
}

// IndexForSig is IndexFor with the signature precomputed (it must equal
// c.Signature()) — the allocation-free lookup for callers that cache the
// signature per task, like the engine's ready buckets.
func (p *Pool) IndexForSig(sig string, c Constraints) SigIndex {
	return SigIndex{x: p.idx, s: p.idx.sigFor(sig, c)}
}

// MinLoadFitting returns the undrained member with the lowest busy-core
// fraction that currently fits c (ties by node name), or nil when no
// member fits — exactly the node a full MinLoad scan would pick.
func (si SigIndex) MinLoadFitting(c Constraints) *Node {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	if r := si.s.minFitting(c); r != nil {
		return r.n
	}
	return nil
}

// FirstFitting returns the first member in pool insertion order that
// currently fits c and is not drained — Fitting(c)[0] without
// materializing the slice — or nil when no member fits.
func (si SigIndex) FirstFitting(c Constraints) *Node {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	if si.s.fitCount == 0 {
		return nil
	}
	for _, e := range si.s.members {
		if !e.r.st.drained && e.r.st.fits(c) {
			return e.r.n
		}
	}
	return nil
}

// PowerOfTwoPick samples two undrained members uniformly through rng and
// returns the less loaded one that fits c ((frac, name) order). When
// neither sample fits it falls back to the exact heap walk, so nil is
// returned only when no member fits at all — sampling never turns a
// placeable task into a capacity failure.
func (si SigIndex) PowerOfTwoPick(c Constraints, rng *rand.Rand) *Node {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	s := si.s
	n := len(s.heap)
	if n == 0 || s.fitCount == 0 {
		return nil
	}
	var a, b *rec
	if n == 1 {
		a = s.heap[0].r
	} else {
		a = s.heap[rng.Intn(n)].r
		b = s.heap[rng.Intn(n)].r
	}
	if a != nil && !a.st.fits(c) {
		a = nil
	}
	if b != nil && !b.st.fits(c) {
		b = nil
	}
	switch {
	case a != nil && (b == nil || b == a || recLess(a, b)):
		return a.n
	case b != nil:
		return b.n
	}
	if r := s.minFitting(c); r != nil {
		return r.n
	}
	return nil
}

// AppendFitting appends the members that currently fit c (undrained,
// enough free capacity) to dst in pool insertion order and returns the
// extended slice — the allocation-free Fitting for hot paths.
func (si SigIndex) AppendFitting(dst []*Node, c Constraints) []*Node {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	if si.s.fitCount == 0 {
		return dst // saturated: the common no-capacity wave costs O(1)
	}
	for _, e := range si.s.members {
		if !e.r.st.drained && e.r.st.fits(c) {
			dst = append(dst, e.r.n)
		}
	}
	return dst
}

// AppendCapable appends every member (drained included — capability
// ignores load and cordons) to dst in pool insertion order.
func (si SigIndex) AppendCapable(dst []*Node) []*Node {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	for _, e := range si.s.members {
		dst = append(dst, e.r.n)
	}
	return dst
}

// Len returns the capability-set size (drained members included).
func (si SigIndex) Len() int {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	return len(si.s.members)
}

// FitCount returns the number of members that currently fit the
// signature's reference constraints (undrained, enough free capacity) —
// the exact saturation counter the index maintains for O(1) no-capacity
// waves, exported as the autoscaler's per-signature supply signal.
func (si SigIndex) FitCount() int {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	return si.s.fitCount
}
