package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/workloads/trace/report"
)

// span is one timed call from the benchmark into a layer of the runtime.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // 0 = no parent
	Step   int    `json:"step"`   // the job-wide step the call belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory. A nil *tracer records
// nothing, so untraced jobs pass nil and pay one pointer test per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // edge-offload ends spans from waiter goroutines
	spans []span
	step  int // steps handed out so far (nextStep)
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextStep returns a fresh step identifier.
func (t *tracer) nextStep() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.step++
	return t.step
}

// begin opens a span and returns its ID (0 when not tracing).
func (t *tracer) begin(name string, parent, step int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Step: step, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total sums the closed spans' durations by name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			sum += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// layerTime is one row of the span table.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// table aggregates spans by name. A span's self time is its duration
// minus its children's; children that overlap each other (concurrent
// remote tasks) can make that negative, so it is clamped at zero.
func (t *tracer) table() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	rows := map[string]*layerTime{}
	var order []string
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		d := time.Duration(s.End - s.Start)
		r.count++
		r.total += d
		if self := d - child[s.ID]; self > 0 {
			r.self += self
		}
	}
	sort.Strings(order)
	out := make([]layerTime, len(order))
	for i, n := range order {
		out[i] = *rows[n]
	}
	return out
}

func (t *tracer) writeTable(w io.Writer) {
	fmt.Fprintf(w, "# spans: %-28s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, r := range t.table() {
		fmt.Fprintf(w, "span   %-36s %8d %12.3f %12.3f\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6)
	}
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile is the interpolated p-th percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return report.Percentile(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// p99Block is the smallest block blockP99 takes a p99 over: ten samples
// lie beyond the p99 of a thousand.
const p99Block = 1000

// blockP99 splits the samples, in the order taken, into blocks of at
// least p99Block and returns the median of the blocks' p99s, so a burst of
// interference in one stretch of the run moves one block, not the result.
// With fewer than two blocks' worth it is the plain p99.
func blockP99(xs []float64) float64 {
	n := len(xs) / p99Block
	if n < 2 {
		return percentile(xs, 99)
	}
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = percentile(xs[i*len(xs)/n:(i+1)*len(xs)/n], 99)
	}
	return median(ps)
}

// perTask divides a total over a task count (0 when there are none).
func perTask(total float64, tasks int) float64 {
	if tasks == 0 {
		return 0
	}
	return total / float64(tasks)
}
