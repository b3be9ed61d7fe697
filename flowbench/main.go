// Command flowbench is the repository benchmark. It runs one named
// workload through the public surfaces of the live runtime (core), the
// compss API with its REST agents, and the simulator (infra), checks the
// workload's outputs, and prints every end-to-end metric with its unit.
// With --trace 1 it instead alternates untraced and traced jobs and
// prints the per-layer metrics, measured from spans the benchmark records
// around its own calls into each layer.
//
// Run it from the root of a checkout through the wrapper, which builds it
// first:
//
//	bash flowbench/run.sh --workload sim-restart --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// human-readable report: the host fingerprint, the seed, every metric,
// and in traced runs the per-layer span table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scratch  string // checkpoint stores (removed afterwards) and span dumps
	tiny     bool   // test-sized inputs
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed region in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	fs.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "scratch"), "scratch directory for checkpoint stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "flowbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.traced = traceFlag == 1
	if _, ok := findWorkload(o.workload); !ok {
		fmt.Fprintf(stderr, "flowbench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		return 2
	}
	if !(o.seconds > 0) {
		fmt.Fprintf(stderr, "flowbench: --seconds must be positive\n")
		return 2
	}
	rep, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "flowbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := rep.write(stdout, o); err != nil {
		fmt.Fprintf(stderr, "flowbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// workload is one benchmark workload. setup generates the inputs and
// starts whatever the jobs share (agents); it may be called again after
// close. job runs one closed-loop job, adding what it measured to the
// tally; tr is nil in untraced jobs. layers turns what the traced jobs
// recorded into per-layer metrics (names from perLayer; absent = 0).
type workload interface {
	setup(o options) error
	job(t *tally, tr *tracer) error
	layers(t *tally, tr *tracer) map[string]float64
	close()
}

func newWorkload(name string) workload {
	switch name {
	case "live-iterative":
		return &liveIterative{}
	case "edge-offload":
		return &edgeOffload{}
	case "sim-placement":
		return &simPlacement{}
	case "sim-restart":
		return &simRestart{}
	}
	return nil
}

// tally accumulates what a set of jobs measured.
type tally struct {
	jobs      int
	tasks     int               // tasks the jobs ran (each graph task once)
	failed    int               // tasks that failed or belong to a failed check
	walls     map[int][]float64 // seconds per run of each input, by input key
	keyTasks  map[int]int       // tasks per run of each input
	stepsMS   []float64         // wall latency of each step
	makespanS []float64         // per job: cold start to first result (live), virtual (sims)
	gcSkip    gcSample          // GC work of measurements outside the counted tasks
	problems  []string          // failed output checks
	extra     map[string][]float64
}

// fail records a failed output check; the job's tasks count as failed.
func (t *tally) fail(tasks int, format string, args ...any) {
	t.failed += tasks
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// add records one sample of a workload-specific quantity.
func (t *tally) add(name string, v float64) {
	if t.extra == nil {
		t.extra = make(map[string][]float64)
	}
	t.extra[name] = append(t.extra[name], v)
}

// med is the median of a recorded quantity (0 when never recorded).
func (t *tally) med(name string) float64 { return median(t.extra[name]) }

// excludeGC keeps the GC work done since g0 out of the gc.* metrics: the
// caller measured something that is not part of the tasks it counts.
func (t *tally) excludeGC(g0 gcSample) {
	t.gcSkip = t.gcSkip.add(readGC().sub(g0))
}

// merge adds another tally's counts and failed checks.
func (t *tally) merge(o *tally) {
	t.jobs += o.jobs
	t.tasks += o.tasks
	t.failed += o.failed
	for _, p := range o.problems {
		if len(t.problems) < 20 {
			t.problems = append(t.problems, p)
		}
	}
}

// done records one run of an input: the whole job, or on sim-placement
// one trace's replay. key names the input; tasks and wall are what the
// run executed and took.
func (t *tally) done(key, tasks int, wall time.Duration) {
	if t.walls == nil {
		t.walls, t.keyTasks = make(map[int][]float64), make(map[int]int)
	}
	t.tasks += tasks
	t.walls[key] = append(t.walls[key], wall.Seconds())
	t.keyTasks[key] = tasks
}

// rate is the tasks completed per second: every input's task count over
// the median wall time of its runs, summed over inputs. Interference
// that stalls a few runs leaves the medians, and so the rate, alone.
func (t *tally) rate() float64 {
	var tasks, secs float64
	for k, ws := range t.walls {
		tasks += float64(t.keyTasks[k])
		secs += median(ws)
	}
	if secs <= 0 {
		return 0
	}
	return tasks / secs
}

// A run sets its workload up at least setupMinReps times and goes on
// until setupMinSeconds of set-up have been timed, up to setupMaxReps
// times; setup_s is the median, so slow starts (page faults, a GC, a
// scheduler hiccup) do not move it. Set-ups of under a millisecond get
// a thousand samples, the simulators' hundred or more.
const (
	setupMinReps    = 15
	setupMaxReps    = 1000
	setupMinSeconds = 3.0
)

// runReport is one run's outcome.
type runReport struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	details   map[string]float64 // workload-specific extras, printed only
	spans     *tracer
	host      hostInfo
}

func measure(o options) (*runReport, error) {
	w := newWorkload(o.workload)
	var setups []float64
	for spent := 0.0; len(setups) < setupMinReps || (spent < setupMinSeconds && len(setups) < setupMaxReps); {
		if len(setups) > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(o); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		s := time.Since(t0).Seconds()
		setups = append(setups, s)
		spent += s
	}
	defer w.close()

	// One untimed warm-up job lets lazy initialisation and caches settle;
	// its output checks still count.
	var warm tally
	if err := w.job(&warm, nil); err != nil {
		return nil, err
	}
	runtime.GC()

	var plain, traced tally
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	g0 := readGC()
	s0, c0 := readSteal()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		// Traced runs alternate untraced and traced jobs, so drift over
		// the run lands on both sides of trace.overhead_frac alike.
		if o.traced && i%2 == 1 {
			if err := w.job(&traced, tr); err != nil {
				return nil, err
			}
		} else if err := w.job(&plain, nil); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) && (!o.traced || traced.jobs > 0) {
			break
		}
	}
	g1 := readGC()
	s1, c1 := readSteal()

	all := tally{}
	all.merge(&warm)
	all.merge(&plain)
	all.merge(&traced)
	rep := &runReport{
		attempted: all.tasks,
		failed:    all.failed,
		problems:  all.problems,
		host:      readHost(),
		spans:     tr,
	}
	rep.correct = len(all.problems) == 0 && all.failed == 0 && all.tasks > 0
	if !rep.correct {
		rep.failed = rep.attempted // a failed check fails the run's tasks
	}
	rep.details = detailsOf(&plain)
	rep.details["steps"] = float64(len(plain.stepsMS))
	rep.details["step_latency_p99_ms"] = blockP99(plain.stepsMS)
	if c1 > c0 {
		// Wall-time metrics are only comparable between runs with little
		// of this: on a shared virtual machine it comes in bursts.
		rep.details["host.steal_frac"] = (s1 - s0) / (c1 - c0)
	}

	if !o.traced {
		rep.metrics = map[string]float64{
			"setup_s":             median(setups),
			"tasks_per_s":         plain.rate(),
			"step_latency_p50_ms": percentile(plain.stepsMS, 50),
			"makespan_s":          median(plain.makespanS),
			"peak_rss_mb":         peakRSSMB(),
		}
		return rep, nil
	}
	rep.metrics = make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		rep.metrics[m.Name] = 0
	}
	rep.metrics["step_latency_p99_ms"] = rep.details["step_latency_p99_ms"]
	for k, v := range w.layers(&traced, tr) {
		if _, ok := rep.metrics[k]; !ok {
			return nil, fmt.Errorf("workload reported unknown per-layer metric %q", k)
		}
		rep.metrics[k] = v
	}
	gc := g1.sub(g0).sub(traced.gcSkip)
	if gc.cpuTotal > 0 {
		rep.metrics["gc.cpu_frac"] = gc.cpuGC / gc.cpuTotal
	}
	if timed := plain.tasks + traced.tasks; timed > 0 {
		rep.metrics["gc.alloc_mb_per_ktask"] = gc.allocBytes / 1e6 / (float64(timed) / 1000)
	}
	rep.metrics["gc.cycles"] = gc.cycles
	if p := plain.rate(); p > 0 {
		rep.metrics["trace.overhead_frac"] = 1 - traced.rate()/p
	}
	return rep, nil
}

// detailsOf collects the workload-specific quantities a tally recorded
// (medians), for the human-readable report.
func detailsOf(t *tally) map[string]float64 {
	out := make(map[string]float64, len(t.extra))
	for k := range t.extra {
		out[k] = t.med(k)
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *runReport) write(w io.Writer, o options) error {
	mode := 0
	defs := endToEnd
	if o.traced {
		mode = 1
		defs = perLayer
	}
	fmt.Fprintf(w, "# flowbench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(w, "# host %s\n", r.host)
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	res := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, m := range defs {
		v := r.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
		if o.traced {
			fmt.Fprintf(w, "layer  %-32s %14.6g %-5s (moves %s on %s)\n", m.Name, v, m.Unit, m.Moves, m.On)
		} else {
			fmt.Fprintf(w, "metric %-32s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	keys := make([]string, 0, len(r.details))
	for k := range r.details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "detail %-32s %14.6g\n", k, r.details[k])
	}
	if r.spans != nil {
		r.spans.writeTable(w)
		path := spansPath(o)
		if err := r.spans.dump(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "# spans written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// spansPath is where a traced run writes its spans, one JSON object per
// line.
func spansPath(o options) string {
	return filepath.Join(o.scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}
