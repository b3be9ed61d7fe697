package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// runTiny runs one workload at test size and returns the parsed result
// line, the whole output and the options it ran with.
func runTiny(t *testing.T, workload string, traced bool) (jsonResult, string, options) {
	t.Helper()
	o := options{workload: workload, seed: 3, seconds: 0.2, traced: traced,
		scratch: t.TempDir(), tiny: true}
	rep, err := measure(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := rep.write(&out, o); err != nil {
		t.Fatalf("%s: write: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, out.String())
	}
	return res, out.String(), o
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	// Per-layer metrics each workload must actually measure (non-zero):
	// the layers it exists to exercise.
	home := map[string][]string{
		"live-iterative": {"step_latency_p99_ms", "core.submit_us_per_task", "core.wait_ms_per_step", "engine.queue_wait_p99_us", "deps.edges_per_task"},
		"edge-offload":   {"step_latency_p99_ms", "core.submit_us_per_task", "agent.requests_per_task", "agent.exec_ms_mean", "agent.http_ms_per_task"},
		"sim-placement":  {"step_latency_p99_ms", "infra.build_s", "infra.run_s", "engine.launches_per_task", "engine.tasks_per_wave", "sim_queue_wait_p99_s"},
		"sim-restart":    {"step_latency_p99_ms", "restore_s", "checkpoint.latest_s", "infra.restore_build_s", "ckpt_disk_mb", "checkpoint.files", "checkpoint.restored_frac"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, out, o := runTiny(t, w.Name, traced)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(spansPath(o)); err != nil {
					t.Errorf("%s: spans were not written: %v", w.Name, err)
				}
				for _, name := range home[w.Name] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: per-layer metric %s = %v, want > 0", w.Name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

func TestWrongReferenceIsRejected(t *testing.T) {
	o := options{seed: 5, scratch: t.TempDir(), tiny: true}

	t.Run("live-iterative", func(t *testing.T) {
		l := &liveIterative{}
		if err := l.setup(o); err != nil {
			t.Fatal(err)
		}
		var good tally
		if err := l.job(&good, nil); err != nil || len(good.problems) != 0 {
			t.Fatalf("correct reference rejected: %v %v", err, good.problems)
		}
		l.ref[len(l.ref)-1][0] += 1e-3
		var bad tally
		if err := l.job(&bad, nil); err != nil {
			t.Fatal(err)
		}
		if len(bad.problems) == 0 || bad.failed == 0 {
			t.Fatal("a wrong reference center passed the check")
		}
	})

	t.Run("edge-offload", func(t *testing.T) {
		e := &edgeOffload{}
		if err := e.setup(o); err != nil {
			t.Fatal(err)
		}
		defer e.close()
		e.want[1] *= 1.000001
		var bad tally
		if err := e.job(&bad, nil); err != nil {
			t.Fatal(err)
		}
		if len(bad.problems) != 1 || bad.failed != 3 {
			t.Fatalf("want exactly the tampered step rejected, got %d problems, %d failed tasks: %v",
				len(bad.problems), bad.failed, bad.problems)
		}
	})

	t.Run("sim-placement", func(t *testing.T) {
		p := &simPlacement{}
		if err := p.setup(o); err != nil {
			t.Fatal(err)
		}
		var first tally
		if err := p.job(&first, nil); err != nil || len(first.problems) != 0 {
			t.Fatalf("first replays: %v %v", err, first.problems)
		}
		p.first[1].makespan++
		var bad tally
		if err := p.job(&bad, nil); err != nil {
			t.Fatal(err)
		}
		if len(bad.problems) != 1 || bad.failed != len(p.specs[1]) {
			t.Fatalf("want exactly the tampered trace rejected, got %v", bad.problems)
		}
	})

	t.Run("sim-restart", func(t *testing.T) {
		r := &simRestart{}
		if err := r.setup(o); err != nil {
			t.Fatal(err)
		}
		defer r.close()
		var good tally
		if err := r.job(&good, nil); err != nil || len(good.problems) != 0 {
			t.Fatalf("correct cycle rejected: %v %v", err, good.problems)
		}
		// Halting after the end means the run never halts: the cycle must
		// notice that it did not crash.
		r.haltAt *= 4
		var bad tally
		if err := r.job(&bad, nil); err != nil {
			t.Fatal(err)
		}
		if len(bad.problems) == 0 || bad.failed != len(r.specs) {
			t.Fatalf("a cycle that never halted passed: %v", bad.problems)
		}
	})
}

func TestCheckersCompare(t *testing.T) {
	want := []float64{1, 2.5, -3}
	if err := checkCenters([]float64{1, 2.5, -3}, want); err != nil {
		t.Errorf("equal centers rejected: %v", err)
	}
	if err := checkCenters([]float64{1, 2.5 + 1e-6, -3}, want); err == nil {
		t.Error("centers off by 1e-6 accepted")
	}
	if err := checkCenters([]float64{1, 2.5}, want); err == nil {
		t.Error("short centers accepted")
	}
	if err := checkAggregate(10.0, 10.0); err != nil {
		t.Errorf("equal aggregate rejected: %v", err)
	}
	if err := checkAggregate(10.001, 10.0); err == nil {
		t.Error("wrong aggregate accepted")
	}
	if err := checkAggregate("10", 10.0); err == nil {
		t.Error("non-number aggregate accepted")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Name: "submit", Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "wait", Parent: 1, Start: 30, End: 90},
		{ID: 4, Name: "open", Parent: 1, Start: 95, End: -1},
	}}
	got := map[string]layerTime{}
	for _, r := range tr.table() {
		got[r.name] = r
	}
	if s := got["step"]; s.total != 100 || s.self != 20 || s.count != 1 {
		t.Errorf("step row = %+v, want total 100 self 20", s)
	}
	if s := got["wait"]; s.total != 60 || s.self != 60 {
		t.Errorf("wait row = %+v, want total 60 self 60", s)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was counted")
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(1)
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "sim-restart", "--trace", "2"},
		{"--workload", "sim-restart", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json at the repository
// root and the catalog in this package in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, catalog %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, catalog %+v", i, b.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, catalog %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: json %+v, catalog %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, catalog %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: json %+v, catalog %+v", i, j, m)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "flowbench" || len(b.Command) < 2 || b.Command[1] != "flowbench/run.sh" {
		t.Errorf("command %v / paths %v do not point at this package", b.Command, b.Paths)
	}
}
