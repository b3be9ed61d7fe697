package main

import (
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/workloads/trace/report"
)

// engineLayer accumulates what the traced jobs read from the engine:
// per-task milestones (Timings), counters (Stats) and, through the obsv
// registry the traced jobs attach, placement-wave and decline counters.
// Times are on the backend's clock: wall on the live runtime, virtual in
// the simulator.
type engineLayer struct {
	tasks                int
	depUS, queueUS, exUS []float64
	edges                int
	launches, transfers  int
	waves, launchedReg   float64
	declines             float64
}

// addTimings reads one job's per-task milestones. meta, when set, gives
// each task's trace arrival: a replayed trace registers every task at
// time 0 and holds it until its arrival, so dependency wait starts there.
func (e *engineLayer) addTimings(ts []engine.Timing, meta map[int64]report.TraceMeta) {
	for _, t := range ts {
		if t.Done < 0 {
			continue
		}
		from := t.Submit
		if m, ok := meta[t.ID]; ok && time.Duration(m.SubmitNS) > from {
			from = time.Duration(m.SubmitNS)
		}
		if t.Ready >= from {
			e.depUS = append(e.depUS, float64(t.Ready-from)/1e3)
		}
		if t.Ready >= 0 && t.Start >= t.Ready {
			e.queueUS = append(e.queueUS, float64(t.Start-t.Ready)/1e3)
		}
		if t.Start >= 0 {
			e.exUS = append(e.exUS, float64(t.Done-t.Start)/1e3)
		}
	}
}

func (e *engineLayer) addStats(st engine.Stats) {
	e.launches += st.Launched
	e.transfers += st.Transfers
}

// addRegistry reads the engine instruments of one traced job's registry.
func (e *engineLayer) addRegistry(reg *obsv.Registry) {
	v := registryValues(reg)
	e.waves += v["flowgo_placement_waves_total"]
	e.launchedReg += v["flowgo_tasks_launched_total"]
	e.declines += sumPrefix(v, "flowgo_placement_declines_total")
}

// metrics renders the engine-layer per-layer metrics.
func (e *engineLayer) metrics(out map[string]float64) {
	out["engine.dep_wait_p50_us"] = percentile(e.depUS, 50)
	out["engine.queue_wait_p50_us"] = percentile(e.queueUS, 50)
	out["engine.queue_wait_p99_us"] = percentile(e.queueUS, 99)
	out["engine.exec_p50_us"] = percentile(e.exUS, 50)
	out["deps.edges_per_task"] = perTask(float64(e.edges), e.tasks)
	out["engine.launches_per_task"] = perTask(float64(e.launches), e.tasks)
	out["engine.transfers_per_task"] = perTask(float64(e.transfers), e.tasks)
	if e.waves > 0 {
		out["engine.tasks_per_wave"] = e.launchedReg / e.waves
	}
	out["engine.declines_per_task"] = perTask(e.declines, e.tasks)
}

// registryValues flattens a registry into sample name → value.
func registryValues(reg *obsv.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	reg.Visit(func(sample string, v float64) { out[sample] = v })
	return out
}

// sumPrefix totals every labelled series of one family.
func sumPrefix(v map[string]float64, family string) float64 {
	s := 0.0
	for k, x := range v {
		if k == family || strings.HasPrefix(k, family+"{") {
			s += x
		}
	}
	return s
}
