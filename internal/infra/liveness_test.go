package infra

import (
	"errors"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/engine/checkpoint"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
)

// runWithin runs sim on another goroutine and fails the test when Run
// has not returned after a 10 s wall deadline: a run that cannot finish
// must end in ErrStuck, not spin the virtual clock forever.
func runWithin(t *testing.T, sim *Sim) (Result, error) {
	t.Helper()
	type out struct {
		res Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := sim.Run()
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10s of wall time")
		return Result{}, nil
	}
}

// stuckSpecs is one runnable task plus one no node or tier can ever
// run: it asks for a GPU.
func stuckSpecs() []TaskSpec {
	return []TaskSpec{
		{ID: 1, Duration: time.Minute},
		{ID: 2, Duration: time.Minute, Constraints: resources.Constraints{Cores: 1, GPUs: 1}},
	}
}

func cloudManager(max int) *resources.ElasticManager {
	return resources.NewElasticManager(
		resources.NewSimProvider("cloud", resources.CloudVM, max, 30*time.Second),
		resources.ScalePolicy{MaxNodes: max, CostPerNodeHour: 1},
	)
}

// sampledCkptCfg adds metrics sampling and interval checkpoints: two
// periodic jobs that must not keep each other alive on a stuck run.
func sampledCkptCfg(t *testing.T, cfg Config) Config {
	t.Helper()
	store, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obsv.NewRegistry()
	cfg.SampleEvery = 10 * time.Second
	cfg.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.Interval(time.Minute)}
	return cfg
}

func TestStuckLegacyScalerEnds(t *testing.T) {
	sim, err := New(Config{
		Pool: onePool(1, resources.CloudVM), Net: flatNet(), Policy: sched.FIFO{},
		Autoscale: autoscale.Legacy{Manager: cloudManager(2), TasksPerCore: 2},
	}, stuckSpecs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWithin(t, sim)
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
	if res.TasksCompleted != 1 {
		t.Fatalf("completed %d, want the runnable task", res.TasksCompleted)
	}
}

func TestStuckAutoscalerSampledCheckpointedEnds(t *testing.T) {
	scaler, err := autoscale.New(autoscale.DefaultPolicy(), []autoscale.Variant{
		{Name: "cloud", Desc: resources.CloudVM, Manager: cloudManager(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(sampledCkptCfg(t, Config{
		Pool: onePool(1, resources.CloudVM), Net: flatNet(), Policy: sched.FIFO{},
		Autoscale: scaler,
	}), stuckSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWithin(t, sim); !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
}

func TestStuckSampledCheckpointedEnds(t *testing.T) {
	sim, err := New(sampledCkptCfg(t, Config{
		Pool: onePool(1, resources.CloudVM), Net: flatNet(), Policy: sched.FIFO{},
	}), stuckSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWithin(t, sim); !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
}

// At time zero a fully elastic pool has no node and the heap holds only
// housekeeping, yet the scaler can still act: sampling must keep going
// while it grows the pool, and the series must run to the makespan.
func TestEmptyElasticPoolSamplesToMakespan(t *testing.T) {
	const every = 5 * time.Second
	var specs []TaskSpec
	for i := int64(0); i < 16; i++ {
		specs = append(specs, TaskSpec{ID: i, Duration: 30 * time.Second})
	}
	sim, err := New(Config{
		Pool: resources.NewPool(), Net: flatNet(), Policy: sched.FIFO{},
		Autoscale:    autoscale.Legacy{Manager: cloudManager(4), TasksPerCore: 1},
		ElasticEvery: 10 * time.Second,
		Metrics:      obsv.NewRegistry(),
		SampleEvery:  every,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWithin(t, sim)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 16 || res.PeakNodes == 0 {
		t.Fatalf("completed %d on peak %d nodes, want 16 on a grown pool", res.TasksCompleted, res.PeakNodes)
	}
	var pts []obsv.Point
	for _, ts := range sim.Sampler().Series() {
		if len(ts.Points) > len(pts) {
			pts = ts.Points
		}
	}
	if len(pts) < 2 {
		t.Fatalf("sampled %d points, want a series", len(pts))
	}
	for i, p := range pts[:len(pts)-1] {
		if want := time.Duration(i+1) * every; p.At != want {
			t.Fatalf("point %d at %v, want %v", i, p.At, want)
		}
	}
	if last := pts[len(pts)-1].At; last != res.Makespan || pts[len(pts)-2].At < last-every {
		t.Fatalf("series ends at %v (previous %v), want every %v up to the makespan %v",
			last, pts[len(pts)-2].At, every, res.Makespan)
	}
}
