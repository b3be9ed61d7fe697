package infra

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/deps"
	"repro/internal/engine/faults"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// randomSpecs builds a random forward-edged workflow.
func randomSpecs(rng *rand.Rand, n int) []TaskSpec {
	specs := make([]TaskSpec, n)
	var nextData deps.DataID = 1
	outputs := make([]deps.DataID, 0, n)
	for i := 0; i < n; i++ {
		var acc []deps.Access
		// Read up to 2 earlier outputs.
		for r := 0; r < rng.Intn(3) && len(outputs) > 0; r++ {
			acc = append(acc, deps.Access{
				Data: outputs[rng.Intn(len(outputs))], Dir: deps.In,
			})
		}
		out := nextData
		nextData++
		acc = append(acc, deps.Access{Data: out, Dir: deps.Out})
		outputs = append(outputs, out)
		specs[i] = TaskSpec{
			ID:          int64(i),
			Class:       "rnd",
			Duration:    time.Duration(rng.Intn(20)+1) * time.Second,
			Accesses:    acc,
			OutputBytes: map[deps.DataID]int64{out: int64(rng.Intn(100)) * 1e6},
			Constraints: resources.Constraints{
				Cores:    rng.Intn(2) + 1,
				MemoryMB: int64(rng.Intn(4)+1) * 1000,
			},
		}
	}
	return specs
}

// Property: every random workflow completes, with a positive makespan
// bounded by the serial sum, and every policy agrees on the task count.
func TestRandomWorkflowsComplete(t *testing.T) {
	policies := []sched.Policy{sched.FIFO{}, sched.MinLoad{}, sched.Locality{}, sched.EFT{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 5
		specs := randomSpecs(rng, n)
		var serial time.Duration
		for _, s := range specs {
			serial += s.Duration
		}
		for _, p := range policies {
			pool := resources.NewPool()
			for i := 0; i < 3; i++ {
				_ = pool.Add(resources.NewNode(fmt.Sprintf("n%d", i),
					resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}))
			}
			sim, err := New(Config{
				Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1000}), Policy: p,
			}, specs)
			if err != nil {
				return false
			}
			res, err := sim.Run()
			if err != nil {
				return false
			}
			if res.TasksCompleted != n {
				return false
			}
			if res.Makespan <= 0 || res.Makespan > serial {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a persistence tier, a workflow survives the failure of
// any single worker node at any instant, completing all tasks.
func TestFailureAtAnyInstantIsSurvivable(t *testing.T) {
	f := func(seed int64, failAtSec uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 10
		specs := randomSpecs(rng, n)
		pool := resources.NewPool()
		for i := 0; i < 3; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("w%d", i),
				resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}))
		}
		_ = pool.Add(resources.NewNode("vault",
			resources.Description{Cores: 0, MemoryMB: 0, SpeedFactor: 1}))
		victim := fmt.Sprintf("w%d", rng.Intn(3))
		sim, err := New(Config{
			Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1000}),
			Policy:      sched.MinLoad{},
			PersistNode: "vault",
			Faults:      faults.Scenario{{At: time.Duration(failAtSec%300) * time.Second, Kind: faults.Crash, Node: victim}},
		}, specs)
		if err != nil {
			return false
		}
		res, err := sim.Run()
		if err != nil {
			return false
		}
		// All tasks completed despite the node loss; persisted outputs
		// mean completed work is never redone.
		return res.TasksCompleted >= n && res.TasksReExecuted == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling every node's speed never increases the makespan.
func TestFasterNodesNeverHurt(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 5
		specs := randomSpecs(rng, n)
		run := func(speed float64) time.Duration {
			pool := resources.NewPool()
			for i := 0; i < 2; i++ {
				_ = pool.Add(resources.NewNode(fmt.Sprintf("n%d", i),
					resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: speed}))
			}
			sim, err := New(Config{
				Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1e6}), Policy: sched.FIFO{},
			}, specs)
			if err != nil {
				return -1
			}
			res, err := sim.Run()
			if err != nil {
				return -1
			}
			return res.Makespan
		}
		slow := run(1)
		fast := run(2)
		return slow > 0 && fast > 0 && fast <= slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
