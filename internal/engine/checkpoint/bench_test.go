package checkpoint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/workloads"
)

// benchGWAS is the workload of benchSim: ~2.3k tasks.
func benchGWAS() ([]infra.TaskSpec, map[deps.DataID]int64) {
	g := workloads.DefaultGWAS()
	g.Chromosomes = 23
	g.ImputationsPerChrom = 100
	return workloads.GWAS(g)
}

// benchSim builds and completes a mid-size simulation whose engine state
// a checkpoint capture walks: benchGWAS on 8 nodes, full catalog. ckpt,
// when non-nil, checkpoints the run.
func benchSim(b *testing.B, ckpt *checkpoint.Config) *infra.Sim {
	b.Helper()
	specs, stageIn := benchGWAS()
	pool := resources.NewPool()
	for i := 0; i < 8; i++ {
		_ = pool.Add(resources.NewNode(nodeName(i), resources.MareNostrumNode))
	}
	sim, err := infra.New(infra.Config{
		Pool:       pool,
		Net:        simnet.Continuum(),
		Policy:     sched.MinLoad{},
		StageIn:    stageIn,
		Checkpoint: ckpt,
	}, specs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	return sim
}

func nodeName(i int) string { return "bn" + string(rune('0'+i)) }

// BenchmarkCheckpointSnapshot measures capturing the engine + catalog
// state of a ~2.3k-task run (no disk I/O).
func BenchmarkCheckpointSnapshot(b *testing.B) {
	sim := benchSim(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := sim.CheckpointSnapshot()
		if len(snap.Completed) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkCheckpointSave measures the full snapshot → encode → hash →
// atomic-write path.
func BenchmarkCheckpointSave(b *testing.B) {
	sim := benchSim(b, nil)
	store, err := checkpoint.NewStore(b.TempDir(), checkpoint.Keep(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Save(sim.CheckpointSnapshot()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkCheckpointLatest measures Store.Latest over one delta chain
// captured from benchSim — a base and five deltas — including reading,
// verifying, decoding and merging every file.
func BenchmarkCheckpointLatest(b *testing.B) {
	specs, _ := benchGWAS()
	every := len(specs) / 6
	store, err := checkpoint.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	benchSim(b, &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(every), Delta: true})
	var bases, deltas int
	for _, p := range store.Snapshots() {
		if strings.HasPrefix(filepath.Base(p), "delta-") {
			deltas++
		} else {
			bases++
		}
	}
	if bases != 1 || deltas != 5 {
		b.Fatalf("store holds %d bases and %d deltas, want 1 and 5", bases, deltas)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := store.Latest()
		if err != nil {
			b.Fatal(err)
		}
		if len(snap.Completed) != 6*every {
			b.Fatalf("latest state has %d tasks completed, want %d", len(snap.Completed), 6*every)
		}
	}
}
