package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Kind: TaskStarted})
	if tr.Events() != nil || tr.Count("") != 0 {
		t.Fatal("nil tracer should discard")
	}
}

func TestRecordAndCount(t *testing.T) {
	tr := New()
	tr.Record(Event{At: time.Second, Kind: TaskStarted, Task: 1})
	tr.Record(Event{At: 2 * time.Second, Kind: TaskCompleted, Task: 1})
	tr.Record(Event{At: 3 * time.Second, Kind: TaskStarted, Task: 2})
	if tr.Count(TaskStarted) != 2 || tr.Count(TaskCompleted) != 1 || tr.Count("") != 3 {
		t.Fatal("counts wrong")
	}
}

func TestExportJSON(t *testing.T) {
	tr := New()
	tr.Record(Event{At: time.Second, Kind: DataTransfer, Node: "n1", Info: "10MB"})
	raw, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Node != "n1" || back[0].Kind != DataTransfer {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Record(Event{Kind: TaskStarted})
			}
		}()
	}
	wg.Wait()
	if tr.Count("") != 800 {
		t.Fatalf("count = %d, want 800", tr.Count(""))
	}
}

func TestProvenanceAncestry(t *testing.T) {
	p := NewProvenance()
	// raw -> curated -> model; raw2 -> curated
	p.RecordProduction("curated", 1, []string{"raw", "raw2"})
	p.RecordProduction("model", 2, []string{"curated"})
	anc := p.Ancestry("model")
	want := []string{"curated", "raw", "raw2"}
	if len(anc) != len(want) {
		t.Fatalf("ancestry = %v, want %v", anc, want)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Fatalf("ancestry = %v, want %v", anc, want)
		}
	}
	if task, ok := p.Producer("model"); !ok || task != 2 {
		t.Fatalf("producer = %d %v", task, ok)
	}
}

func TestProvenanceCyclicInputsTerminate(t *testing.T) {
	p := NewProvenance()
	p.RecordProduction("a", 1, []string{"b"})
	p.RecordProduction("b", 2, []string{"a"})
	anc := p.Ancestry("a")
	if len(anc) != 2 {
		t.Fatalf("cyclic ancestry = %v", anc)
	}
}

func TestProvenanceMeta(t *testing.T) {
	p := NewProvenance()
	key := VersionKey(7, 2)
	if key != "d7v2" {
		t.Fatalf("VersionKey = %q", key)
	}
	p.SetMeta(key, "format", "netcdf")
	if v, ok := p.Meta(key, "format"); !ok || v != "netcdf" {
		t.Fatal("meta lookup failed")
	}
	if _, ok := p.Meta(key, "missing"); ok {
		t.Fatal("missing meta reported present")
	}
}
