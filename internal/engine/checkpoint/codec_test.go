package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/workloads"
)

// realFiles runs the conformance GWAS on a two-node simulator with delta
// checkpoints and returns the bytes of the first base and of the largest
// delta it wrote.
func realFiles(tb testing.TB) (base, delta []byte) {
	tb.Helper()
	store, err := checkpoint.NewStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	c := workloads.ConformanceSuite()[0]
	pool := resources.NewPool()
	for _, name := range []string{"cn0", "cn1"} {
		_ = pool.Add(resources.NewNode(name, c.Node)) // names are unique
	}
	sim, err := infra.New(infra.Config{
		Pool:       pool,
		Net:        simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:     sched.FIFO{},
		StageIn:    c.StageIn,
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(3), Delta: true},
	}, c.Specs)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		tb.Fatal(err)
	}
	for _, path := range store.Snapshots() {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		switch {
		case strings.HasPrefix(filepath.Base(path), "delta-"):
			if len(data) > len(delta) {
				delta = data
			}
		case base == nil:
			base = data
		}
	}
	if base == nil || delta == nil {
		tb.Fatalf("run wrote no base or no delta: %v", store.Snapshots())
	}
	return base, delta
}

// allStats returns an engine.Stats whose every field holds a distinct
// non-zero value, set through reflection so a field added later is
// covered without editing this test.
func allStats(t *testing.T) engine.Stats {
	t.Helper()
	var st engine.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i+1) * 1_000_003)
		default:
			t.Fatalf("engine.Stats.%s has kind %s, which this test cannot fill", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// TestCodecRoundTripsEveryField: a snapshot and a delta with every field
// set, every engine.Stats field included, decode to values deeply equal
// to what was encoded. A Stats field the codec forgets fails here rather
// than vanishing from checkpoints.
func TestCodecRoundTripsEveryField(t *testing.T) {
	st := allStats(t)
	catalog := []checkpoint.CatalogEntry{
		{Key: checkpoint.CatalogKey{Data: 1, Ver: 1}, Size: 42, Locations: []string{"n0", "n1"}},
		{
			Key: checkpoint.CatalogKey{Data: 2, Ver: 3}, Size: 7, Locations: []string{"n1"},
			Value: []byte{0, 1, 2, 255}, HasValue: true, // a live-backend row
		},
	}
	snap := &checkpoint.Snapshot{
		Format: checkpoint.Format, Seq: 9, At: 3 * time.Second,
		Completed: []checkpoint.TaskRecord{{ID: 1, Epoch: 2, Outputs: []checkpoint.CatalogKey{{Data: 1, Ver: 1}}}},
		Ready:     []int64{2},
		Running:   []int64{3},
		Pending:   []int64{-4},
		Catalog:   catalog,
		Order:     []int64{1, 2, 3, -4},
		Stats:     st,
	}
	gotSnap, err := checkpoint.DecodeSnapshot(checkpoint.EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSnap, snap) {
		t.Fatalf("snapshot round trip:\n got %+v\nwant %+v", gotSnap, snap)
	}
	delta := &checkpoint.Delta{
		Format: checkpoint.Format, Seq: 11, ParentSeq: 10, At: 4 * time.Second,
		Tasks: []checkpoint.DeltaTask{
			{ID: 5, State: engine.Done, Epoch: 1, Completed: true, Outputs: []checkpoint.CatalogKey{{Data: 2, Ver: 3}}},
			{ID: 6, State: engine.Running, Epoch: 2},
		},
		Added:   []int64{6},
		Catalog: catalog,
		Stats:   st,
	}
	gotDelta, err := checkpoint.DecodeDelta(checkpoint.EncodeDelta(delta))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDelta, delta) {
		t.Fatalf("delta round trip:\n got %+v\nwant %+v", gotDelta, delta)
	}
}

// TestCodecRejectsEveryTruncation: every strict prefix of a real base and
// of a real delta decodes to an error, never to a value or a panic. The
// digest check in front of the decoder is not involved.
func TestCodecRejectsEveryTruncation(t *testing.T) {
	base, delta := realFiles(t)
	if _, err := checkpoint.DecodeSnapshot(base); err != nil {
		t.Fatalf("full base: %v", err)
	}
	if _, err := checkpoint.DecodeDelta(delta); err != nil {
		t.Fatalf("full delta: %v", err)
	}
	for n := 0; n < len(base); n++ {
		if _, err := checkpoint.DecodeSnapshot(base[:n]); err == nil {
			t.Fatalf("base truncated to %d of %d bytes decoded", n, len(base))
		}
	}
	for n := 0; n < len(delta); n++ {
		if _, err := checkpoint.DecodeDelta(delta[:n]); err == nil {
			t.Fatalf("delta truncated to %d of %d bytes decoded", n, len(delta))
		}
	}
}

// TestCodecRejectsMalformed: hostile and non-canonical encodings are
// errors that name the fault.
func TestCodecRejectsMalformed(t *testing.T) {
	// cat concatenates byte strings; zeros(n) is n zero varints.
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	zeros := func(n int) []byte { return make([]byte, n) }
	base, delta := []byte("CKPB\x02"), []byte("CKPD\x02") // magic, format
	empty := cat(base, zeros(3+6+14))                     // Seq, At, names; six sections; stats
	if _, err := checkpoint.DecodeSnapshot(empty); err != nil {
		t.Fatalf("well-formed empty base: %v", err)
	}
	for _, c := range []struct {
		name, want string
		delta      bool
		data       []byte
	}{
		{"empty input", "magic", false, nil},
		{"delta magic", "magic", false, cat(delta, zeros(3+6+14))},
		{"format 1", "format 1", false, cat([]byte("CKPB\x01"), zeros(3+6+14))},
		{"trailing byte", "trailing", false, cat(empty, zeros(1))},
		{"overlong varint", "malformed varint", false, cat(base, []byte{0x80, 0x00}, zeros(2+6+14))},
		{"overflowing varint", "malformed varint", false,
			cat(base, bytes.Repeat([]byte{0xff}, 10), []byte{0x01})},
		{"huge count", "exceeds", false, cat(base, zeros(2), []byte{0xff, 0xff, 0xff, 0xff, 0x0f})},
		{"unused name", "unused", false, cat(base, zeros(2), []byte{1, 1, 'x'}, zeros(6+14))},
		{"duplicate name", "duplicate", false, cat(base, zeros(2), []byte{2, 1, 'x', 1, 'x'}, zeros(6+14))},
		// One catalog row (Data, Ver, Size) on location 1 before 0.
		{"name out of order", "out of order", false,
			cat(base, zeros(2), []byte{2, 1, 'x', 1, 'y'}, zeros(4), []byte{1}, zeros(3), []byte{2, 1, 0}, zeros(2+1+14))},
		// One task: ID 1, State Done, Epoch 1, Completed 2.
		{"boolean 2", "boolean", true,
			cat(delta, zeros(4), []byte{1, 2, byte(2 * engine.Done), 2, 2}, zeros(1+2+14))},
	} {
		var err error
		if c.delta {
			_, err = checkpoint.DecodeDelta(c.data)
		} else {
			_, err = checkpoint.DecodeSnapshot(c.data)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// FuzzLoad fuzzes the decoding half of Store.Load and Store.LoadDelta,
// the part that sees file contents once the digest in the name matches.
// Decoding must never panic, and any input it accepts must re-encode to
// the same bytes. The corpus is a real base and a real delta, plus the
// base with a live-backend value attached.
func FuzzLoad(f *testing.F) {
	base, delta := realFiles(f)
	f.Add(base)
	f.Add(delta)
	snap, err := checkpoint.DecodeSnapshot(base)
	if err != nil {
		f.Fatal(err)
	}
	if len(snap.Catalog) > 0 {
		snap.Catalog[0].Value, snap.Catalog[0].HasValue = []byte("value"), true
		f.Add(checkpoint.EncodeSnapshot(snap))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := checkpoint.DecodeSnapshot(data); err == nil {
			if re := checkpoint.EncodeSnapshot(s); !bytes.Equal(re, data) {
				t.Fatalf("snapshot re-encodes differently:\n in %x\nout %x", data, re)
			}
		}
		if d, err := checkpoint.DecodeDelta(data); err == nil {
			if re := checkpoint.EncodeDelta(d); !bytes.Equal(re, data) {
				t.Fatalf("delta re-encodes differently:\n in %x\nout %x", data, re)
			}
		}
	})
}
