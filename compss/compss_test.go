package compss

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func newC(t *testing.T, opts ...Option) *COMPSs {
	t.Helper()
	c := New(opts...)
	t.Cleanup(c.Shutdown)
	return c
}

func registerInt(t *testing.T, c *COMPSs) {
	t.Helper()
	if err := c.RegisterTask("const", func(_ context.Context, args []any) ([]any, error) {
		return []any{args[0]}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTask("sum2", func(_ context.Context, args []any) ([]any, error) {
		a, aok := args[0].(int)
		b, bok := args[1].(int)
		if !aok || !bok {
			return nil, errors.New("sum2: want ints")
		}
		return []any{a + b}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickstartShape(t *testing.T) {
	c := newC(t)
	registerInt(t, c)
	x := c.NewObject()
	if _, err := c.Call("const", In(1), Write(x)); err != nil {
		t.Fatal(err)
	}
	y := c.NewObject()
	if _, err := c.Call("sum2", Read(x), In(2), Write(y)); err != nil {
		t.Fatal(err)
	}
	got, err := c.WaitOn(y)
	if err != nil || got != 3 {
		t.Fatalf("WaitOn = %v %v, want 3", got, err)
	}
}

func TestNewObjectWithInitialValue(t *testing.T) {
	c := newC(t)
	registerInt(t, c)
	x := c.NewObjectWith(40)
	y := c.NewObject()
	if _, err := c.Call("sum2", Read(x), In(2), Write(y)); err != nil {
		t.Fatal(err)
	}
	got, err := c.WaitOn(y)
	if err != nil || got != 42 {
		t.Fatalf("got %v %v", got, err)
	}
}

func TestFutureWait(t *testing.T) {
	c := newC(t)
	registerInt(t, c)
	x := c.NewObject()
	f, err := c.Call("const", In(9), Write(x))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := f.Wait()
	if err != nil || len(vals) != 1 || vals[0] != 9 {
		t.Fatalf("Wait = %v %v", vals, err)
	}
	if !f.Done() {
		t.Fatal("future not done after Wait")
	}
}

func TestConstraintsLimitParallelism(t *testing.T) {
	c := newC(t, WithNodes(NodeSpec{Name: "n1", Cores: 8, MemoryMB: 1000}))
	var cur, peak int32
	if err := c.RegisterTask("heavy", func(_ context.Context, _ []any) ([]any, error) {
		v := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if v <= p || atomic.CompareAndSwapInt32(&peak, p, v) {
				break
			}
		}
		defer atomic.AddInt32(&cur, -1)
		return nil, nil
	}, Constraints{MemoryMB: 400}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Call("heavy"); err != nil {
			t.Fatal(err)
		}
	}
	c.Barrier()
	if atomic.LoadInt32(&peak) > 2 {
		t.Fatalf("peak = %d, memory allows only 2", peak)
	}
}

func TestMultiNodePool(t *testing.T) {
	c := newC(t, WithNodes(
		NodeSpec{Name: "a", Cores: 2},
		NodeSpec{Name: "b", Cores: 2},
	), WithPolicy("min-load"))
	registerInt(t, c)
	outs := make([]*Object, 20)
	for i := range outs {
		outs[i] = c.NewObject()
		if _, err := c.Call("const", In(i), Write(outs[i])); err != nil {
			t.Fatal(err)
		}
	}
	for i, o := range outs {
		got, err := c.WaitOn(o)
		if err != nil || got != i {
			t.Fatalf("out[%d] = %v %v", i, got, err)
		}
	}
	if c.TasksSubmitted() != 20 {
		t.Fatalf("submitted = %d", c.TasksSubmitted())
	}
}

func TestSoftwareConstraintRouting(t *testing.T) {
	c := newC(t, WithNodes(
		NodeSpec{Name: "plain", Cores: 4},
		NodeSpec{Name: "gpuish", Cores: 4, Software: []string{"cuda"}},
	))
	if err := c.RegisterTask("needsCuda", func(_ context.Context, _ []any) ([]any, error) {
		return nil, nil
	}, Constraints{Software: []string{"cuda"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("needsCuda"); err != nil {
		t.Fatal(err)
	}
	c.Barrier()

	// A constraint nothing satisfies is rejected at call time.
	if err := c.RegisterTask("needsTPU", func(_ context.Context, _ []any) ([]any, error) {
		return nil, nil
	}, Constraints{Software: []string{"tpu"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("needsTPU"); err == nil {
		t.Fatal("unsatisfiable constraint accepted")
	}
}

func TestDependencyEdgesCounted(t *testing.T) {
	c := newC(t)
	registerInt(t, c)
	x, y := c.NewObject(), c.NewObject()
	if _, err := c.Call("const", In(1), Write(x)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("sum2", Read(x), In(1), Write(y)); err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	if got := c.DependencyEdges(); got != 1 {
		t.Fatalf("edges = %d, want 1", got)
	}
}

func TestTracingAndProvenance(t *testing.T) {
	c := newC(t, WithTracing(), WithProvenance())
	registerInt(t, c)
	x, y := c.NewObject(), c.NewObject()
	if _, err := c.Call("const", In(5), Write(x)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("sum2", Read(x), In(1), Write(y)); err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	ev := c.TraceEvents()
	if ev["task_completed"] != 2 {
		t.Fatalf("trace = %v", ev)
	}
	anc := c.Ancestry(y)
	if len(anc) != 1 {
		t.Fatalf("ancestry = %v, want the version of x", anc)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	c := newC(t)
	if c.TraceEvents() != nil || c.Ancestry(c.NewObject()) != nil {
		t.Fatal("tracing should be off by default")
	}
}

func TestRegisterTaskValidation(t *testing.T) {
	c := newC(t)
	if err := c.RegisterTask("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	if err := c.RegisterTask("x", func(_ context.Context, _ []any) ([]any, error) {
		return nil, nil
	}, Constraints{}, Constraints{}); err == nil {
		t.Fatal("two constraints accepted")
	}
}

func TestReduceAccumulates(t *testing.T) {
	c := newC(t)
	if err := c.RegisterTask("acc", func(_ context.Context, args []any) ([]any, error) {
		cur, _ := args[0].(int)
		inc, ok := args[1].(int)
		if !ok {
			return nil, errors.New("acc: want int")
		}
		return []any{cur + inc}, nil
	}); err != nil {
		t.Fatal(err)
	}
	total := c.NewObjectWith(0)
	for i := 1; i <= 10; i++ {
		if _, err := c.Call("acc", Reduce(total), In(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.WaitOn(total)
	if err != nil || got != 55 {
		t.Fatalf("reduce total = %v %v, want 55", got, err)
	}
}
