package charm

import (
	"testing"

	"gat/internal/gpu"
	"gat/internal/sim"
)

func TestEnqueueCopyGatedOnSignal(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	dev := rt.M.GPUOf(0)
	s := dev.NewStream("cp", gpu.PriorityHigh)
	gate := sim.NewSignal()
	var copyAt sim.Time
	pe.Enqueue(PrioNormal, 0, "t", nil, callTask, closure(func(ctx *Ctx) {
		ctx.EnqueueCopy(s, gpu.D2H, 1000, gate).OnFire(ctx.Engine(), func() {
			copyAt = ctx.Engine().Now()
		})
	}))
	rt.Engine().Schedule(time500(), func() { gate.Fire(rt.Engine()) })
	rt.Engine().Run()
	if copyAt <= time500() {
		t.Fatalf("gated copy completed at %v, before gate at %v", copyAt, time500())
	}
}

func time500() sim.Time { return 500 * sim.Microsecond }

func TestEnqueueCopyUngated(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	dev := rt.M.GPUOf(0)
	s := dev.NewStream("cp", gpu.PriorityHigh)
	var copyAt sim.Time
	pe.Enqueue(PrioNormal, 0, "t", nil, callTask, closure(func(ctx *Ctx) {
		ctx.EnqueueCopy(s, gpu.H2D, 1000, nil).OnFire(ctx.Engine(), func() {
			copyAt = ctx.Engine().Now()
		})
	}))
	rt.Engine().Run()
	if copyAt <= 0 {
		t.Fatal("ungated copy never completed")
	}
}

func TestGateStreamOrdersAcrossStreams(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	dev := rt.M.GPUOf(0)
	prod := dev.NewStream("prod", gpu.PriorityNormal)
	cons := dev.NewStream("cons", gpu.PriorityNormal)
	var prodDone, consDone sim.Time
	pe.Enqueue(PrioNormal, 0, "t", nil, callTask, closure(func(ctx *Ctx) {
		p := ctx.LaunchKernel(prod, "produce", 100*sim.Microsecond)
		p.OnFire(ctx.Engine(), func() { prodDone = ctx.Engine().Now() })
		ctx.GateStream(cons, p)
		ctx.LaunchKernel(cons, "consume", sim.Microsecond).OnFire(ctx.Engine(), func() {
			consDone = ctx.Engine().Now()
		})
	}))
	rt.Engine().Run()
	if consDone <= prodDone {
		t.Fatalf("consumer (%v) ran before producer finished (%v)", consDone, prodDone)
	}
}

func TestPostRunsAsSeparateTask(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	var tasks []uint64
	pe.Enqueue(PrioNormal, 0, "t", nil, callTask, closure(func(ctx *Ctx) {
		ctx.Charge(100)
		ctx.Post(PrioNormal, "cont", callTask, closure(func(ctx2 *Ctx) {
			tasks = append(tasks, pe.TasksRun())
		}))
	}))
	rt.Engine().Run()
	if len(tasks) != 1 || tasks[0] != 2 {
		t.Fatalf("continuation should be the PE's 2nd task: %v", tasks)
	}
}

func TestElemLoadAccounting(t *testing.T) {
	rt := newTestRuntime(1)
	a := NewArray(rt, "l", [3]int{6, 1, 1}, []EntryFn{
		func(el *Elem, ctx *Ctx, m Msg) {
			ctx.Charge(100)
			s := rt.M.GPUOf(el.PE()).NewStream("s", gpu.PriorityNormal)
			ctx.LaunchKernel(s, "k", 5000)
		},
	}, func(ix Index) any { return nil })
	a.Invoke(Index{2, 0, 0}, Msg{Entry: 0})
	rt.Engine().Run()
	el := a.Elem(Index{2, 0, 0})
	if el.GPULoad != 5000 {
		t.Fatalf("GPULoad = %v, want 5000", el.GPULoad)
	}
	if el.Busy <= 100 {
		t.Fatalf("Busy = %v, want > 100 (includes launch overhead)", el.Busy)
	}
	if el.Load() != el.Busy+el.GPULoad {
		t.Fatal("Load() mismatch")
	}
}

func TestHAPIIsHighPriority(t *testing.T) {
	// A HAPI completion callback must bypass queued normal-priority
	// entries (communication-first scheduling, §III-A).
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	dev := rt.M.GPUOf(0)
	s := dev.NewStream("s", gpu.PriorityNormal)
	var order []string
	pe.Enqueue(PrioNormal, 0, "launcher", nil, callTask, closure(func(ctx *Ctx) {
		ctx.LaunchKernel(s, "k", sim.Microsecond)
		ctx.HAPICallback(s, "done", callTask, closure(func(*Ctx) { order = append(order, "hapi") }))
		// Stuff the queue with slow normal tasks; they outlast the
		// kernel, so the HAPI callback lands while they are queued.
		for i := 0; i < 3; i++ {
			pe.Enqueue(PrioNormal, 20*sim.Microsecond, "slow", nil, callTask, closure(func(*Ctx) {
				order = append(order, "slow")
			}))
		}
	}))
	rt.Engine().Run()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if order[0] == "hapi" {
		t.Fatal("hapi should not run before any queued task (kernel still in flight)")
	}
	pos := -1
	for i, s := range order {
		if s == "hapi" {
			pos = i
		}
	}
	if pos == len(order)-1 {
		t.Fatalf("hapi ran last — priority bypass failed: %v", order)
	}
}
