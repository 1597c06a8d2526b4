package charm

import (
	"testing"
	"unsafe"

	"gat/internal/machine"
	"gat/internal/sim"
)

// callTask runs the func(*Ctx) that closure packed into arg, so a test
// can hand the runtime a closure where it takes a record-form task.
func callTask(ctx *Ctx, arg unsafe.Pointer) { (*(*func(*Ctx))(arg))(ctx) }

// closure packs fn as callTask's arg.
func closure(fn func(*Ctx)) unsafe.Pointer { return unsafe.Pointer(&fn) }

// testOptions uses round numbers for exact assertions.
func testOptions() Options {
	return Options{
		SchedOverhead:      10,
		EntryOverhead:      5,
		MsgHostOverhead:    7,
		HAPIRegister:       3,
		HostCopyBW:         1e9,     // 1 B/ns
		EagerThreshold:     1 << 30, // everything eager in unit tests
		RendezvousHostCost: 50,
		Envelope:           0,
	}
}

func testMachine(nodes int) *machine.Machine {
	cfg := machine.Summit(nodes)
	// Zero out network noise for exact PE arithmetic where needed.
	return machine.MustNew(cfg)
}

func newTestRuntime(nodes int) *Runtime {
	return NewRuntime(testMachine(nodes), testOptions())
}

func TestPERunsTasksInPriorityOrder(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	var order []string
	// Occupy the PE so subsequent enqueues pile up in the queue.
	pe.Enqueue(PrioNormal, 100, "first", nil, callTask, closure(func(ctx *Ctx) {}))
	pe.Enqueue(PrioNormal, 1, "normal", nil, callTask, closure(func(ctx *Ctx) { order = append(order, "normal") }))
	pe.Enqueue(PrioHigh, 1, "high", nil, callTask, closure(func(ctx *Ctx) { order = append(order, "high") }))
	rt.Engine().Run()
	if len(order) != 2 || order[0] != "high" || order[1] != "normal" {
		t.Fatalf("order = %v, want [high normal]", order)
	}
}

func TestPESerializesTasks(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		pe.Enqueue(PrioNormal, 0, "t", nil, callTask, closure(func(ctx *Ctx) {
			ctx.Charge(100)
			ctx.Do(func() { ends = append(ends, ctx.Engine().Now()) })
		}))
	}
	rt.Engine().Run()
	want := []sim.Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if pe.BusyTime() != 300 {
		t.Fatalf("busy = %v, want 300", pe.BusyTime())
	}
	if pe.TasksRun() != 3 {
		t.Fatalf("tasks = %d, want 3", pe.TasksRun())
	}
}

func TestCtxChargeStaggersEffects(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	var at1, at2 sim.Time
	pe.Enqueue(PrioNormal, 0, "t", nil, callTask, closure(func(ctx *Ctx) {
		ctx.Charge(50)
		ctx.Do(func() { at1 = ctx.Engine().Now() })
		ctx.Charge(25)
		ctx.Do(func() { at2 = ctx.Engine().Now() })
	}))
	rt.Engine().Run()
	if at1 != 50 || at2 != 75 {
		t.Fatalf("effects at %v/%v, want 50/75", at1, at2)
	}
}

func TestCtxBlockStallsPE(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	sig := sim.NewSignal()
	var secondAt sim.Time
	pe.Enqueue(PrioNormal, 0, "sync", nil, callTask, closure(func(ctx *Ctx) {
		ctx.Charge(10)
		ctx.Block(sig) // models cudaStreamSynchronize
	}))
	pe.Enqueue(PrioNormal, 0, "later", nil, callTask, closure(func(ctx *Ctx) {
		secondAt = ctx.Engine().Now()
	}))
	rt.Engine().Schedule(500, func() { sig.Fire(rt.Engine()) })
	rt.Engine().Run()
	if secondAt != 500 {
		t.Fatalf("blocked task ran at %v, want 500", secondAt)
	}
}

func TestCtxBlockAlreadyFiredDoesNotStall(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	var secondAt sim.Time
	pe.Enqueue(PrioNormal, 0, "sync", nil, callTask, closure(func(ctx *Ctx) {
		ctx.Charge(10)
		ctx.Block(sim.FiredSignal())
	}))
	pe.Enqueue(PrioNormal, 0, "later", nil, callTask, closure(func(ctx *Ctx) {
		secondAt = ctx.Engine().Now()
	}))
	rt.Engine().Run()
	if secondAt != 10 {
		t.Fatalf("task after no-op sync ran at %v, want 10", secondAt)
	}
}

func TestLaunchKernelChargesHostAndRuns(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	dev := rt.M.GPUOf(0)
	stream := dev.NewStream("s", 1)
	launchHost := dev.Config().KernelLaunchHost
	dispatch := dev.Config().KernelDispatch
	var kernelDone, peFree sim.Time
	pe.Enqueue(PrioNormal, 0, "launcher", nil, callTask, closure(func(ctx *Ctx) {
		ctx.LaunchKernel(stream, "k", 1000).OnFire(ctx.Engine(), func() {
			kernelDone = ctx.Engine().Now()
		})
	}))
	pe.Enqueue(PrioNormal, 0, "next", nil, callTask, closure(func(ctx *Ctx) {
		peFree = ctx.Engine().Now()
	}))
	rt.Engine().Run()
	if want := sim.Time(launchHost) + dispatch + 1000; kernelDone != want {
		t.Fatalf("kernel done at %v, want %v", kernelDone, want)
	}
	// The PE is free as soon as the launch overhead is paid — it does
	// not wait for the kernel (asynchronous completion, Fig 4).
	if peFree != launchHost {
		t.Fatalf("PE free at %v, want %v (async completion)", peFree, launchHost)
	}
}

func TestHAPICallbackDeliveredThroughQueue(t *testing.T) {
	rt := newTestRuntime(1)
	pe := rt.PE(0)
	dev := rt.M.GPUOf(0)
	stream := dev.NewStream("s", 1)
	var cbAt sim.Time
	pe.Enqueue(PrioNormal, 0, "launcher", nil, callTask, closure(func(ctx *Ctx) {
		ctx.LaunchKernel(stream, "k", 1000)
		ctx.HAPICallback(stream, "done", callTask, closure(func(ctx2 *Ctx) {
			cbAt = ctx2.Engine().Now()
		}))
	}))
	rt.Engine().Run()
	cfg := dev.Config()
	// Kernel ends at launchHost + dispatch + 1000; callback is enqueued
	// then pays scheduling overhead before running.
	earliest := cfg.KernelLaunchHost + cfg.KernelDispatch + 1000
	if cbAt < earliest {
		t.Fatalf("HAPI callback at %v, before kernel completion %v", cbAt, earliest)
	}
	if cbAt > earliest+sim.Microsecond {
		t.Fatalf("HAPI callback at %v, too long after completion %v", cbAt, earliest)
	}
}

func TestArrayBlockMapping(t *testing.T) {
	rt := newTestRuntime(2) // 12 PEs
	a := NewArray(rt, "blk", [3]int{4, 3, 2}, nil, func(ix Index) any { return nil })
	if a.Len() != 24 {
		t.Fatalf("len = %d, want 24", a.Len())
	}
	// 24 elements over 12 PEs: 2 consecutive elements per PE.
	for flat := 0; flat < 24; flat++ {
		el := a.elems[flat]
		if el.PE() != flat/2 {
			t.Fatalf("elem %d on PE %d, want %d", flat, el.PE(), flat/2)
		}
	}
	if got := len(a.ElemsOnPE(3)); got != 2 {
		t.Fatalf("PE 3 has %d elems, want 2", got)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rt := newTestRuntime(1)
	a := NewArray(rt, "blk", [3]int{3, 4, 5}, nil, func(ix Index) any { return nil })
	for flat := 0; flat < a.Len(); flat++ {
		ix := a.Unflatten(flat)
		if a.Flatten(ix) != flat {
			t.Fatalf("round trip failed at %d -> %v", flat, ix)
		}
	}
}

func TestSendLocalAndRemote(t *testing.T) {
	rt := newTestRuntime(2)
	var gotLocal, gotRemote sim.Time
	entries := []EntryFn{
		func(el *Elem, ctx *Ctx, m Msg) { // 0: receiver
			if el.PE() == 0 {
				gotLocal = ctx.Engine().Now()
			} else {
				gotRemote = ctx.Engine().Now()
			}
		},
		func(el *Elem, ctx *Ctx, m Msg) { // 1: sender
			ctx.Send(el.Arr, Index{0, 0, 0}, Msg{Entry: 0})
			ctx.Send(el.Arr, Index{11, 0, 0}, Msg{Entry: 0}) // PE 11, node 1
		},
	}
	a := NewArray(rt, "blk", [3]int{12, 1, 1}, entries, func(ix Index) any { return nil })
	a.Invoke(Index{0, 0, 0}, Msg{Entry: 1})
	rt.Engine().Run()
	if gotLocal == 0 || gotRemote == 0 {
		t.Fatal("both sends must be delivered")
	}
	if gotRemote <= gotLocal {
		t.Fatalf("remote (%v) should arrive after local (%v)", gotRemote, gotLocal)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	rt := newTestRuntime(1)
	count := 0
	entries := []EntryFn{
		func(el *Elem, ctx *Ctx, m Msg) { count++ },
	}
	a := NewArray(rt, "blk", [3]int{2, 2, 2}, entries, func(ix Index) any { return nil })
	a.Broadcast(Msg{Entry: 0})
	rt.Engine().Run()
	if count != 8 {
		t.Fatalf("broadcast reached %d elements, want 8", count)
	}
}

func TestPayloadCostScalesWithBytes(t *testing.T) {
	rt := newTestRuntime(1)
	big, small := sim.Time(0), sim.Time(0)
	entries := []EntryFn{
		func(el *Elem, ctx *Ctx, m Msg) {},
		func(el *Elem, ctx *Ctx, m Msg) {
			before := ctx.Clock()
			ctx.Send(el.Arr, Index{1, 0, 0}, Msg{Entry: 0, Bytes: m.Bytes})
			if m.Ref == 0 {
				small = ctx.Clock() - before
			} else {
				big = ctx.Clock() - before
			}
		},
	}
	a := NewArray(rt, "blk", [3]int{2, 1, 1}, entries, func(ix Index) any { return nil })
	a.Invoke(Index{0, 0, 0}, Msg{Entry: 1, Ref: 0, Bytes: 100})
	a.Invoke(Index{0, 0, 0}, Msg{Entry: 1, Ref: 1, Bytes: 10000})
	rt.Engine().Run()
	if big <= small {
		t.Fatalf("large payload send cost (%v) should exceed small (%v)", big, small)
	}
}
