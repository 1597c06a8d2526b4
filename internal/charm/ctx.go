package charm

import (
	"unsafe"

	"gat/internal/gpu"
	"gat/internal/sim"
)

// Ctx is the execution context of one entry-method invocation. It
// accumulates the host time the handler consumes on its PE: every call
// that costs CPU time advances the clock, and every side effect (kernel
// enqueue, message injection) is scheduled at the clock value it would
// occur at on real hardware. The PE stays busy until the final clock.
//
// A *Ctx is valid only while its handler runs: each PE reuses one Ctx
// for every task it executes, so a Ctx retained past the handler's
// return describes whichever task the PE runs next. Code that must act
// later captures the values it needs (the PE, the element, the clock)
// rather than the Ctx itself.
type Ctx struct {
	pe      *PE
	elem    *Elem
	clock   sim.Time
	blockOn sim.SignalRef
}

// PE returns the executing processing element.
func (ctx *Ctx) PE() *PE { return ctx.pe }

// Engine returns the simulation engine.
func (ctx *Ctx) Engine() *sim.Engine { return ctx.pe.rt.Engine() }

// Clock returns the handler's current staggered completion time.
func (ctx *Ctx) Clock() sim.Time { return ctx.clock }

// Charge adds host compute time to the handler.
func (ctx *Ctx) Charge(d sim.Time) {
	if d > 0 {
		ctx.clock += d
	}
}

// Do schedules fn to run at the handler's current clock, after the host
// work charged so far.
func (ctx *Ctx) Do(fn func()) {
	ctx.Engine().At(ctx.clock, fn)
}

// Block stalls the PE after this handler finishes until sig fires —
// the cudaStreamSynchronize pattern. A blocked PE processes no messages,
// which is exactly the lost overlap the paper's Fig 4 illustrates.
func (ctx *Ctx) Block(sig *sim.Signal) {
	ctx.blockOn = sig.Ref()
}

// call is one side effect a handler schedules at its staggered clock: a
// GPU operation to enqueue, a task to deliver to a PE, or a message to
// send. It carries the operation's arguments from the handler to the
// event that performs it, which dispatches through a static function
// (sim.Engine.InjectAt) instead of a closure. Records are recycled through
// the runtime's free list once their event has run, so the steady state
// allocates none.
type call struct {
	rt *Runtime

	// GPU operations.
	s     *gpu.Stream
	label string
	dur   sim.Time
	dir   gpu.CopyDir
	bytes int64
	graph *gpu.Graph
	after sim.SignalRef // gate: copy precondition, or the GateStream signal
	out   *sim.Signal   // completion signal handed to the handler

	// Task delivery (HAPICallback, Post).
	pe   *PE
	prio int
	elem *Elem
	fn   TaskFn
	arg  unsafe.Pointer

	// Entry-method messages (Send).
	arr   *Array
	msg   Msg
	srcPE int
}

// newCall returns a zeroed call record bound to the runtime.
//
//gat:hotpath
func (rt *Runtime) newCall() *call {
	if k := len(rt.free); k > 0 {
		c := rt.free[k-1]
		rt.free[k-1] = nil
		rt.free = rt.free[:k-1]
		return c
	}
	return &call{rt: rt}
}

// release returns c to the free list, dropping its references.
//
//gat:hotpath
func (c *call) release() {
	rt := c.rt
	*c = call{rt: rt}
	rt.free = append(rt.free, c)
}

// schedule queues fn(c) at the handler's current clock.
func (ctx *Ctx) schedule(fn sim.ArgFunc, c *call) {
	ctx.Engine().InjectAt(ctx.clock, fn, unsafe.Pointer(c))
}

// launchKernelFire enqueues a LaunchKernel kernel.
//
//gat:hotpath
func launchKernelFire(e *sim.Engine, arg unsafe.Pointer) {
	c := (*call)(arg)
	c.s.Kernel(c.label, c.dur).Chain(e, c.out)
	c.release()
}

// enqueueCopyFire enqueues an EnqueueCopy transfer behind its gate.
//
//gat:hotpath
func enqueueCopyFire(e *sim.Engine, arg unsafe.Pointer) {
	c := (*call)(arg)
	if c.after != (sim.SignalRef{}) {
		c.s.WaitSignal(c.after.Signal())
	}
	c.s.Copy(c.dir, c.bytes).Chain(e, c.out)
	c.release()
}

// launchGraphFire enqueues a LaunchGraph execution.
//
//gat:hotpath
func launchGraphFire(e *sim.Engine, arg unsafe.Pointer) {
	c := (*call)(arg)
	c.s.Launch(c.graph).Chain(e, c.out)
	c.release()
}

// gateStreamFire enqueues a GateStream wait.
//
//gat:hotpath
func gateStreamFire(_ *sim.Engine, arg unsafe.Pointer) {
	c := (*call)(arg)
	c.s.WaitSignal(c.after.Signal())
	c.release()
}

// hapiRegisterFire registers a HAPICallback on its stream; the record
// stays live until the callback runs.
//
//gat:hotpath
func hapiRegisterFire(_ *sim.Engine, arg unsafe.Pointer) {
	c := (*call)(arg)
	c.s.OnComplete(deliverTaskFire, arg)
}

// deliverTaskFire enqueues the record's task on its PE (a HAPI
// completion or a Post continuation).
//
//gat:hotpath
func deliverTaskFire(_ *sim.Engine, arg unsafe.Pointer) {
	c := (*call)(arg)
	pe, prio, label, elem, fn, fnArg := c.pe, c.prio, c.label, c.elem, c.fn, c.arg
	c.release()
	pe.Enqueue(prio, pe.rt.Opt.SchedOverhead, label, elem, fn, fnArg)
}

// LaunchKernel charges the kernel launch host overhead and enqueues the
// kernel on the stream at the staggered instant. It returns the kernel's
// completion signal, an engine signal valid until it fires (see
// sim.Signal).
func (ctx *Ctx) LaunchKernel(s *gpu.Stream, label string, dur sim.Time) *sim.Signal {
	cfg := s.Device().Config()
	ctx.clock += cfg.KernelLaunchHost
	if ctx.elem != nil {
		ctx.elem.GPULoad += dur
	}
	c := ctx.pe.rt.newCall()
	c.s, c.label, c.dur, c.out = s, label, dur, ctx.Engine().NewSignal()
	ctx.schedule(launchKernelFire, c)
	return c.out
}

// LaunchKernelBytes is LaunchKernel with a roofline-derived duration.
func (ctx *Ctx) LaunchKernelBytes(s *gpu.Stream, label string, bytes int64) *sim.Signal {
	return ctx.LaunchKernel(s, label, s.Device().KernelTime(bytes))
}

// EnqueueCopy charges the async-copy host overhead and enqueues a DMA
// transfer, optionally gated on after (pass nil for no gate).
func (ctx *Ctx) EnqueueCopy(s *gpu.Stream, dir gpu.CopyDir, bytes int64, after *sim.Signal) *sim.Signal {
	cfg := s.Device().Config()
	ctx.clock += cfg.CopyLaunchHost
	c := ctx.pe.rt.newCall()
	c.s, c.dir, c.bytes, c.out = s, dir, bytes, ctx.Engine().NewSignal()
	if after != nil {
		c.after = after.Ref()
	}
	ctx.schedule(enqueueCopyFire, c)
	return c.out
}

// LaunchGraph charges the graph launch host overhead and enqueues one
// execution of g.
func (ctx *Ctx) LaunchGraph(s *gpu.Stream, g *gpu.Graph) *sim.Signal {
	cfg := s.Device().Config()
	ctx.clock += cfg.GraphLaunchHost + sim.Time(g.Len())*cfg.GraphNodeHost
	if ctx.elem != nil {
		ctx.elem.GPULoad += g.TotalKernelTime()
	}
	c := ctx.pe.rt.newCall()
	c.s, c.graph, c.out = s, g, ctx.Engine().NewSignal()
	ctx.schedule(launchGraphFire, c)
	return c.out
}

// GateStream makes subsequent work on s wait for sig, charging no host
// time (the dependency is enforced on the device).
func (ctx *Ctx) GateStream(s *gpu.Stream, sig *sim.Signal) {
	c := ctx.pe.rt.newCall()
	c.s, c.after = s, sig.Ref()
	ctx.schedule(gateStreamFire, c)
}

// HAPICallback registers fn(ctx, arg) to run as a high-priority PE task
// when all work currently enqueued on the stream (as of the handler's
// staggered clock) completes. This is the Hybrid API asynchronous
// completion mechanism (§III-A): the PE keeps scheduling other chares
// while the GPU works, and the task is delivered through the message
// queue like any other.
func (ctx *Ctx) HAPICallback(s *gpu.Stream, label string, fn TaskFn, arg unsafe.Pointer) {
	rt := ctx.pe.rt
	ctx.clock += rt.Opt.HAPIRegister
	c := rt.newCall()
	c.s, c.pe, c.prio, c.label, c.elem, c.fn, c.arg = s, ctx.pe, PrioHigh, label, ctx.elem, fn, arg
	ctx.schedule(hapiRegisterFire, c)
}

// Post enqueues fn(ctx, arg) as a task on this PE at the handler's
// staggered clock — the self-message pattern for continuations.
func (ctx *Ctx) Post(prio int, label string, fn TaskFn, arg unsafe.Pointer) {
	c := ctx.pe.rt.newCall()
	c.pe, c.prio, c.label, c.elem, c.fn, c.arg = ctx.pe, prio, label, ctx.elem, fn, arg
	ctx.schedule(deliverTaskFire, c)
}
