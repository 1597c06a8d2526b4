package app

import (
	"fmt"
	"unsafe"

	"gat/internal/charm"
	"gat/internal/comm"
	"gat/internal/gpu"
	"gat/internal/machine"
	"gat/internal/sim"
)

// ring is the quickstart workload as a registered application: a ring
// of GPU-accelerated asynchronous tasks, each repeatedly running a
// kernel and passing a device buffer to a partner placed on another
// PE. It is the smallest workload that shows overdecomposition hiding
// communication, which is what its ODF-sweep scenarios measure.
//
// Consumed Params: ODF (tasks per GPU, default 1) and Iters (ring
// steps, default 20). Finer tasks do proportionally less compute and
// exchange proportionally smaller buffers, so total work per GPU is
// ODF-independent. Global and Warmup are ignored.
type ring struct{}

func init() { Register(ring{}) }

const (
	ringDefaultSteps = 20
	ringKernelBytes  = 256 << 20 // total kernel traffic per GPU per step
	ringMsgBytes     = 1 << 20   // total message bytes per GPU per step
)

func (ring) Name() string { return "ring" }

// Version is the cache-identity version: bump when the ring workload's
// simulated results change.
func (ring) Version() int { return 1 }

func (ring) Variants() []string { return []string{"ring"} }

func (ring) Defaults(int) Params { return Params{ODF: 1, Iters: ringDefaultSteps} }

func (a ring) BuildRun(m *machine.Machine, variant string, p Params) (func() Metrics, error) {
	if variant != "ring" {
		return nil, badVariant(a, variant)
	}
	odf := p.ODF
	if odf <= 0 {
		odf = 1
	}
	steps := p.Iters
	if steps <= 0 {
		steps = ringDefaultSteps
	}
	return func() Metrics { return runRing(m, odf, steps) }, nil
}

// ringRun is one ring simulation: what every task's continuations
// share.
type ringRun struct {
	rt          *charm.Runtime
	done        *sim.Counter
	steps       int
	kernelBytes int64
	msgBytes    int64
}

// ringTask is one ring element's state. Its continuations are static
// functions (charm.TaskFn, sim.ArgFunc) that take the task as their
// argument.
type ringTask struct {
	run    *ringRun
	el     *charm.Elem
	stream *gpu.Stream
	next   *comm.Channel   // channel to the partner we send to
	prev   *comm.Channel   // channel we receive from
	recv   comm.Completion // ringReceived on this task
	step   int
	gate   charm.Gate
}

func runRing(m *machine.Machine, odf, steps int) Metrics {
	rt := charm.NewRuntime(m, charm.DefaultOptions())
	n := rt.NumPEs() * odf
	run := &ringRun{
		rt:          rt,
		done:        sim.NewCounter(n),
		steps:       steps,
		kernelBytes: int64(ringKernelBytes / odf),
		msgBytes:    int64(ringMsgBytes / odf),
	}

	entries := []charm.EntryFn{
		func(el *charm.Elem, ctx *charm.Ctx, msg charm.Msg) {
			ringStep(ctx, unsafe.Pointer(el.State.(*ringTask)))
		},
	}
	arr := charm.NewArray(rt, "ring", [3]int{n, 1, 1}, entries, func(ix charm.Index) any {
		return &ringTask{run: run}
	})
	// Wire a distant exchange: task i talks to task i + n/2, which the
	// block mapping places half the machine away.
	elems := arr.Elems()
	for i, el := range elems {
		st := el.State.(*ringTask)
		st.el = el
		st.recv = comm.Completion{Fn: ringReceived, Arg: unsafe.Pointer(st)}
		nxt := elems[(i+n/2)%n]
		ch := rt.Channel(el, nxt)
		st.next = ch
		nxt.State.(*ringTask).prev = ch
		st.stream = m.GPUOf(el.PE()).NewStream("work", gpu.PriorityNormal)
	}

	arr.Broadcast(charm.Msg{Entry: 0})
	total := m.Eng.Run()
	if run.done.Remaining() != 0 {
		panic(fmt.Sprintf("ring: %d tasks did not finish", run.done.Remaining()))
	}
	return m.Metrics(total / sim.Time(steps))
}

// ringStep runs one ring step of a task: compute, then pass a device
// buffer around the ring. The next step starts when the task's own
// kernel is done AND the neighbor's buffer has arrived.
func ringStep(ctx *charm.Ctx, arg unsafe.Pointer) {
	st := (*ringTask)(arg)
	r := st.run
	if st.step == r.steps {
		r.done.Add(ctx.Engine())
		return
	}
	step := st.step
	st.step++
	k := ctx.LaunchKernelBytes(st.stream, "work", r.kernelBytes)
	st.next.Send(st.el.Flat, step, r.msgBytes, k, nil)
	st.prev.Recv(st.el.Flat, step, &st.recv)
	st.gate.Expect(ctx, step, 1, ringStepDone, arg)
}

// ringReceived is the receive's completion: it queues the arrival on
// the task's PE.
func ringReceived(_ *sim.Engine, arg unsafe.Pointer) {
	st := (*ringTask)(arg)
	rt := st.run.rt
	rt.PE(st.el.PE()).Enqueue(charm.PrioHigh, rt.Opt.SchedOverhead, "ringRecv", st.el, ringArrived, arg)
}

// ringArrived counts the arrival for the step in flight, the one before
// st.step: the next step's receive is posted only once the gate has
// taken this one.
func ringArrived(ctx *charm.Ctx, arg unsafe.Pointer) {
	st := (*ringTask)(arg)
	st.gate.Arrive(ctx, st.step-1, nil, nil)
}

// ringStepDone starts the next step once the task's stream drains.
func ringStepDone(ctx *charm.Ctx, arg unsafe.Pointer) {
	st := (*ringTask)(arg)
	ctx.HAPICallback(st.stream, "next", ringStep, arg)
}
