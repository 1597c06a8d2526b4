// Package charm implements an asynchronous message-driven tasking
// runtime in the style of Charm++ (§II-A of the paper): chare arrays
// overdecomposed onto processing elements (PEs), per-PE schedulers
// draining prioritized message queues, entry methods that run to
// completion, SDAG-style reference-number gates, and HAPI-style
// asynchronous GPU completion callbacks.
//
// PEs are event-driven rather than procs: entry methods never block,
// so a PE is a priority queue plus busy/blocked bookkeeping. Host
// time consumed by an entry method (scheduling, kernel launches, message
// sends) accumulates on a Ctx clock, and every side effect is scheduled
// at its correct staggered instant, reproducing the serialization of
// fine-grained overheads on the host core that drives the paper's
// strong-scaling results.
package charm

import (
	"fmt"
	"unsafe"

	"gat/internal/comm"
	"gat/internal/machine"
	"gat/internal/sim"
)

// Priorities for PE tasks. Communication-related callbacks run at high
// priority, as the paper prescribes for (un)packing and transfers.
const (
	PrioHigh   = 0
	PrioNormal = 1
)

// Options is the runtime cost model.
type Options struct {
	// SchedOverhead is charged per message picked up by a PE scheduler.
	SchedOverhead sim.Time
	// EntryOverhead is charged per entry-method dispatch (location
	// lookup, envelope handling).
	EntryOverhead sim.Time
	// MsgHostOverhead is charged at the sender per message send call.
	MsgHostOverhead sim.Time
	// HAPIRegister is charged to register a GPU completion callback.
	HAPIRegister sim.Time
	// HostCopyBW is the single-core memcpy bandwidth used to cost
	// copying eager message payloads in and out of communication
	// buffers (host-staging path).
	HostCopyBW float64
	// EagerThreshold is the message size up to which payloads are
	// copied through eager buffers; larger messages use zero-copy
	// rendezvous and pay only RendezvousHostCost.
	EagerThreshold int64
	// RendezvousHostCost is the fixed host cost (buffer registration,
	// protocol handling) of a zero-copy rendezvous message.
	RendezvousHostCost sim.Time
	// Envelope is the per-message header size in bytes.
	Envelope int64
}

// DefaultOptions returns the Summit-calibrated runtime cost model.
func DefaultOptions() Options {
	return Options{
		SchedOverhead:      800 * sim.Nanosecond,
		EntryOverhead:      500 * sim.Nanosecond,
		MsgHostOverhead:    1500 * sim.Nanosecond,
		HAPIRegister:       500 * sim.Nanosecond,
		HostCopyBW:         12e9,
		EagerThreshold:     64 << 10,
		RendezvousHostCost: 1500 * sim.Nanosecond,
		Envelope:           96,
	}
}

// Runtime is one instantiated Charm-style runtime over a machine.
type Runtime struct {
	M   *machine.Machine
	Opt Options
	PEs []*PE

	calls sim.FreeList[call] // recycled side-effect records (see call)
	posts comm.Posts         // recycled post records of every Channel
}

// NewRuntime creates a runtime with one PE per GPU (the paper's non-SMP
// one-core-one-GPU process layout).
func NewRuntime(m *machine.Machine, opt Options) *Runtime {
	rt := &Runtime{M: m, Opt: opt}
	for i := 0; i < m.Procs(); i++ {
		pe := &PE{rt: rt, id: i}
		pe.ctx.pe = pe
		pe.finishFn = pe.finish
		pe.unblockFn = pe.unblock
		rt.PEs = append(rt.PEs, pe)
	}
	return rt
}

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.M.Eng }

// NumPEs returns the number of processing elements.
func (rt *Runtime) NumPEs() int { return len(rt.PEs) }

// PE returns processing element i.
func (rt *Runtime) PE(i int) *PE { return rt.PEs[i] }

// Channel opens a GPU-aware communication channel between two chare
// elements (Channel API, §II-B), each endpoint on the node of the
// element's current PE. All of the runtime's channels recycle their
// posts through one pool.
func (rt *Runtime) Channel(a, b *Elem) *comm.Channel {
	return rt.posts.NewChannel(rt.M.Net,
		comm.Endpoint{Proc: a.Flat, Node: rt.M.NodeOf(a.PE())},
		comm.Endpoint{Proc: b.Flat, Node: rt.M.NodeOf(b.PE())})
}

// payloadCost is the host time one side spends handling a message
// payload: eager messages are copied by the sending/receiving core,
// rendezvous-size messages go zero-copy and pay only the fixed
// registration cost.
func (rt *Runtime) payloadCost(bytes int64) sim.Time {
	switch {
	case bytes <= 0:
		return 0
	case bytes <= rt.Opt.EagerThreshold:
		return sim.DurationOf(bytes, rt.Opt.HostCopyBW)
	default:
		return rt.Opt.RendezvousHostCost
	}
}

// TaskFn is a task body in record form: a statically defined function
// that receives its state as an untyped pointer, the charm counterpart
// of sim.ArgFunc. Every continuation a handler hands the runtime — a
// queued task, a HAPI callback, a self-post, a gate's arrival action or
// completion — is such an (fn, arg) pair, so a long-lived record (a
// chare's state, one of its faces) is dispatched through one shared
// function instead of a closure bound to it. arg may be nil.
type TaskFn func(ctx *Ctx, arg unsafe.Pointer)

// task is one unit of PE work: an entry-method invocation or a runtime
// callback. An entry invocation carries its message (fn == nil), and
// its element's array dispatches it, instead of a closure binding them.
type task struct {
	cost  sim.Time // host time consumed before handler side effects
	label string
	elem  *Elem // owning chare element, if any (for load accounting)
	fn    TaskFn
	arg   unsafe.Pointer
	msg   Msg
}

// PE is one processing element: a scheduler draining a prioritized
// message queue, bound to one host core and one GPU. The queue is one
// FIFO per priority: a PE runs its high-priority tasks first, then its
// normal ones, each class in submission order.
type PE struct {
	rt   *Runtime
	id   int
	name string // tracer resource name, built on first traced task

	queue   [2]sim.FIFO[task] // indexed by PrioHigh, PrioNormal
	busy    bool
	blocked bool

	// A PE runs one task at a time, so the running task's context and
	// bookkeeping live on the PE, and its finish and unblock events
	// schedule thunks bound once at NewRuntime instead of closures per
	// task.
	ctx       Ctx
	curStart  sim.Time
	curLabel  string
	curElem   *Elem
	finishFn  func()
	unblockFn func()

	busyAccum sim.Time
	tasksRun  uint64
}

// ID returns the global PE id.
func (pe *PE) ID() int { return pe.id }

// BusyTime returns the cumulative host time this PE has spent executing
// tasks (excluding blocked time).
func (pe *PE) BusyTime() sim.Time { return pe.busyAccum }

// TasksRun returns the number of tasks executed.
func (pe *PE) TasksRun() uint64 { return pe.tasksRun }

// Enqueue adds a task at priority prio (PrioHigh or PrioNormal; any
// other value panics) to the PE's queue. cost is the host time consumed
// before the handler's side effects (scheduling + dispatch + payload
// handling); fn(ctx, arg) executes with a Ctx whose clock starts after
// cost.
func (pe *PE) Enqueue(prio int, cost sim.Time, label string, elem *Elem, fn TaskFn, arg unsafe.Pointer) {
	pe.enqueue(prio, task{cost: cost, label: label, elem: elem, fn: fn, arg: arg})
}

// enqueue queues t in its priority's FIFO and starts it if the PE is
// idle.
//
//gat:hotpath
func (pe *PE) enqueue(prio int, t task) {
	if prio != PrioHigh && prio != PrioNormal {
		panic("charm: task priority is neither PrioHigh nor PrioNormal")
	}
	pe.queue[prio].Push(t)
	pe.startNext()
}

// startNext pops and executes the next task if the PE is idle: the
// oldest high-priority task, else the oldest normal one. The handler
// runs on the PE's one Ctx, reset for the task; the PE stays busy until
// the finish event at the handler's final clock.
//
//gat:hotpath
func (pe *PE) startNext() {
	if pe.busy || pe.blocked {
		return
	}
	q := &pe.queue[PrioHigh]
	if q.Len() == 0 {
		q = &pe.queue[PrioNormal]
		if q.Len() == 0 {
			return
		}
	}
	t := q.Pop()
	pe.busy = true
	pe.tasksRun++
	eng := pe.rt.Engine()
	start := eng.Now()
	ctx := &pe.ctx
	ctx.elem, ctx.clock, ctx.blockOn = t.elem, start+t.cost, sim.SignalRef{}
	if t.fn != nil {
		t.fn(ctx, t.arg)
	} else {
		t.elem.Arr.entries[t.msg.Entry](t.elem, ctx, t.msg)
	}
	pe.curStart, pe.curLabel, pe.curElem = start, t.label, t.elem
	eng.At(ctx.clock, pe.finishFn)
}

// finish retires the running task at its final clock, the current
// time: load accounting, the trace span, then either blocking on the
// handler's Block signal or starting the next task.
//
//gat:hotpath
func (pe *PE) finish() {
	eng := pe.rt.Engine()
	start, end := pe.curStart, eng.Now()
	pe.busyAccum += end - start
	if el := pe.curElem; el != nil {
		el.Busy += end - start
	}
	if tr := eng.Tracer(); tr != nil {
		pe.traceSpan(tr, start, end)
	}
	pe.busy = false
	pe.curElem = nil
	if b := pe.ctx.blockOn; b != (sim.SignalRef{}) && !b.Fired() {
		pe.blocked = true
		b.Signal().OnFire(eng, pe.unblockFn)
		return
	}
	pe.startNext()
}

// traceSpan records the finished task on the tracer.
func (pe *PE) traceSpan(tr *sim.Tracer, start, end sim.Time) {
	if pe.name == "" {
		pe.name = fmt.Sprintf("pe%d", pe.id)
	}
	tr.Add(sim.Span{Resource: pe.name, Label: pe.curLabel, Start: start, End: end})
}

// unblock resumes a PE whose handler blocked on a signal.
func (pe *PE) unblock() {
	pe.blocked = false
	pe.startNext()
}
