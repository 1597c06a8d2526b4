package gpu

import (
	"unsafe"

	"gat/internal/sim"
)

// Stream is an in-order queue of device operations, the CUDA stream
// analogue. Operations on one stream execute in FIFO order; operations
// on different streams may interleave subject to engine availability.
type Stream struct {
	dev  *Device
	name string
	prio int
	ops  []*op // pending; ops[0] is the in-flight head
}

// streamComplete finishes the stream's in-flight head op. A stream
// executes one op at a time, so every op's completion is dispatched
// through this one static function with the stream as its argument,
// instead of a completion closure per op.
//
//gat:hotpath
func streamComplete(_ *sim.Engine, arg unsafe.Pointer) { (*Stream)(arg).complete() }

// streamCallback runs the head op's host callback, then advances the
// stream.
//
//gat:hotpath
func streamCallback(e *sim.Engine, arg unsafe.Pointer) {
	s := (*Stream)(arg)
	o := s.ops[0]
	o.cbFn(e, o.cbArg)
	s.complete()
}

// newOp returns a zeroed op for an operation whose done signal is never
// handed out: a recycled one from the device's free list, or a fresh
// heap record when every recycled op is in flight. These ops return to
// the free list on completion (see complete), so their memory is bounded
// by the ops in flight, and they survive ResetOps.
//
//gat:hotpath
func (s *Stream) newOp() *op { return s.dev.freeOps.Get() }

// newPinnedOp returns a zeroed op from the device's arena for an
// operation whose done signal is handed to the caller. The signal may
// outlive completion in caller hands, so the op is never recycled
// individually: it lives until ResetOps or until the device's engine
// (and with it the arena) is discarded.
//
//gat:hotpath
func (s *Stream) newPinnedOp() *op {
	o := s.dev.ops.New()
	o.pinned = true
	return o
}

// NewStream creates a stream with the given priority (PriorityHigh or
// PriorityNormal).
func (d *Device) NewStream(name string, prio int) *Stream {
	return &Stream{dev: d, name: name, prio: prio}
}

// AcquireStream returns an idle stream from the device's pool —
// creating and pooling a new one only when every pooled stream still
// has operations in flight — relabeled with the given name and
// priority. An idle stream is behaviorally identical to a fresh one
// (its queue is empty, so no ordering carries over), which lets
// transient per-message streams (netsim host staging) be reused
// instead of allocated, keeping the steady state allocation-free.
//
// The caller must enqueue the stream's operations before the device's
// next AcquireStream call (i.e. synchronously, before returning to the
// event loop); a stream with pending operations is never handed out
// again until they complete. There is no release call: a stream
// returns to circulation by draining.
func (d *Device) AcquireStream(name string, prio int) *Stream {
	for _, s := range d.streamPool {
		if len(s.ops) == 0 {
			s.name, s.prio = name, prio
			return s
		}
	}
	s := d.NewStream(name, prio)
	d.streamPool = append(d.streamPool, s)
	return s
}

// PooledStreams returns the number of streams in the device's
// acquire pool (for reuse assertions in tests).
func (d *Device) PooledStreams() int { return len(d.streamPool) }

// Device returns the owning device.
func (s *Stream) Device() *Device { return s.dev }

// Priority returns the stream priority.
func (s *Stream) Priority() int { return s.prio }

// Pending returns the number of queued (not yet completed) operations.
func (s *Stream) Pending() int { return len(s.ops) }

type opKind int

const (
	opKernel opKind = iota
	opCopy
	opCallback
	opEvent
	opWait
	opGraph
)

type op struct {
	kind  opKind
	label string
	dur   sim.Time       // kernel device duration
	bytes int64          // copy size
	dir   CopyDir        // copy direction
	cbFn  sim.ArgFunc    // callback body
	cbArg unsafe.Pointer // callback record
	wait  *sim.Signal    // gate for opWait
	graph *Graph         // for opGraph
	// out, for an op enqueued in chain form, is fired at completion in
	// place of done — exactly the event done's chain link would push.
	out *sim.Signal
	// pinned marks an op whose done signal was handed to a caller; it is
	// never recycled.
	pinned bool
	done   sim.Signal // embedded: one allocation per op, not two
}

// enqueue queues the pinned op o and returns its done signal.
func (s *Stream) enqueue(o *op) *sim.Signal {
	s.push(o)
	return &o.done
}

// push queues o, starting it if the stream was idle.
//
//gat:hotpath
func (s *Stream) push(o *op) {
	s.ops = append(s.ops, o)
	if len(s.ops) == 1 {
		s.startHead()
	}
}

// startHead begins executing the op at the head of the stream.
//
//gat:hotpath
func (s *Stream) startHead() {
	o := s.ops[0]
	d := s.dev
	arg := unsafe.Pointer(s)
	switch o.kind {
	case opKernel:
		d.submitCompute(s.prio, o.label, d.cfg.KernelDispatch+o.dur, streamComplete, arg)
	case opCopy:
		d.copyCount++
		d.copyPipe(o.dir).TransferAfterArg(sim.FiredSignal(), o.bytes, streamComplete, arg)
	case opCallback:
		// Host callback: runs as an event at the current time, then the
		// stream advances.
		d.eng.InjectAt(d.eng.Now(), streamCallback, arg)
	case opEvent:
		s.complete()
	case opWait:
		o.wait.OnFireArg(d.eng, streamComplete, arg)
	case opGraph:
		s.launchGraphInstance(o.graph)
	default:
		panic("gpu: unknown op kind")
	}
}

// complete finishes the head op: fire its signal (or its chain target),
// dequeue it (capacity-preserving, so a steady enqueue/complete cycle
// never reallocates), recycle it unless a caller holds its signal, and
// start the next.
//
//gat:hotpath
func (s *Stream) complete() {
	o := s.ops[0]
	eng := s.dev.eng
	if o.pinned {
		o.done.Fire(eng)
	} else if o.out != nil {
		eng.FireAt(eng.Now(), o.out)
	}
	n := copy(s.ops, s.ops[1:])
	s.ops[n] = nil
	s.ops = s.ops[:n]
	if !o.pinned {
		s.dev.freeOps.Put(o)
	}
	if len(s.ops) > 0 {
		s.startHead()
	}
}

// Kernel enqueues a kernel with an explicit device duration and returns
// its completion signal. The caller is responsible for charging
// Config.KernelLaunchHost to the launching CPU.
func (s *Stream) Kernel(label string, dur sim.Time) *sim.Signal {
	o := s.newPinnedOp()
	o.kind, o.label, o.dur = opKernel, label, dur
	return s.enqueue(o)
}

// KernelChain enqueues a kernel like Kernel and fires out when it
// completes — the event-for-event equivalent of
// Kernel(label, dur).Chain(eng, out). No signal is handed out, so the
// op record is recycled on completion.
//
//gat:hotpath
func (s *Stream) KernelChain(label string, dur sim.Time, out *sim.Signal) {
	o := s.newOp()
	o.kind, o.label, o.dur, o.out = opKernel, label, dur, out
	s.push(o)
}

// KernelBytes enqueues a memory-bound kernel whose duration is derived
// from the roofline model.
func (s *Stream) KernelBytes(label string, bytes int64) *sim.Signal {
	return s.Kernel(label, s.dev.KernelTime(bytes))
}

// Copy enqueues an async DMA transfer of the given size and direction.
// The caller charges Config.CopyLaunchHost to the launching CPU.
func (s *Stream) Copy(dir CopyDir, bytes int64) *sim.Signal {
	o := s.newPinnedOp()
	o.kind, o.label, o.bytes, o.dir = opCopy, dir.String(), bytes, dir
	return s.enqueue(o)
}

// CopyChain enqueues a DMA transfer like Copy and fires out when it
// completes, recycling the op record (see KernelChain).
//
//gat:hotpath
func (s *Stream) CopyChain(dir CopyDir, bytes int64, out *sim.Signal) {
	o := s.newOp()
	o.kind, o.label, o.bytes, o.dir, o.out = opCopy, dir.String(), bytes, dir, out
	s.push(o)
}

// OnComplete enqueues a host callback that runs when all previously
// enqueued work on the stream has finished: fn(arg) is dispatched as an
// event, then the stream advances. This is the mechanism behind
// HAPI-style asynchronous completion detection. The callback is a
// static function with a record argument, so registering it allocates
// nothing; arg must be non-nil.
//
//gat:hotpath
func (s *Stream) OnComplete(fn sim.ArgFunc, arg unsafe.Pointer) {
	o := s.newOp()
	o.kind, o.label, o.cbFn, o.cbArg = opCallback, "callback", fn, arg
	s.push(o)
}

// Event is a CUDA-event analogue: a marker recorded on a stream whose
// signal fires when all prior work on that stream has completed.
type Event struct{ sig *sim.Signal }

// Done returns the completion signal.
func (ev *Event) Done() *sim.Signal { return ev.sig }

// RecordEvent records an event on the stream.
func (s *Stream) RecordEvent() *Event {
	o := s.newPinnedOp()
	o.kind, o.label = opEvent, "event"
	return &Event{sig: s.enqueue(o)}
}

// WaitEvent blocks subsequent work on s until ev (recorded on another
// stream) completes — the cross-stream dependency primitive.
func (s *Stream) WaitEvent(ev *Event) *sim.Signal {
	o := s.newPinnedOp()
	o.kind, o.label, o.wait = opWait, "waitEvent", ev.sig
	return s.enqueue(o)
}

// WaitSignal blocks subsequent work on s until an arbitrary simulation
// signal fires (e.g. network data arrival before an unpack kernel). The
// gate has no completion signal of its own, so its op is recycled once
// the gate opens.
//
//gat:hotpath
func (s *Stream) WaitSignal(sig *sim.Signal) {
	o := s.newOp()
	o.kind, o.label, o.wait = opWait, "waitSignal", sig
	s.push(o)
}

// Sync blocks the calling proc until all currently enqueued work on the
// stream completes, charging the host synchronization overhead. This is
// the cudaStreamSynchronize analogue used by the "before-optimization"
// Jacobi3D variant and the MPI variants.
func (s *Stream) Sync(p *sim.Proc) {
	p.Sleep(s.dev.cfg.SyncOverhead)
	if len(s.ops) == 0 {
		return
	}
	ev := s.RecordEvent()
	p.Wait(ev.sig)
}

// Drained returns a signal that fires when all currently enqueued work
// completes, without blocking (for event-driven callers).
func (s *Stream) Drained() *sim.Signal {
	if len(s.ops) == 0 {
		return sim.FiredSignal()
	}
	return s.RecordEvent().sig
}
