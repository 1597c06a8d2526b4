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

// newOp returns a zeroed op: a recycled one from the device's free
// list, or a fresh heap record when every recycled op is in flight.
// Every op returns to the free list as it completes (see complete), so
// a device's ops are bounded by those in flight.
//
//gat:hotpath
func (s *Stream) newOp() *op { return s.dev.freeOps.Get() }

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

// Pending returns the number of queued (not yet completed) operations.
func (s *Stream) Pending() int { return len(s.ops) }

type opKind int

const (
	opKernel opKind = iota
	opCopy
	opCallback
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
	wait  sim.SignalRef  // gate for opWait
	graph *Graph         // for opGraph
	done  sim.Signal     // embedded: one allocation per op, not two
}

// enqueue queues o and returns its done signal. Every op completes in
// a later event, so the signal is still pending when the caller
// receives it.
//
//gat:hotpath
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
		d.copyPipe(o.dir).TransferAfter(sim.FiredSignal(), o.bytes).OnFireArg(d.eng, streamComplete, arg)
	case opCallback:
		// Host callback: runs as an event at the current time, then the
		// stream advances.
		d.eng.InjectAt(d.eng.Now(), streamCallback, arg)
	case opWait:
		o.wait.Signal().OnFireArg(d.eng, streamComplete, arg)
	case opGraph:
		s.launchGraphInstance(o.graph)
	default:
		panic("gpu: unknown op kind")
	}
}

// complete finishes the head op: fire its signal, dequeue it
// (capacity-preserving, so a steady enqueue/complete cycle never
// reallocates), recycle it, and start the next.
//
//gat:hotpath
func (s *Stream) complete() {
	o := s.ops[0]
	d := s.dev
	o.done.Fire(d.eng)
	n := copy(s.ops, s.ops[1:])
	s.ops[n] = nil
	s.ops = s.ops[:n]
	d.freeOps.Recycle(o, &o.done)
	if len(s.ops) > 0 {
		s.startHead()
	}
}

// Kernel enqueues a kernel with an explicit device duration and returns
// its completion signal, valid until it fires (see sim.Signal). The
// caller is responsible for charging Config.KernelLaunchHost to the
// launching CPU.
//
//gat:hotpath
func (s *Stream) Kernel(label string, dur sim.Time) *sim.Signal {
	o := s.newOp()
	o.kind, o.label, o.dur = opKernel, label, dur
	return s.enqueue(o)
}

// KernelBytes enqueues a memory-bound kernel whose duration is derived
// from the roofline model.
func (s *Stream) KernelBytes(label string, bytes int64) *sim.Signal {
	return s.Kernel(label, s.dev.KernelTime(bytes))
}

// Copy enqueues an async DMA transfer of the given size and direction
// and returns its completion signal, valid until it fires. The caller
// charges Config.CopyLaunchHost to the launching CPU.
//
//gat:hotpath
func (s *Stream) Copy(dir CopyDir, bytes int64) *sim.Signal {
	o := s.newOp()
	o.kind, o.label, o.bytes, o.dir = opCopy, dir.String(), bytes, dir
	return s.enqueue(o)
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

// WaitSignal blocks subsequent work on s until an arbitrary simulation
// signal fires (e.g. network data arrival before an unpack kernel, or
// a kernel's completion on another stream). The gate op keeps a
// reference to sig until it reaches the head of the stream.
//
//gat:hotpath
func (s *Stream) WaitSignal(sig *sim.Signal) {
	o := s.newOp()
	o.kind, o.label, o.wait = opWait, "waitSignal", sig.Ref()
	s.push(o)
}
