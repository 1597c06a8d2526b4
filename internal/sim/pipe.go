package sim

import "unsafe"

// Pipe models a serialized bandwidth resource: a DMA copy engine, a NIC
// injection port, or a host-interconnect link. Transfers are served in
// request order; each occupies the pipe for overhead + bytes/bandwidth.
//
// Serialization is modelled with busy-until bookkeeping rather than an
// explicit server process, which keeps a transfer to two events.
type Pipe struct {
	eng         *Engine
	name        string
	bytesPerSec float64
	overhead    Time // fixed per-transfer setup cost
	freeAt      Time // pipe is busy until this instant

	busyAccum Time // total busy time, for utilization reporting

	// Iterative workloads push the same few transfer sizes through a
	// pipe every step; the two most recent distinct sizes memoize the
	// float division in duration. Exact values: a hit returns the very
	// Time a miss computed. dur == 0 marks an empty slot (a zero-byte
	// transfer recomputes, harmlessly).
	memoBytes [2]int64
	memoDur   [2]Time
}

// duration returns overhead + bytes/bandwidth through the memo.
//
//gat:hotpath
func (pp *Pipe) duration(bytes int64) Time {
	if pp.memoBytes[0] == bytes && pp.memoDur[0] != 0 {
		return pp.memoDur[0]
	}
	if pp.memoBytes[1] == bytes && pp.memoDur[1] != 0 {
		pp.memoBytes[0], pp.memoBytes[1] = pp.memoBytes[1], pp.memoBytes[0]
		pp.memoDur[0], pp.memoDur[1] = pp.memoDur[1], pp.memoDur[0]
		return pp.memoDur[0]
	}
	dur := pp.overhead + DurationOf(bytes, pp.bytesPerSec)
	pp.memoBytes[1] = pp.memoBytes[0]
	pp.memoDur[1] = pp.memoDur[0]
	pp.memoBytes[0] = bytes
	pp.memoDur[0] = dur
	return dur
}

// NewPipe returns a pipe with the given bandwidth (bytes/second) and
// fixed per-transfer overhead. Bandwidth must be positive.
func NewPipe(e *Engine, name string, bytesPerSec float64, overhead Time) *Pipe {
	if bytesPerSec <= 0 {
		panic("sim: pipe needs positive bandwidth")
	}
	return &Pipe{eng: e, name: name, bytesPerSec: bytesPerSec, overhead: overhead}
}

// Name returns the pipe's name.
func (pp *Pipe) Name() string { return pp.name }

// BusyTime returns the cumulative time the pipe has spent transferring.
func (pp *Pipe) BusyTime() Time { return pp.busyAccum }

// FreeAt returns the earliest instant a new transfer could start.
func (pp *Pipe) FreeAt() Time {
	if pp.freeAt < pp.eng.Now() {
		return pp.eng.Now()
	}
	return pp.freeAt
}

// pipeOp is one pending transfer: the pipe and byte count wait in the
// record until the ready signal fires, then the reservation is made and
// the completion is scheduled. The op returns to the engine's free list
// as done fires.
type pipeOp struct {
	pp    *Pipe
	bytes int64
	done  Signal
}

// reserve books the pipe for op from now on and returns the instant
// the transfer completes.
//
//gat:hotpath
func (op *pipeOp) reserve() Time {
	pp := op.pp
	start := pp.FreeAt()
	dur := pp.duration(op.bytes)
	pp.freeAt = start + dur
	pp.busyAccum += dur
	if tr := pp.eng.tracer; tr != nil {
		tr.Add(Span{Resource: pp.name, Label: "xfer", Start: start, End: pp.freeAt, Bytes: op.bytes})
	}
	return pp.freeAt
}

// pipeOpStart is the ArgFunc run when an op's ready signal fires: it
// books the pipe and schedules pipeOpDone at the completion instant.
//
//gat:hotpath
func pipeOpStart(e *Engine, arg unsafe.Pointer) {
	e.InjectAt((*pipeOp)(arg).reserve(), pipeOpDone, arg)
}

// pipeOpDone completes an op: done fires, scheduling the caller's
// callbacks, and the op goes back to the free list.
//
//gat:hotpath
func pipeOpDone(e *Engine, arg unsafe.Pointer) {
	op := (*pipeOp)(arg)
	op.done.Fire(e)
	e.pipeFree.Recycle(op, &op.done)
}

// TransferAfter reserves the pipe for bytes once ready fires and
// returns a signal fired when the transfer completes. The pipe is
// reserved only once ready fires, so other transfers may proceed in the
// meantime; a zero-byte transfer still pays the per-transfer overhead.
// The pending transfer's record returns to the engine's free list as
// the signal fires, so a run's pipe records are bounded by the
// transfers in flight.
//
//gat:hotpath
func (pp *Pipe) TransferAfter(ready *Signal, bytes int64) *Signal {
	op := pp.eng.pipeFree.Get()
	op.pp = pp
	op.bytes = bytes
	ready.OnFireArg(pp.eng, pipeOpStart, unsafe.Pointer(op))
	return &op.done
}

// Reserve books the pipe for bytes starting no earlier than earliest,
// updating the busy-until bookkeeping, and returns the occupancy window.
// It is a synchronous primitive for callers that compose multi-stage
// transfers (e.g. cut-through network paths); most callers should use
// TransferAfter instead. An earliest in the past is clamped to Now(): a
// reservation can never backdate occupancy, so a stage computed from a
// stale upstream start time still books forward-looking time only.
func (pp *Pipe) Reserve(earliest Time, bytes int64) (start, end Time) {
	if earliest < pp.eng.Now() {
		earliest = pp.eng.Now()
	}
	start = earliest
	if pp.freeAt > start {
		start = pp.freeAt
	}
	dur := pp.duration(bytes)
	end = start + dur
	pp.freeAt = end
	pp.busyAccum += dur
	if tr := pp.eng.tracer; tr != nil {
		tr.Add(Span{Resource: pp.name, Label: "xfer", Start: start, End: end, Bytes: bytes})
	}
	return start, end
}

// Utilization returns busy time divided by elapsed time since epoch.
func (pp *Pipe) Utilization() float64 {
	now := pp.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(pp.busyAccum) / float64(now)
}
