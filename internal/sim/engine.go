// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components (CPU schedulers, GPU engines, network links)
// share a single Engine with one virtual clock. Events fire in
// (time, insertion-sequence) order, so repeated runs with the same inputs
// produce bit-identical timelines. Two execution styles are supported:
//
//   - Event callbacks (Schedule/At) for passive components such as GPU
//     engines and NICs.
//   - Coroutine processes (Spawn) for active components that need
//     blocking semantics, such as MPI ranks calling Waitall. The event
//     loop resumes a proc like any other event, and the proc runs until
//     it blocks, when control returns to the loop, so execution stays
//     deterministic.
package sim

import (
	"fmt"
	"math"
	"unsafe"
)

// Time is a virtual time instant or duration in nanoseconds.
// The zero value is the simulation epoch.
type Time int64

// Convenient duration units, mirroring package time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// maxTime is the largest representable instant, used as the limit of an
// unbounded Run.
const maxTime = Time(1<<62 - 1)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats t with an adaptive unit, e.g. "12.50ms" or "340ns".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// DurationOf converts a byte count and a bandwidth in bytes/second into a
// transfer duration, rounded half-up to the nearest nanosecond.
// Truncating instead would shave up to 1ns off every transfer, a bias
// that compounds over the millions of transfers in a long sweep. A zero,
// negative or NaN bandwidth panics, and so does a duration at or past
// maxTime (about 146 years), which no Time can hold: either always
// indicates a miswired cost model rather than a recoverable condition.
func DurationOf(bytes int64, bytesPerSec float64) Time {
	if !(bytesPerSec > 0) {
		panic("sim: non-positive or NaN bandwidth")
	}
	d := math.Floor(float64(bytes)/bytesPerSec*float64(Second) + 0.5)
	if d >= float64(maxTime) {
		panic("sim: transfer duration past the largest Time")
	}
	return Time(d)
}

// ArgFunc is a statically defined callback that receives its state as
// an untyped pointer. Scheduling (fn, arg) pairs lets a long-lived
// record — a recycled transfer op, a proc — be dispatched
// through one shared top-level function, so registering or firing it
// allocates no closure. The arg must be non-nil (a nil arg selects the
// plain-callback payload form below).
type ArgFunc func(*Engine, unsafe.Pointer)

// event is one pending action, its payload packed into two pointer
// words. The lane and the timed store both hold events; neither keeps a
// time per event, since a lane event runs at the current instant and a
// timed store bucket holds one instant's events. Three payload forms
// share the packing:
//
//	fn == nil             fire (*Signal)(arg) — the completion idiom of
//	                      every transfer model, carried without closure
//	arg == nil            call the func() packed in fn
//	fn, arg both non-nil  call the ArgFunc packed in fn with arg — the
//	                      record-callback form behind recycled
//	                      transfer ops and proc wakeups
//
// An event carries no sequence number: the lane and each bucket are
// FIFOs, so their order is push order, and the timed store keys a
// bucket by the engine-wide sequence of the push that opens it (see
// eventHeap.push). Two pointer words keep the lane ring's and the timed
// chunks' slots at 16 bytes.
type event struct {
	fn  unsafe.Pointer // *funcval of a func() or ArgFunc; nil for fire-signal
	arg unsafe.Pointer // *Signal, or the ArgFunc's record argument
}

// fnToPtr extracts a func value's single-word runtime representation.
// Storing it in an unsafe.Pointer field keeps the closure reachable for
// the GC (the field is scanned as a pointer).
func fnToPtr(fn func()) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&fn)) }

// ptrToFn reconstitutes a func value packed by fnToPtr.
func ptrToFn(p unsafe.Pointer) func() { return *(*func())(unsafe.Pointer(&p)) }

// argFnToPtr packs an ArgFunc the same way. Top-level functions have
// static funcvals, so converting one allocates nothing.
func argFnToPtr(fn ArgFunc) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&fn)) }

// ptrToArgFn reconstitutes an ArgFunc packed by argFnToPtr.
func ptrToArgFn(p unsafe.Pointer) ArgFunc { return *(*ArgFunc)(unsafe.Pointer(&p)) }

// Engine is a discrete-event simulator. Construct one with NewEngine.
//
// Internally the engine keeps two event stores that together implement
// exact (time, sequence) order: a heap of same-instant FIFO buckets for
// timed events (eventHeap), and a FIFO lane for zero-delay events — the
// dominant class in a real simulation (signal wakeups, queue wakeups,
// yields, proc resumes). Because a zero-delay event both carries the
// current timestamp and outranks, by sequence, every timed event that
// could still be scheduled at that timestamp, FIFO order within the
// lane is exactly (time, seq) order. A timed event already queued at
// the current instant was pushed before the clock reached it, so before
// every lane event: it always runs first (see step).
type Engine struct {
	// Hot fields first, grouped so the run loop touches few cache
	// lines: every dispatched event reads now/seq/nEvents and one of
	// lane/timed.
	now     Time
	seq     uint64
	nEvents uint64 // total events executed, for diagnostics
	// limit is the bound of the RunUntil call currently executing, or
	// maxTime under Step. Proc.Sleep consults it for the direct-resume
	// fast path: a proc may fast-forward the clock only within the
	// active run window.
	limit Time
	// noLane routes zero-delay events through the timed queue instead
	// of the FIFO lane. Test hook only: the ordering-equivalence test
	// runs the same workload with and without it and asserts identical
	// order.
	noLane bool
	lane   eventLane
	timed  eventHeap

	tracer *Tracer

	// Free lists of the records sim creates on the hot path. Each
	// record returns to its list in the event that fires its signal (or,
	// for group waits, when the group resumes), so a run's records are
	// bounded by the operations in flight.
	sigFree   FreeList[Signal]
	pipeFree  FreeList[pipeOp]
	delayFree FreeList[delayOp]
	allOfFree FreeList[allOf]
	waitFree  FreeList[waitAll]
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsExecuted returns the number of events processed so far.
func (e *Engine) EventsExecuted() uint64 { return e.nEvents }

// Tracer returns the engine's tracer, or nil if tracing is disabled.
func (e *Engine) Tracer() *Tracer { return e.tracer }

// SetTracer installs a tracer; pass nil to disable tracing.
func (e *Engine) SetTracer(tr *Tracer) { e.tracer = tr }

// Schedule queues fn to run after delay d. A non-positive delay schedules
// the event at the current time, ordered after already-queued events at
// that time.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// At queues fn to run at absolute time t, which must not be in the past.
// Zero-delay events (t equal to the current time) take the FIFO lane,
// skipping the timed queue entirely while keeping exact (time, seq)
// order.
//
//gat:hotpath
func (e *Engine) At(t Time, fn func()) { e.push(t, fnToPtr(fn), nil) }

// push routes an event — in any payload form — to the lane or the
// timed queue.
//
//gat:hotpath
func (e *Engine) push(t Time, fn, arg unsafe.Pointer) {
	if t < e.now {
		//gat:alloc-ok cold panic path; formatting cost is irrelevant once the engine is wedged
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	e.seq++
	if t == e.now && !e.noLane {
		e.lane.push(event{fn: fn, arg: arg})
		return
	}
	e.timed.push(t, e.seq, event{fn: fn, arg: arg})
}

// Run executes events until the queue is empty. It returns the final
// virtual time.
func (e *Engine) Run() Time { return e.RunUntil(maxTime) }

// RunUntil executes events with timestamps <= limit, advancing the clock
// to each event's time. Events left in the queue remain schedulable by a
// later call. It returns the current virtual time when it stops.
//
//gat:hotpath
func (e *Engine) RunUntil(limit Time) Time {
	e.limit = limit
	for e.step() {
	}
	if e.lane.n == 0 && !e.timed.empty() && e.limit > e.now {
		// Only events past the limit remain: the window has run out.
		e.now = e.limit
	}
	return e.now
}

// SetLimit moves the end of the running window to t and returns the
// previous end. Called from an event of a RunUntil (or Run), it lets a
// model stop its own run at an instant it learns only while running:
// RunUntil returns once no pending event is at or before t. Calling it
// again with the returned value reopens the original window. The end
// also bounds Proc.Sleep's fast-forward, so a lowered limit can turn a
// sleeping proc's fast-forward into an event; a model that relies on
// unchanged event counts must not run sleeping procs under it. Step
// resets the window for each event.
func (e *Engine) SetLimit(t Time) Time {
	old := e.limit
	e.limit = t
	return old
}

// step pops the earliest pending event with a timestamp within the run
// window (e.limit) and executes it, reporting whether one ran. It is
// the whole event loop: RunUntil calls it until the window is drained,
// Step calls it once.
//
// The zero-delay lane's whole same-timestamp batch runs before the
// timed queue is consulted for a clock advance. Timed events that share
// the current timestamp run ahead of the whole lane: push sends every
// event for the current instant to the lane, so a timed event at that
// instant was pushed while the clock was still earlier, before any lane
// event of the instant, and has the smaller sequence number. A proc's
// resume event is an ArgFunc event like any other (see procResume).
//
//gat:hotpath
func (e *Engine) step() bool {
	var ev event
	if e.lane.n > 0 {
		// Lane entries are stamped with the current time; if even that
		// is past the limit they must stay queued.
		if e.now > e.limit {
			return false
		}
		if !e.timed.empty() && e.timed.minAt() == e.now {
			_, ev = e.timed.pop()
		} else {
			ev = e.lane.pop()
		}
	} else {
		if e.timed.empty() || e.timed.minAt() > e.limit {
			return false
		}
		e.now, ev = e.timed.pop()
	}
	e.nEvents++
	switch {
	case ev.fn == nil:
		(*Signal)(ev.arg).Fire(e)
	case ev.arg == nil:
		ptrToFn(ev.fn)()
	default:
		ptrToArgFn(ev.fn)(e, ev.arg)
	}
	return true
}

// InjectAt schedules a statically dispatched (fn, arg) pair at absolute
// time t. It is the allocation-free form of At for callers that keep
// per-call state in a record instead of a closure (gpu stream
// callbacks, charm's scheduled side effects): it pushes the event At
// would push, at the same queue position; only the payload form
// differs, and arg must be non-nil. It is also the cross-engine seam
// of the conservative PDES layer (internal/pdes): the coordinator that
// owns several parked engines calls it between lookahead windows to
// schedule the delivery of the cross-shard messages it files.
// Like every scheduling entry point it must only be called while the
// engine is not running (or from within one of its own events), and t
// must not be in the past.
//
//gat:hotpath
func (e *Engine) InjectAt(t Time, fn ArgFunc, arg unsafe.Pointer) {
	e.push(t, argFnToPtr(fn), arg)
}

// NextEventTime returns the timestamp of the earliest pending event and
// whether one exists. It is the window-bound query of the conservative
// PDES layer: the coordinator takes the minimum across shards to place
// the next lookahead window. Lane events carry the current time.
func (e *Engine) NextEventTime() (Time, bool) {
	if e.lane.n > 0 {
		return e.now, true
	}
	if !e.timed.empty() {
		return e.timed.minAt(), true
	}
	return 0, false
}

// Step executes the single earliest pending event, advancing the clock
// to its timestamp. It reports whether an event ran. Useful for
// lock-step debugging and for benchmarking the event loop itself.
// A proc resumed by the event may fast-forward through sleeps that
// nothing else could interleave with (see Proc.Sleep), so one Step can
// advance the clock past the event's own timestamp.
func (e *Engine) Step() bool {
	e.limit = maxTime
	return e.step()
}

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return e.timed.empty() && e.lane.n == 0 }
