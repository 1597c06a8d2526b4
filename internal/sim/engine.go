// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components (CPU schedulers, GPU engines, network links)
// share a single Engine with one virtual clock. Events fire in
// (time, insertion-sequence) order, so repeated runs with the same inputs
// produce bit-identical timelines. Two execution styles are supported:
//
//   - Event callbacks (Schedule/At) for passive components such as GPU
//     engines and NICs.
//   - Goroutine-backed processes (Spawn) for active components that need
//     blocking semantics, such as MPI ranks calling Waitall. The engine
//     runs at most one goroutine at a time and hands control back and
//     forth explicitly, preserving determinism.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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
// that compounds over the millions of transfers in a long sweep. Zero
// or negative bandwidth panics: it always indicates a miswired cost
// model rather than a recoverable condition.
func DurationOf(bytes int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 {
		panic("sim: non-positive bandwidth")
	}
	return Time(math.Floor(float64(bytes)/bytesPerSec*float64(Second) + 0.5))
}

// ArgFunc is a statically defined callback that receives its state as
// an untyped pointer. Scheduling (fn, arg) pairs lets a long-lived
// record — an arena-allocated transfer op, a proc — be dispatched
// through one shared top-level function, so registering or firing it
// allocates no closure. The arg must be non-nil (a nil arg selects the
// plain-callback payload form below).
type ArgFunc func(*Engine, unsafe.Pointer)

// event is one scheduled action, its payload packed into two pointer
// words so the event stays at 32 bytes — sift and copy operations move
// events, and a fatter event measurably slows the queue's hold
// workload. Three payload forms share the packing:
//
//	fn == nil             fire (*Signal)(arg) — the completion idiom of
//	                      every transfer model, carried without closure
//	arg == nil            call the func() packed in fn
//	fn, arg both non-nil  call the ArgFunc packed in fn with arg — the
//	                      record-callback form behind arena-allocated
//	                      transfer ops and proc wakeups
type event struct {
	at  Time
	seq uint64
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

// dispatch executes the event's action.
func (ev event) dispatch(e *Engine) {
	if ev.fn == nil {
		(*Signal)(ev.arg).Fire(e)
		return
	}
	if ev.arg == nil {
		ptrToFn(ev.fn)()
		return
	}
	ptrToArgFn(ev.fn)(e, ev.arg)
}

// eventHeap is the timed-event store: a monomorphic binary min-heap
// ordered by (at, seq), with the earliest pending event at index 0, so
// the run loop's lane/timed interleave check and Proc.Sleep's
// fast-forward probe peek it with one load. It deliberately avoids
// container/heap: the interface methods box every event and defeat
// inlining. The layout is binary because the workloads keep the heap
// shallow — a paper-figure sweep's median depth is a few hundred
// events — and a wider layout's per-level min-of-children scan costs
// more there than the levels it saves.
type eventHeap []event

// before reports whether a fires before b: earlier time, then earlier
// insertion sequence, so same-time events keep FIFO order.
func (a event) before(b event) bool { return a.precedes(b) != 0 }

// precedes is before as 0 or 1. It compares (at, seq) as one 128-bit
// unsigned number — at is never negative, since push rejects the past
// and the clock starts at zero — so popMin picks the earlier child with
// arithmetic instead of a branch that random fire times mispredict half
// the time.
func (a event) precedes(b event) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// pushEv inserts e, sifting it up toward the root. The sift holds e
// aside and shifts displaced parents down, one copy per level instead
// of a three-copy swap; in the common no-movement case (a new event
// later than its parent) nothing is written beyond the append.
//
//gat:hotpath
func (h *eventHeap) pushEv(e event) {
	q := append(*h, e)
	i := len(q) - 1
	if i > 0 && e.before(q[(i-1)/2]) {
		for i > 0 {
			p := (i - 1) / 2
			if !e.before(q[p]) {
				break
			}
			q[i] = q[p]
			i = p
		}
		q[i] = e
	}
	*h = q
}

// popMin removes and returns the earliest event. The vacated tail slot
// is zeroed so the backing array does not retain the moved event's
// closure; without that, a long sweep keeps every executed event's
// captured object graph alive until the whole heap is collected.
//
//gat:hotpath
func (h *eventHeap) popMin() event {
	q := *h
	min := q[0]
	n := len(q) - 1
	tail := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return min
	}
	// Sift the hole at the root down, pulling the smaller child up one
	// copy per level, until the displaced tail element fits.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += int(q[c+1].precedes(q[c]))
		}
		if !q[c].before(tail) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = tail
	return min
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
//
// Internally the engine keeps two event stores that together implement
// exact (time, sequence) order: a binary min-heap for timed events,
// and a FIFO lane for zero-delay events — the dominant class in a real
// simulation (signal wakeups, queue wakeups, yields, proc resumes).
// Because a zero-delay event both carries the current timestamp and
// outranks, by sequence, every timed event that could still be
// scheduled at that timestamp, FIFO order within the lane is exactly
// (time, seq) order; only timed events already queued at the current
// instant can outrank the lane head, and a single peek at the heap's
// root detects that.
type Engine struct {
	// Hot fields first, grouped so the run loop touches few cache
	// lines: every dispatched event reads now/seq/nEvents and one of
	// lane/timed.
	now     Time
	seq     uint64
	nEvents uint64 // total events executed, for diagnostics
	// limit is the bound of the RunUntil call currently executing.
	// Proc.Sleep consults it for the direct-resume fast path: a proc may
	// fast-forward the clock only within the active run window.
	limit   Time
	stopped bool
	// noLane routes zero-delay events through the timed queue instead
	// of the FIFO lane. Test hook only: the ordering-equivalence test
	// runs the same workload both ways and asserts identical order.
	noLane bool
	// inDrive marks an active RunUntil, where the event loop is driven
	// by whichever goroutine holds the execution token (see drive): a
	// parking proc keeps driving instead of switching back to the
	// RunUntil caller, halving the goroutine switches per park/resume
	// pair. Step clears it, keeping its one-event contract on the
	// legacy handshake.
	inDrive bool
	lane    eventLane
	timed   eventHeap

	handoff chan struct{} // procs signal here when they park or exit
	tracer  *Tracer

	// Per-engine arenas for the record types sim itself creates on the
	// hot path. Records live until the engine is discarded (or the
	// arenas are reset between runs by a caller that owns the engine);
	// see Arena for the lifetime contract.
	sigs     Arena[Signal]
	pipeOps  Arena[pipeOp]
	delayOps Arena[delayOp]
	waitAlls Arena[waitAll]
	allOfs   Arena[allOf]
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{handoff: make(chan struct{})}
}

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
		e.lane.push(laneEvent{seq: e.seq, fn: fn, arg: arg})
		return
	}
	e.timed.pushEv(event{at: t, seq: e.seq, fn: fn, arg: arg})
}

// Run executes events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(maxTime) }

// RunUntil executes events with timestamps <= limit, advancing the clock
// to each event's time. Events left in the queue remain schedulable by a
// later call. It returns the current virtual time when it stops.
//
// The run executes in token-passing mode: the caller's goroutine starts
// driving the event loop, and when an event resumes a proc, the
// execution token — and with it the loop — moves to that proc's
// goroutine directly (see drive). The event order is exactly the
// (time, seq) order an engine-driven loop would produce; only which
// goroutine pops each event changes.
//
//gat:hotpath
func (e *Engine) RunUntil(limit Time) Time {
	e.stopped = false
	e.limit = limit
	e.inDrive = true
	e.drive(nil)
	e.inDrive = false
	return e.now
}

// drive runs the event loop on the calling goroutine — the RunUntil
// caller (self == nil) or a parking proc — until the run ends or the
// token moves on.
//
// The loop drains the whole same-timestamp batch from the zero-delay
// lane before consulting the timed queue for a clock advance; timed
// events that share the current timestamp (necessarily scheduled
// earlier, so with smaller sequence numbers) are interleaved ahead of
// the lane by a single peek of the heap's root, never a re-sort.
//
// Proc resume events are intercepted by payload identity (fn ==
// procResumePtr) instead of dispatched: popping one's own resume means
// the park is over (the proc returns to user code with zero goroutine
// switches — the common Sleep shape, where the sleeper pops its own
// wakeup); popping another proc's resume hands the token to that proc
// in one switch. The RunUntil caller parks on the handoff channel
// while procs hold the token, and receives it back — uniformly meaning
// "continue driving" — when a proc exits or ends the run.
//
//gat:hotpath
func (e *Engine) drive(self *Proc) {
	for !e.stopped {
		var fn, arg unsafe.Pointer
		if e.lane.n > 0 {
			// Lane entries are stamped with the current time; if even
			// that is past the limit they must stay queued.
			if e.now > e.limit {
				break
			}
			if len(e.timed) > 0 && e.timed[0].at == e.now && e.timed[0].seq < e.lane.peekSeq() {
				ev := e.timed.popMin()
				fn, arg = ev.fn, ev.arg
			} else {
				le := e.lane.pop()
				fn, arg = le.fn, le.arg
			}
		} else {
			if len(e.timed) == 0 {
				break
			}
			if e.timed[0].at > e.limit {
				if e.limit > e.now {
					e.now = e.limit
				}
				break
			}
			ev := e.timed.popMin()
			e.now = ev.at
			fn, arg = ev.fn, ev.arg
		}
		e.nEvents++
		if fn == procResumePtr {
			p := (*Proc)(arg)
			if p == self {
				// Our own resume: the park is over and this goroutine
				// already holds the token.
				return
			}
			if p.exited {
				//gat:alloc-ok cold panic path
				panic("sim: resuming exited proc " + p.name)
			}
			p.wake <- struct{}{}
			if self == nil {
				// The token comes back when a proc exits or ends the
				// run; either way, resume driving.
				<-e.handoff
				continue
			}
			// Token handed on; wait for our own resume to be dispatched
			// by whoever drives then.
			<-self.wake
			return
		}
		if fn == nil {
			(*Signal)(arg).Fire(e)
			continue
		}
		if arg == nil {
			ptrToFn(fn)()
			continue
		}
		ptrToArgFn(fn)(e, arg)
	}
	if self != nil {
		// Run over while a proc held the token: hand it back to the
		// RunUntil caller and park until a later run resumes us.
		e.handoff <- struct{}{}
		<-self.wake
	}
}

// InjectAt schedules a statically dispatched (fn, arg) pair at absolute
// time t. It is the allocation-free form of At for callers that keep
// per-call state in a record instead of a closure (gpu stream
// callbacks, charm's scheduled side effects): it pushes the event At
// would push, at the same queue position; only the payload form
// differs, and arg must be non-nil. It is also the cross-engine
// injection seam of the conservative PDES layer (internal/pdes): a
// coordinator that owns several parked engines
// calls it between lookahead windows to deliver merged cross-shard
// messages; sequence numbers are assigned in call order, so injecting a
// batch in sorted (time, source, sequence) order makes the receiving
// engine's execution order independent of how the batch was produced.
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
	if len(e.timed) > 0 {
		return e.timed[0].at, true
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
	e.inDrive = false
	if e.lane.n > 0 {
		if len(e.timed) > 0 && e.timed[0].at == e.now && e.timed[0].seq < e.lane.peekSeq() {
			ev := e.timed.popMin()
			e.nEvents++
			ev.dispatch(e)
			return true
		}
		le := e.lane.pop()
		e.nEvents++
		le.dispatch(e)
		return true
	}
	if len(e.timed) == 0 {
		return false
	}
	ev := e.timed.popMin()
	e.now = ev.at
	e.nEvents++
	ev.dispatch(e)
	return true
}

// Stop halts Run/RunUntil after the current event completes. Pending
// events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return len(e.timed) == 0 && e.lane.n == 0 }

// ResetArenas frees all engine-arena records (signals, pipe and delay
// ops, group-wait and AllOf joins) at once, keeping chunk capacity so the next run reuses the same
// warm memory. It may only be called at a run boundary: the engine must
// be idle, and the caller must guarantee no record pointer from before
// the reset — no *Signal from Engine.NewSignal, no signal returned by
// Pipe.TransferAfter, Engine.AfterSignal or AllOf — is used afterwards.
func (e *Engine) ResetArenas() {
	if !e.Idle() {
		panic("sim: ResetArenas with events pending")
	}
	e.sigs.Reset()
	e.pipeOps.Reset()
	e.delayOps.Reset()
	e.waitAlls.Reset()
	e.allOfs.Reset()
}
