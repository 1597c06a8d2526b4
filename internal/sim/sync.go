package sim

import "unsafe"

// sigCB is one registered completion action, packed exactly like an
// event payload: fn == nil fires (*Signal)(arg), arg == nil calls the
// func() in fn, both non-nil calls the ArgFunc in fn with arg. The
// zero value means "no callback registered".
type sigCB struct {
	fn  unsafe.Pointer
	arg unsafe.Pointer
}

// Signal is a one-shot broadcast: it starts unfired, fires exactly once,
// and wakes every waiting proc and runs every registered callback when it
// does. Waiting on an already-fired signal completes immediately.
//
// Signals are the completion primitive used throughout the simulator:
// GPU events, network transfer completions, and request objects all
// expose Signals.
//
// A signal an operation hands out (Engine.NewSignal, AllOf,
// Engine.AfterSignal, Pipe.TransferAfter, the netsim transfers, the gpu
// stream operations) lives in a record that returns to a free list in
// the event that fires it, for a later operation to reuse. Such a
// *Signal is valid only until it fires; code that keeps one across an
// event holds a SignalRef instead.
//
// Signal stores its first waiter and first two callbacks inline: one
// each is the common case throughout the simulator (a request with one
// waiting rank, a transfer with one completion callback), and two
// callbacks is the next most common (an accounting hook plus the
// transfer start on one gate signal), so the inline slots make both
// allocation-free. Registration order is preserved — the inline slots
// are always the earliest registrations. The rare overflow lives behind
// one pointer, which keeps a Signal at 64 bytes: signals are embedded in
// every transfer, pipe and stream record, so their size is most of
// those records' memory.
type Signal struct {
	fired    bool
	pooled   bool   // from Engine.NewSignal: Fire recycles it
	dead     bool   // recycled, in the gatcheck build
	gen      uint32 // bumped as the signal fires; see SignalRef
	w0       *Proc
	ga       *waitAll
	cb0, cb1 sigCB
	more     *sigOverflow
}

// sigOverflow holds a signal's second and later waiters and third and
// later callbacks.
type sigOverflow struct {
	waiters   []*Proc
	callbacks []sigCB
}

// SignalRef refers to a signal across events: unlike a *Signal it stays
// valid after the signal fires and its record is reused, reading fired
// from then on, since its generation no longer matches the record's.
// The zero SignalRef refers to no signal and must not be read.
type SignalRef struct {
	s   *Signal
	gen uint32
}

// Ref returns a reference to s that outlives its firing.
//
//gat:hotpath
func (s *Signal) Ref() SignalRef {
	s.live()
	if s.fired {
		return SignalRef{s: firedSignal}
	}
	return SignalRef{s: s, gen: s.gen}
}

// Fired reports whether the referenced signal has fired.
//
//gat:hotpath
func (r SignalRef) Fired() bool { return r.s.gen != r.gen || r.s.fired }

// Signal returns the referenced signal while it is pending, or
// FiredSignal once it has fired; either is valid for immediate use.
//
//gat:hotpath
func (r SignalRef) Signal() *Signal {
	if r.Fired() {
		return firedSignal
	}
	return r.s
}

// live panics on a recycled signal in the gatcheck build.
func (s *Signal) live() {
	if checkRecycle && s.dead {
		panic("sim: use of a recycled signal: a handed-out *Signal is valid only until it fires; keep a SignalRef")
	}
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// NewSignal returns an unfired signal from the engine's free list,
// valid until it fires, when it returns there (see Signal). A signal
// that must outlive its firing goes through the package-level
// NewSignal.
//
//gat:hotpath
func (e *Engine) NewSignal() *Signal {
	s := e.sigFree.Get()
	s.pooled = true
	return s
}

// firedSignal is the shared already-fired signal. Safe to share across
// engines and goroutines: every Signal method is a pure read once fired
// (Fire is a no-op, Wait returns, OnFire and Chain only schedule).
var firedSignal = &Signal{fired: true}

// FiredSignal returns a signal that has already fired, useful as a
// no-op dependency. The same shared instance is returned every time;
// fired signals are immutable.
func FiredSignal() *Signal { return firedSignal }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { s.live(); return s.fired }

// Fire marks the signal fired, schedules all waiting procs to resume at
// the current time, and runs callbacks in registration order. A signal
// from Engine.NewSignal then returns to the engine's free list.
//
// A signal an operation hands out (see Signal) must be fired exactly
// once: after its first firing the record may already serve a later
// operation, so a second Fire or FireAt fires that operation's signal.
// Firing an already-fired signal is a no-op only for signals that are
// never recycled: those from the package-level NewSignal and
// FiredSignal.
//
// Waiters resume through the shared procResume dispatch and callbacks
// are re-queued in their stored payload form, so firing a signal
// allocates nothing regardless of fan-out.
//
//gat:hotpath
func (s *Signal) Fire(e *Engine) {
	s.live()
	if s.fired {
		return
	}
	s.fired = true
	s.gen++
	if s.w0 != nil {
		e.push(e.now, procResumePtr, unsafe.Pointer(s.w0))
		s.w0 = nil
	}
	more := s.more
	s.more = nil
	if more != nil {
		for _, p := range more.waiters {
			e.push(e.now, procResumePtr, unsafe.Pointer(p))
		}
	}
	if g := s.ga; g != nil {
		// Group wait: decrement at fire time, in the waiter slot of the
		// push order, so the group's single resume is pushed at exactly
		// the position a plain waiter's resume would occupy on the last
		// signal to fire (see Proc.WaitAll).
		s.ga = nil
		g.n--
		if g.n == 0 {
			e.push(e.now, procResumePtr, unsafe.Pointer(g.p))
		}
	}
	if s.cb0 != (sigCB{}) {
		e.push(e.now, s.cb0.fn, s.cb0.arg)
		s.cb0 = sigCB{}
	}
	if s.cb1 != (sigCB{}) {
		e.push(e.now, s.cb1.fn, s.cb1.arg)
		s.cb1 = sigCB{}
	}
	if more != nil {
		for _, cb := range more.callbacks {
			e.push(e.now, cb.fn, cb.arg)
		}
	}
	if s.pooled {
		e.sigFree.Recycle(s, s)
	}
}

// addCB appends a callback in registration order, filling the inline
// slots first.
func (s *Signal) addCB(cb sigCB) {
	if s.more == nil || len(s.more.callbacks) == 0 {
		if s.cb0 == (sigCB{}) {
			s.cb0 = cb
			return
		}
		if s.cb1 == (sigCB{}) {
			s.cb1 = cb
			return
		}
	}
	m := s.overflow()
	m.callbacks = append(m.callbacks, cb)
}

// overflow returns the signal's overflow record, creating it on first
// use.
func (s *Signal) overflow() *sigOverflow {
	if s.more == nil {
		s.more = &sigOverflow{}
	}
	return s.more
}

// OnFire registers cb to run (as a scheduled event) when the signal
// fires. If the signal already fired, cb is scheduled immediately.
func (s *Signal) OnFire(e *Engine, cb func()) {
	if s.Fired() {
		e.At(e.now, cb)
		return
	}
	s.addCB(sigCB{fn: fnToPtr(cb)})
}

// OnFireArg registers a static callback with a record argument, the
// allocation-free form of OnFire: the (fn, arg) pair is stored and
// later scheduled verbatim, no closure is created at any point. arg
// must be non-nil — a nil arg would make the stored pair ambiguous with
// the other payload forms.
//
//gat:hotpath
func (s *Signal) OnFireArg(e *Engine, fn ArgFunc, arg unsafe.Pointer) {
	if arg == nil {
		panic("sim: OnFireArg requires a non-nil arg")
	}
	if s.Fired() {
		e.push(e.now, argFnToPtr(fn), arg)
		return
	}
	s.addCB(sigCB{fn: argFnToPtr(fn), arg: arg})
}

// Chain arranges for dst to fire (as its own scheduled event) when s
// fires; if s has already fired, dst's firing is scheduled at the
// current time. Either way the link is carried in the fire-signal
// payload form, so chaining allocates nothing.
func (s *Signal) Chain(e *Engine, dst *Signal) {
	if s.Fired() {
		e.FireAt(e.now, dst)
		return
	}
	s.addCB(sigCB{arg: unsafe.Pointer(dst)})
}

// FireAt schedules s to fire at absolute time t. It is the
// allocation-free form of At(t, func() { s.Fire(e) }), the completion
// idiom of every transfer model (pipes, NICs, staging): the event
// carries the signal pointer directly instead of a closure.
//
//gat:hotpath
func (e *Engine) FireAt(t Time, s *Signal) { e.push(t, nil, unsafe.Pointer(s)) }

// delayOp carries one AfterSignal link: when the source signal fires,
// the op schedules its out signal to fire d later.
type delayOp struct {
	d   Time
	out Signal
}

// delayOpFire is the ArgFunc behind AfterSignal.
//
//gat:hotpath
func delayOpFire(e *Engine, arg unsafe.Pointer) {
	e.InjectAt(e.now+(*delayOp)(arg).d, delayOpDone, arg)
}

// delayOpDone fires the link's out signal and recycles the link.
//
//gat:hotpath
func delayOpDone(e *Engine, arg unsafe.Pointer) {
	op := (*delayOp)(arg)
	op.out.Fire(e)
	e.delayFree.Recycle(op, &op.out)
}

// AfterSignal returns a signal that fires d after sig fires. A
// non-positive delay returns sig itself. The link record comes from the
// engine's free list and returns there as the result fires.
//
//gat:hotpath
func (e *Engine) AfterSignal(sig *Signal, d Time) *Signal {
	if d <= 0 {
		return sig
	}
	op := e.delayFree.Get()
	op.d = d
	sig.OnFireArg(e, delayOpFire, unsafe.Pointer(op))
	return &op.out
}

func (s *Signal) addWaiter(p *Proc) {
	if s.w0 == nil && (s.more == nil || len(s.more.waiters) == 0) {
		s.w0 = p
		return
	}
	m := s.overflow()
	m.waiters = append(m.waiters, p)
}

// allOf is the record behind AllOf: a countdown of the inputs still
// unfired and the output signal.
type allOf struct {
	n   int
	out Signal
}

// allOfFire is the ArgFunc each unfired AllOf input runs when it fires;
// the last one fires the output and recycles the record.
//
//gat:hotpath
func allOfFire(e *Engine, arg unsafe.Pointer) {
	a := (*allOf)(arg)
	a.n--
	if a.n == 0 {
		a.out.Fire(e)
		e.allOfFree.Recycle(a, &a.out)
	}
}

// AllOf returns a signal that fires once every input signal has fired.
// With no unfired inputs it returns an already-fired signal. The
// countdown and output live in a record from the engine's free list,
// registered on each unfired input in the record-callback form, so the
// join allocates no closure; the record returns to the free list as the
// result fires.
//
//gat:hotpath
func AllOf(e *Engine, sigs ...*Signal) *Signal {
	remaining := 0
	for _, s := range sigs {
		if !s.Fired() {
			remaining++
		}
	}
	if remaining == 0 {
		return FiredSignal()
	}
	a := e.allOfFree.Get()
	a.n = remaining
	for _, s := range sigs {
		if !s.fired {
			s.OnFireArg(e, allOfFire, unsafe.Pointer(a))
		}
	}
	return &a.out
}

// Counter fires a signal after a fixed number of Add calls. It is used
// for completion reductions ("all chares reported done").
type Counter struct {
	remaining int
	sig       *Signal
}

// NewCounter returns a counter that fires after n calls to Add. n must
// be positive.
func NewCounter(n int) *Counter {
	if n <= 0 {
		panic("sim: counter needs positive count")
	}
	return &Counter{remaining: n, sig: NewSignal()}
}

// Add decrements the counter by one and fires the signal at zero.
// Calling Add more times than the initial count panics: it indicates a
// double-completion bug in the caller.
func (c *Counter) Add(e *Engine) {
	if c.remaining <= 0 {
		panic("sim: counter over-released")
	}
	c.remaining--
	if c.remaining == 0 {
		c.sig.Fire(e)
	}
}

// Remaining returns the number of outstanding Add calls.
func (c *Counter) Remaining() int { return c.remaining }

// Done returns the signal fired when the count reaches zero.
func (c *Counter) Done() *Signal { return c.sig }

// Queue is a FIFO queue with blocking Pop for procs. Push may be called
// from event or proc context.
//
// Items live in a slice with an explicit head index rather than being
// re-sliced off the front: re-slicing leaks capacity with every pop, so
// a steady push/pop cycle would reallocate continuously. With the head
// index the backing array is reused and the steady state allocates
// nothing. Waiters are woken through the shared procResume dispatch and
// removed by copy-down for the same reason.
type Queue[T any] struct {
	items   []T
	head    int // index of the queue front within items
	waiters []*Proc
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v and wakes the longest-waiting proc, if any. Wakeups
// are one-per-push: a push never wakes more than one waiter, and a
// woken waiter that finds the queue emptied (an event callback stole
// the item via TryPop) re-enters the wait list at the tail.
//
//gat:hotpath
func (q *Queue[T]) Push(e *Engine, v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		p := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:len(q.waiters)-1]
		e.push(e.now, procResumePtr, unsafe.Pointer(p))
	}
}

// TryPop removes and returns the head item if present.
//
//gat:hotpath
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero // release the slot for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Pop blocks the proc until an item is available, then removes and
// returns the head item.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.waiters = append(q.waiters, p)
		p.park()
	}
}
