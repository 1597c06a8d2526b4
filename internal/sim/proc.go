package sim

import (
	"iter"
	"unsafe"
)

// Proc is a simulated process run as a coroutine. Procs provide
// blocking semantics (Sleep, Wait, Queue.Pop) on top of the event
// engine: the event loop resumes a proc at its resume event, and the
// proc runs until it blocks, when control returns to the loop. So at
// most one proc runs at a time, and it runs at a point of the event
// order, which keeps execution deterministic.
//
// Procs are used for components whose natural expression is sequential
// blocking code — MPI ranks calling Waitall, for example. Purely reactive
// components should use event callbacks instead, which are cheaper.
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // runs the coroutine until it parks or returns
	yield  func(struct{}) bool     // parks the coroutine, returning from next
	done   *Signal
	exited bool
}

// procResume is the shared resume dispatch: every wakeup of any proc —
// Sleep expiry, Signal.Fire, Queue.Push — schedules this one top-level
// function with the proc as its argument, so the steady-state resume
// path allocates nothing and procs carry no per-proc thunk.
func procResume(e *Engine, arg unsafe.Pointer) { e.resume((*Proc)(arg)) }

// procResumePtr is procResume pre-packed into event payload form.
// Top-level funcvals are static, so this is a one-time conversion.
var procResumePtr = argFnToPtr(procResume)

// Spawn creates a proc running fn and schedules its first execution at
// the current virtual time. fn runs as a coroutine (iter.Pull) that
// only the event loop resumes; a panic in fn propagates out of the Run
// or Step call that resumed it.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, done: NewSignal()}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.exited = true
		p.done.Fire(e)
	})
	e.push(e.now, procResumePtr, unsafe.Pointer(p))
	return p
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Done returns a signal fired when the proc's function returns.
func (p *Proc) Done() *Signal { return p.done }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// resume runs p from where it parked until it parks again or returns.
//
//gat:hotpath
func (e *Engine) resume(p *Proc) {
	if p.exited {
		//gat:alloc-ok cold panic path
		panic("sim: resuming exited proc " + p.name)
	}
	p.next()
}

// park suspends the proc, returning control to the event loop, until
// the loop dispatches the proc's resume event.
//
//gat:hotpath
func (p *Proc) park() { p.yield(struct{}{}) }

// Sleep suspends the proc for duration d of virtual time.
//
// If no other event can possibly run before the wake time — the
// zero-delay lane is empty, the timed queue's earliest event is later
// than the wake time, and the wake time is within the active run window
// — the proc fast-forwards the clock and keeps running. Parking would
// hand control to the engine only for it to resume this proc
// immediately, so skipping the resume event and both coroutine switches
// is observably identical (the engine is single-threaded: no new events
// can appear while this proc holds control).
//
//gat:hotpath
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	target := e.now + d
	// target < e.now means the addition overflowed; fall through so push
	// reports it loudly instead of moving the clock backward.
	if target >= e.now && e.lane.n == 0 && target <= e.limit &&
		(e.timed.empty() || e.timed.minAt() > target) {
		e.now = target
		return
	}
	e.push(target, procResumePtr, unsafe.Pointer(p))
	p.park()
}

// Wait blocks until s fires. If s has already fired, Wait returns
// immediately without yielding.
func (p *Proc) Wait(s *Signal) {
	if s.Fired() {
		return
	}
	s.addWaiter(p)
	p.park()
}

// waitAll is the record behind a group wait: a countdown of unfired
// signals and the proc to resume when it reaches zero. Each member
// signal holds a pointer to the record and decrements it at fire time
// (see Signal.Fire); the last one resumes the proc.
type waitAll struct {
	n int
	p *Proc
}

// WaitAll blocks until every signal refs refer to has fired, parking at
// most once regardless of how many are still pending. Fired and
// duplicate references are skipped; the countdown record comes from the
// engine's free list only when a member is pending, and returns there
// when the proc resumes.
//
// Every member is counted in the calling event, before the park, so
// the proc is always parked when its last member fires. That fire
// pushes the single resume at the position in its push order a plain
// waiter's resume would occupy, so replacing a chain of in-order Waits
// with one WaitAll leaves the execution order of every other event, and
// therefore the simulated timeline, unchanged. Only the intermediate
// wake-check-repark round trips (pure overhead: they run no user code
// and schedule nothing) are elided.
//
// A signal belongs to at most one group wait at a time: a WaitAll on a
// signal another proc's WaitAll still holds panics.
func (p *Proc) WaitAll(refs ...SignalRef) {
	var wa *waitAll
	for _, r := range refs {
		s := r.Signal()
		if s.Fired() || (wa != nil && s.ga == wa) {
			continue
		}
		if s.ga != nil {
			panic("sim: " + p.name + " group-waits a signal another proc's WaitAll holds")
		}
		if wa == nil {
			wa = p.eng.waitFree.Get()
			wa.p = p
		}
		s.ga = wa
		wa.n++
	}
	if wa == nil {
		return
	}
	p.park()
	// Every member has fired and cleared its slot, so nothing
	// references the countdown any more.
	p.eng.waitFree.Put(wa)
}

// Yield reschedules the proc at the current time, letting other events
// and procs at this timestamp run first.
func (p *Proc) Yield() { p.Sleep(0) }
