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
	if target >= e.now && e.lane.n == 0 && !e.stopped && target <= e.limit &&
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
// (see Signal.Fire); the last one resumes the proc if it has parked.
type waitAll struct {
	n      int
	parked bool
	p      *Proc
}

// WaitSet accumulates signals for a single group wait: Add registers any
// number of signals, Wait parks the proc at most once until every added
// signal has fired. It is the incremental form of WaitAll for callers
// that would otherwise have to build a []SignalRef; a member may fire
// between its Add and the Wait. A WaitSet is a one-shot stack value:
// obtain it from Proc.NewWaitSet, use it, drop it.
type WaitSet struct {
	p    *Proc
	wa   *waitAll
	rest []SignalRef // signals whose group slot another WaitSet already holds
}

// NewWaitSet returns an empty wait set for the proc. The set takes its
// countdown record from the engine's free list on the first unfired
// Add, so a set over already-fired signals costs nothing, and returns
// it when Wait resumes.
func (p *Proc) NewWaitSet() WaitSet { return WaitSet{p: p} }

// Add registers s as a member of the group. Already-fired signals and
// duplicates are skipped.
func (g *WaitSet) Add(s *Signal) {
	if s.Fired() {
		return
	}
	if g.wa == nil {
		g.wa = g.p.eng.waitFree.Get()
		g.wa.p = g.p
	}
	if s.ga == g.wa {
		return // duplicate signal in the same set
	}
	if s.ga != nil {
		// Another in-flight group wait already holds this signal's slot
		// (two procs group-waiting one signal — never the case in the
		// simulator today); fall back to an in-order wait after the
		// group parks.
		//gat:alloc-ok cold contended-slot fallback
		g.rest = append(g.rest, s.Ref())
		return
	}
	s.ga = g.wa
	g.wa.n++
}

// Wait parks the proc until every signal added to the set has fired,
// then consumes the set. Members that fired between Add and Wait are
// already counted off, so a set whose members have all fired does not
// park.
//
// The park resumes through a single event pushed by the chronologically
// last signal to fire, at the same position in that fire's push order a
// plain waiter would occupy — so replacing a chain of in-order Waits
// with one WaitSet leaves the execution order of every other event,
// and therefore the simulated timeline, unchanged. Only the
// intermediate wake-check-repark round trips (pure overhead: they run
// no user code and schedule nothing) are elided.
func (g *WaitSet) Wait() {
	if wa := g.wa; wa != nil {
		if wa.n > 0 {
			wa.parked = true
			g.p.park()
		}
		// Every member has fired and cleared its slot, so nothing
		// references the countdown any more.
		g.p.eng.waitFree.Put(wa)
	}
	for _, r := range g.rest {
		g.p.Wait(r.Signal())
	}
	g.wa, g.rest = nil, nil
}

// WaitAll blocks until every signal refs refer to has fired, parking at
// most once regardless of how many are still pending.
func (p *Proc) WaitAll(refs ...SignalRef) {
	g := p.NewWaitSet()
	for _, r := range refs {
		g.Add(r.Signal())
	}
	g.Wait()
}

// Yield reschedules the proc at the current time, letting other events
// and procs at this timestamp run first.
func (p *Proc) Yield() { p.Sleep(0) }
