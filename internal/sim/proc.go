package sim

import "unsafe"

// Proc is a goroutine-backed simulated process. Procs provide blocking
// semantics (Sleep, Wait, Queue.Pop) on top of the event engine: at most
// one proc runs at any real-time instant, and control transfers between
// the engine and procs are explicit, so execution remains deterministic.
//
// Procs are used for components whose natural expression is sequential
// blocking code — MPI ranks calling Waitall, for example. Purely reactive
// components should use event callbacks instead, which are cheaper.
type Proc struct {
	eng    *Engine
	name   string
	wake   chan struct{}
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
// the current virtual time. fn runs in its own goroutine but only while
// the engine has handed control to it.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, wake: make(chan struct{}), done: NewSignal()}
	go func() {
		<-p.wake
		fn(p)
		p.exited = true
		p.done.Fire(e)
		e.handoff <- struct{}{}
	}()
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

// resume hands control to p and blocks until p parks or exits. This is
// the legacy engine-driven handshake used by Step's single-event
// dispatch; RunUntil's token-passing loop intercepts resume events
// before dispatch instead (see Engine.drive).
func (e *Engine) resume(p *Proc) {
	if p.exited {
		panic("sim: resuming exited proc " + p.name)
	}
	p.wake <- struct{}{}
	<-e.handoff
}

// park blocks the proc until resumed. Inside a RunUntil the parking
// proc holds the execution token, so instead of switching back to the
// engine it drives the event loop itself until its own resume event
// comes up (see Engine.drive). Outside a run — a proc woken by Step —
// it returns control over the legacy handoff channel. A wake received
// while blocked here always means "your resume event was dispatched;
// you own execution now", regardless of which mode dispatched it.
func (p *Proc) park() {
	e := p.eng
	if e.inDrive {
		e.drive(p)
		return
	}
	e.handoff <- struct{}{}
	<-p.wake
}

// Sleep suspends the proc for duration d of virtual time.
//
// If no other event can possibly run before the wake time — the
// zero-delay lane is empty, the timed queue's earliest event is later
// than the wake time, and the wake time is within the active run window
// — the proc fast-forwards the clock and keeps running. Parking would
// hand control to the engine only for it to resume this proc
// immediately, so skipping the resume event and both goroutine handoffs
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
		(len(e.timed) == 0 || e.timed[0].at > target) {
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

// waitAll is the arena-allocated record behind a group wait: a countdown
// of unfired signals and the proc to resume when it reaches zero. Each
// member signal holds a pointer to the record and decrements it at fire
// time (see Signal.Fire).
type waitAll struct {
	n int
	p *Proc
}

// WaitSet accumulates signals for a single group wait: Add registers any
// number of signals, Wait parks the proc at most once until every added
// signal has fired. It is the incremental form of WaitAll for callers
// that would otherwise have to build a []*Signal (MPI Waitall over
// request records, for example). A WaitSet is a one-shot stack value:
// obtain it from Proc.NewWaitSet, use it, drop it.
type WaitSet struct {
	p    *Proc
	wa   *waitAll
	n    int
	rest []*Signal // signals whose group slot another WaitSet already holds
}

// NewWaitSet returns an empty wait set for the proc. The set allocates
// its countdown record from the engine arena on the first unfired Add,
// so a set over already-fired signals costs nothing.
func (p *Proc) NewWaitSet() WaitSet { return WaitSet{p: p} }

// Add registers s as a member of the group. Already-fired signals and
// duplicates are skipped.
func (g *WaitSet) Add(s *Signal) {
	if s.fired {
		return
	}
	if g.wa == nil {
		g.wa = g.p.eng.waitAlls.New()
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
		g.rest = append(g.rest, s)
		return
	}
	s.ga = g.wa
	g.n++
}

// Wait parks the proc until every signal added to the set has fired,
// then consumes the set.
//
// The park resumes through a single event pushed by the chronologically
// last signal to fire, at the same position in that fire's push order a
// plain waiter would occupy — so replacing a chain of in-order Waits
// with one WaitSet leaves the execution order of every other event,
// and therefore the simulated timeline, unchanged. Only the
// intermediate wake-check-repark round trips (pure overhead: they run
// no user code and schedule nothing) are elided.
func (g *WaitSet) Wait() {
	if g.n > 0 {
		g.wa.n = g.n
		g.p.park()
	}
	for _, s := range g.rest {
		g.p.Wait(s)
	}
	g.wa, g.n, g.rest = nil, 0, nil
}

// WaitAll blocks until every signal in sigs has fired, parking at most
// once regardless of how many are still pending.
func (p *Proc) WaitAll(sigs ...*Signal) {
	g := p.NewWaitSet()
	for _, s := range sigs {
		g.Add(s)
	}
	g.Wait()
}

// Yield reschedules the proc at the current time, letting other events
// and procs at this timestamp run first.
func (p *Proc) Yield() { p.Sleep(0) }
