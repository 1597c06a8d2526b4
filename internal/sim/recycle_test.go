package sim_test

import (
	"testing"
	"unsafe"

	"gat/internal/gpu"
	"gat/internal/netsim"
	"gat/internal/sim"
)

// family is one record family that recycles as its signal fires:
// issue starts an operation on e and returns the signal it hands out,
// which fires within a few hundred nanoseconds.
type family struct {
	name  string
	e     *sim.Engine
	issue func() *sim.Signal
}

// families returns each recycling record family on its own engine.
func families() []family {
	later := func(e *sim.Engine, d sim.Time) *sim.Signal {
		s := e.NewSignal()
		e.FireAt(e.Now()+d, s)
		return s
	}
	e := make([]*sim.Engine, 6)
	for i := range e {
		e[i] = sim.NewEngine()
	}
	pipe := sim.NewPipe(e[3], "pipe", 1e9, 0)
	net := netsim.New(e[4], netsim.Summit(), 2)
	stream := gpu.New(e[5], "gpu", gpu.V100()).NewStream("s", gpu.PriorityNormal)
	return []family{
		{"engine-signal", e[0], func() *sim.Signal { return later(e[0], 10) }},
		{"allof", e[1], func() *sim.Signal { return sim.AllOf(e[1], later(e[1], 10), later(e[1], 20)) }},
		{"after-signal", e[2], func() *sim.Signal { return e[2].AfterSignal(later(e[2], 10), 5) }},
		{"pipe-op", e[3], func() *sim.Signal { return pipe.TransferAfter(sim.FiredSignal(), 100) }},
		{"transfer-op", e[4], func() *sim.Signal { return net.Transfer(0, 1, 100, sim.FiredSignal()) }},
		{"gpu-op", e[5], func() *sim.Signal { return stream.Kernel("k", 10) }},
	}
}

// TestSignalRefReadsFiredAfterReuse checks every recycling record
// family: the handed-out signal runs its callbacks when it fires, its
// record is reused by the next operation of the family, and a SignalRef
// taken before the firing reads fired while the record serves that new,
// unfired operation.
func TestSignalRefReadsFiredAfterReuse(t *testing.T) {
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			e := f.e
			first := f.issue()
			ref := first.Ref()
			if ref.Fired() {
				t.Fatal("reference to a pending signal reads fired")
			}
			ran := 0
			first.OnFire(e, func() { ran++ })
			e.Run()
			if ran != 1 {
				t.Fatalf("callback ran %d times, want 1", ran)
			}
			if !ref.Fired() || ref.Signal() != sim.FiredSignal() {
				t.Fatal("reference reads pending after its signal fired")
			}

			second := f.issue()
			if sim.Recycles && second != first {
				t.Fatal("the next operation did not reuse the recycled record")
			}
			if second.Fired() || second.Ref().Fired() {
				t.Fatal("the reused record's new signal reads fired")
			}
			if !ref.Fired() || ref.Signal() != sim.FiredSignal() {
				t.Fatal("stale reference reads the reused record's pending signal")
			}
			second.OnFire(e, func() { ran++ })
			e.Run()
			if ran != 2 {
				t.Fatalf("reused record ran %d callbacks in all, want 2", ran)
			}
		})
	}
}

// TestWaitAllReadsStaleRefsFired checks that a group wait over
// references skips a member whose record already serves a later,
// pending operation, and resumes when the last live member fires.
func TestWaitAllReadsStaleRefsFired(t *testing.T) {
	e := sim.NewEngine()
	early, late := e.NewSignal(), e.NewSignal()
	e.FireAt(10, early)
	e.FireAt(30, late)
	refs := []sim.SignalRef{early.Ref(), late.Ref()}
	var resumed sim.Time
	e.Spawn("w", func(p *sim.Proc) {
		p.Sleep(20)
		reuse := e.NewSignal()
		if sim.Recycles && reuse != early {
			t.Error("the new signal did not reuse the fired record")
		}
		e.FireAt(100, reuse)
		p.WaitAll(refs...)
		resumed = p.Now()
	})
	e.Run()
	if resumed != 30 {
		t.Fatalf("WaitAll resumed at %d, want 30", resumed)
	}
}

// panics reports whether fn panics.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestStaleSignalPanicsInCheckBuild checks the gatcheck build's stale
// handle detection: every use of a signal whose record was recycled
// panics, while a SignalRef to it reads fired.
func TestStaleSignalPanicsInCheckBuild(t *testing.T) {
	if sim.Recycles {
		t.Skip("stale handles are detected only in the gatcheck build")
	}
	var rec int
	// inProc runs use in a proc and reports whether it panicked there.
	inProc := func(e *sim.Engine, use func(p *sim.Proc)) bool {
		var panicked bool
		e.Spawn("w", func(p *sim.Proc) { panicked = panics(func() { use(p) }) })
		e.Run()
		return panicked
	}
	uses := []struct {
		name string
		use  func(e *sim.Engine, s *sim.Signal) bool
	}{
		{"Fire", func(e *sim.Engine, s *sim.Signal) bool { return panics(func() { s.Fire(e) }) }},
		{"Fired", func(_ *sim.Engine, s *sim.Signal) bool { return panics(func() { s.Fired() }) }},
		{"OnFire", func(e *sim.Engine, s *sim.Signal) bool { return panics(func() { s.OnFire(e, func() {}) }) }},
		{"OnFireArg", func(e *sim.Engine, s *sim.Signal) bool {
			return panics(func() { s.OnFireArg(e, func(*sim.Engine, unsafe.Pointer) {}, unsafe.Pointer(&rec)) })
		}},
		{"Chain", func(e *sim.Engine, s *sim.Signal) bool { return panics(func() { s.Chain(e, sim.NewSignal()) }) }},
		{"Ref", func(_ *sim.Engine, s *sim.Signal) bool { return panics(func() { s.Ref() }) }},
		{"AllOf", func(e *sim.Engine, s *sim.Signal) bool { return panics(func() { sim.AllOf(e, s) }) }},
		{"Wait", func(e *sim.Engine, s *sim.Signal) bool {
			return inProc(e, func(p *sim.Proc) { p.Wait(s) })
		}},
	}
	for _, u := range uses {
		t.Run(u.name, func(t *testing.T) {
			e := sim.NewEngine()
			s := e.NewSignal()
			ref := s.Ref()
			e.FireAt(1, s)
			e.Run()
			if !ref.Fired() {
				t.Fatal("reference to a recycled signal reads pending")
			}
			if !u.use(e, s) {
				t.Fatalf("%s on a recycled signal did not panic", u.name)
			}
		})
	}
}
