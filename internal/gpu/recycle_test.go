package gpu

import (
	"testing"

	"gat/internal/sim"
)

// chainWorkload enqueues the same mix on s — a gate, a kernel, a copy
// and a graph per round, one round every 1000ns — either through the
// pinned forms chained to out signals or through the chain forms, and
// records when each out signal fires.
func chainWorkload(e *sim.Engine, s *Stream, chainForm bool, rounds int) []sim.Time {
	g := NewGraph()
	a := g.AddKernel("a", 5)
	g.AddCopy(D2H, 100, a)
	g.AddKernel("b", 7, a)
	var fired []sim.Time
	for r := 0; r < rounds; r++ {
		e.Schedule(sim.Time(1000*r), func() {
			gate := sim.NewSignal()
			e.Schedule(3, func() { gate.Fire(e) })
			outs := []*sim.Signal{sim.NewSignal(), sim.NewSignal(), sim.NewSignal()}
			for _, out := range outs {
				out.OnFire(e, func() { fired = append(fired, e.Now()) })
			}
			s.WaitSignal(gate)
			if chainForm {
				s.KernelChain("k", 10, outs[0])
				s.CopyChain(H2D, 200, outs[1])
				s.LaunchChain(g, outs[2])
			} else {
				s.Kernel("k", 10).Chain(e, outs[0])
				s.Copy(H2D, 200).Chain(e, outs[1])
				s.Launch(g).Chain(e, outs[2])
			}
		})
	}
	e.Run()
	return fired
}

// TestChainFormsMatchPinnedForms checks that the recycled chain forms
// fire their out signals at the same instants, through the same number
// of events, as the pinned forms chained by hand.
func TestChainFormsMatchPinnedForms(t *testing.T) {
	e1, d1 := newTestDevice()
	pinned := chainWorkload(e1, d1.NewStream("s", PriorityNormal), false, 20)
	e2, d2 := newTestDevice()
	chained := chainWorkload(e2, d2.NewStream("s", PriorityNormal), true, 20)
	if len(pinned) != 60 || len(chained) != len(pinned) {
		t.Fatalf("fired %d and %d out signals, want 60 each", len(pinned), len(chained))
	}
	for i := range pinned {
		if pinned[i] != chained[i] {
			t.Fatalf("out %d fired at %v in chain form, %v in pinned form", i, chained[i], pinned[i])
		}
	}
	if e1.EventsExecuted() != e2.EventsExecuted() {
		t.Fatalf("chain form ran %d events, pinned form %d", e2.EventsExecuted(), e1.EventsExecuted())
	}
}

// TestChainOpsRecycle checks that ops whose signal is never handed out
// return to the device's free list, so a long run reuses a handful of
// op records, while pinned ops stay out of it.
func TestChainOpsRecycle(t *testing.T) {
	e, d := newTestDevice()
	chainWorkload(e, d.NewStream("s", PriorityNormal), true, 200)
	if got := d.ops.Allocated(); got != 0 {
		t.Fatalf("chain-form run carved %d pinned ops from the arena, want 0", got)
	}
	// Each round queues four ops and drains before the next begins.
	if got := len(d.freeOps); got != 4 {
		t.Fatalf("free list holds %d ops after 200 rounds, want the 4 of one round", got)
	}
	e2, d2 := newTestDevice()
	chainWorkload(e2, d2.NewStream("s", PriorityNormal), false, 10)
	if got := d2.ops.Allocated(); got != 30 {
		t.Fatalf("pinned-form run carved %d arena ops, want 30 (kernel, copy, graph per round)", got)
	}
}

// TestGraphRelaunchReusesInstance checks that relaunching a graph reuses
// its finished instance record.
func TestGraphRelaunchReusesInstance(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	g := NewGraph()
	root := g.AddKernel("a", 5)
	g.AddKernel("b", 5, root)
	g.AddKernel("c", 5, root)
	for i := 0; i < 50; i++ {
		s.LaunchChain(g, e.NewSignal())
	}
	e.Run()
	if len(g.free) != 1 {
		t.Fatalf("graph pooled %d instances after 50 sequential launches, want 1", len(g.free))
	}
	if got := d.KernelsLaunched(); got != 150 {
		t.Fatalf("ran %d kernels, want 150", got)
	}
}
