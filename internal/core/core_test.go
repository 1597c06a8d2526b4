package core

import (
	"testing"

	"gat/internal/charm"
	"gat/internal/machine"
	"gat/internal/sim"
)

func TestSystemAssembly(t *testing.T) {
	sys := NewSystem(2)
	if sys.RT.NumPEs() != 12 {
		t.Fatalf("PEs = %d, want 12", sys.RT.NumPEs())
	}
	if sys.Engine() == nil || sys.M == nil {
		t.Fatal("incomplete system")
	}
}

func TestSystemFromCustomConfig(t *testing.T) {
	cfg := machine.Summit(1)
	cfg.GPUsPerNode = 4
	sys := NewSystemOn(machine.MustNew(cfg))
	if sys.RT.NumPEs() != 4 {
		t.Fatalf("PEs = %d, want 4", sys.RT.NumPEs())
	}
}

func TestTaskArrayRoundTrip(t *testing.T) {
	sys := NewSystem(1)
	ran := 0
	entries := []charm.EntryFn{
		func(el *charm.Elem, ctx *charm.Ctx, m charm.Msg) { ran++ },
	}
	arr := sys.NewTaskArray("t", 12, entries, func(ix charm.Index) any { return nil })
	arr.Broadcast(charm.Msg{Entry: 0})
	sys.Run()
	if ran != 12 {
		t.Fatalf("ran = %d, want 12", ran)
	}
}

func TestChannelBetweenElements(t *testing.T) {
	sys := NewSystem(2)
	var got bool
	entries := []charm.EntryFn{
		func(el *charm.Elem, ctx *charm.Ctx, m charm.Msg) {},
	}
	arr := sys.NewTaskArray("t", 12, entries, func(ix charm.Index) any { return nil })
	a, b := arr.Elems()[0], arr.Elems()[11] // different nodes
	ch := sys.Channel(a, b)
	ch.Recv(b.Flat, 0, func() { got = true })
	ch.Send(a.Flat, 0, 1<<20, sim.FiredSignal(), nil)
	sys.Run()
	if !got {
		t.Fatal("channel transfer did not complete")
	}
}

func TestGPUForFollowsElement(t *testing.T) {
	sys := NewSystem(1)
	arr := sys.NewTaskArray("t", 6, nil, func(ix charm.Index) any { return nil })
	el := arr.Elems()[3]
	if sys.GPUFor(el) != sys.M.GPUOf(3) {
		t.Fatal("GPUFor does not match the element's PE")
	}
}
