package comm

import (
	"testing"

	"gat/internal/sim"
)

func TestMessagingSendDelivers(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	var at sim.Time
	MessagingSend(n, DefaultMessagingConfig(),
		Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1},
		4096, sim.FiredSignal(), call(func() { at = e.Now() }))
	e.Run()
	if at <= 0 {
		t.Fatal("messaging send never delivered")
	}
}

func TestMessagingSendGatedOnReady(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	ready := sim.NewSignal()
	var at sim.Time
	MessagingSend(n, DefaultMessagingConfig(),
		Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1},
		4096, ready, call(func() { at = e.Now() }))
	e.Schedule(10000, func() { ready.Fire(e) })
	e.Run()
	if at <= 10000 {
		t.Fatalf("delivery at %v, before the data was ready", at)
	}
}

func TestMessagingPostCostAddsLatency(t *testing.T) {
	run := func(postCost sim.Time) sim.Time {
		e := sim.NewEngine()
		n := testNet(e, 2)
		cfg := DefaultMessagingConfig()
		cfg.PostCost = postCost
		var at sim.Time
		MessagingSend(n, cfg,
			Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1},
			4096, sim.FiredSignal(), call(func() { at = e.Now() }))
		e.Run()
		return at
	}
	cheap, costly := run(0), run(50*sim.Microsecond)
	if costly-cheap < 50*sim.Microsecond {
		t.Fatalf("post cost not reflected: %v vs %v", cheap, costly)
	}
}

func TestMessagingNilCallback(t *testing.T) {
	e := sim.NewEngine()
	n := testNet(e, 2)
	MessagingSend(n, DefaultMessagingConfig(),
		Endpoint{Proc: 0, Node: 0}, Endpoint{Proc: 1, Node: 1},
		64, sim.FiredSignal(), nil)
	e.Run() // must not panic
}
