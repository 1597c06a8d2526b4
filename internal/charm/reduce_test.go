package charm

import (
	"testing"

	"gat/internal/sim"
)

// reductionFixture builds an array whose single entry contributes to a
// reduction for the message's Ref epoch.
func reductionFixture(t *testing.T, nodes, elems int) (*Runtime, *Array, *Reduction) {
	t.Helper()
	rt := newTestRuntime(nodes)
	a := NewArray(rt, "r", [3]int{elems, 1, 1}, nil, func(ix Index) any { return nil })
	red := NewReduction(a, 8)
	a.entries = []EntryFn{
		func(el *Elem, ctx *Ctx, m Msg) { red.Contribute(ctx, m.Ref) },
	}
	return rt, a, red
}

func TestReductionFiresOnceAllContribute(t *testing.T) {
	rt, a, red := reductionFixture(t, 2, 24)
	var firedAt sim.Time = -1
	red.Expect(0, callTask, closure(func(ctx *Ctx) { firedAt = ctx.Engine().Now() }))
	a.Broadcast(Msg{Entry: 0, Ref: 0})
	rt.Engine().Run()
	if firedAt < 0 {
		t.Fatal("reduction never fired")
	}
	if !red.Done(0) {
		t.Fatal("Done(0) should report true")
	}
}

func TestReductionWaitsForLastContribution(t *testing.T) {
	rt, a, red := reductionFixture(t, 1, 6)
	fired := false
	red.Expect(0, callTask, closure(func(ctx *Ctx) { fired = true }))
	// All but one element contribute.
	for _, el := range a.Elems()[:5] {
		a.Invoke(el.Idx, Msg{Entry: 0, Ref: 0})
	}
	rt.Engine().Run()
	if fired {
		t.Fatal("reduction fired before the last contribution")
	}
	a.Invoke(a.Elems()[5].Idx, Msg{Entry: 0, Ref: 0})
	rt.Engine().Run()
	if !fired {
		t.Fatal("reduction did not fire after the last contribution")
	}
}

func TestReductionSeparateEpochs(t *testing.T) {
	rt, a, red := reductionFixture(t, 1, 6)
	order := make([]int, 0, 2)
	red.Expect(0, callTask, closure(func(ctx *Ctx) { order = append(order, 0) }))
	red.Expect(1, callTask, closure(func(ctx *Ctx) { order = append(order, 1) }))
	a.Broadcast(Msg{Entry: 0, Ref: 0})
	a.Broadcast(Msg{Entry: 0, Ref: 1})
	rt.Engine().Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("epoch completion order = %v", order)
	}
}

func TestReductionOverContributionPanics(t *testing.T) {
	rt, a, _ := reductionFixture(t, 1, 6)
	a.Broadcast(Msg{Entry: 0, Ref: 0})
	a.Invoke(a.Elems()[0].Idx, Msg{Entry: 0, Ref: 0}) // 7th contribution
	defer func() {
		if recover() == nil {
			t.Error("over-contribution did not panic")
		}
	}()
	rt.Engine().Run()
}

func TestReductionTakesTimeAcrossNodes(t *testing.T) {
	// A cross-node reduction must consume virtual time (tree messages).
	rt, a, red := reductionFixture(t, 4, 24)
	var firedAt sim.Time
	red.Expect(0, callTask, closure(func(ctx *Ctx) { firedAt = ctx.Engine().Now() }))
	a.Broadcast(Msg{Entry: 0, Ref: 0})
	rt.Engine().Run()
	if firedAt <= 0 {
		t.Fatalf("cross-node reduction fired at %v, want > 0", firedAt)
	}
}
