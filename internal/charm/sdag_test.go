package charm

import (
	"testing"
	"testing/quick"
)

// gateCtx builds a throwaway Ctx for gate unit tests (the gate only
// threads it through to actions).
func gateCtx(t *testing.T) *Ctx {
	t.Helper()
	rt := newTestRuntime(1)
	return &Ctx{pe: rt.PE(0)}
}

func TestGateInOrderArrivals(t *testing.T) {
	g := &Gate{}
	ctx := gateCtx(t)
	var done bool
	var actions int
	g.Expect(ctx, 0, 3, callTask, closure(func(*Ctx) { done = true }))
	for i := 0; i < 3; i++ {
		g.Arrive(ctx, 0, callTask, closure(func(*Ctx) { actions++ }))
		if i < 2 && done {
			t.Fatal("gate fired early")
		}
	}
	if !done || actions != 3 {
		t.Fatalf("done=%v actions=%d", done, actions)
	}
}

func TestGateBuffersFutureRefs(t *testing.T) {
	g := &Gate{}
	ctx := gateCtx(t)
	var doneRef0, doneRef1 bool
	// A fast neighbor sends iteration-1 halos before we finished
	// iteration 0.
	g.Expect(ctx, 0, 2, callTask, closure(func(*Ctx) { doneRef0 = true }))
	g.Arrive(ctx, 1, nil, nil) // future: buffered
	g.Arrive(ctx, 0, nil, nil)
	g.Arrive(ctx, 1, nil, nil) // future: buffered
	if doneRef0 {
		t.Fatal("ref 0 fired with only one ref-0 arrival")
	}
	if g.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", g.Pending())
	}
	g.Arrive(ctx, 0, nil, nil)
	if !doneRef0 {
		t.Fatal("ref 0 did not fire")
	}
	// Opening for ref 1 must replay both buffered arrivals immediately.
	g.Expect(ctx, 1, 2, callTask, closure(func(*Ctx) { doneRef1 = true }))
	if !doneRef1 {
		t.Fatal("buffered ref-1 arrivals were not replayed")
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d after replay, want 0", g.Pending())
	}
}

func TestGateStaleArrivalPanics(t *testing.T) {
	g := &Gate{}
	ctx := gateCtx(t)
	g.Expect(ctx, 5, 1, nil, nil)
	g.Arrive(ctx, 5, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("stale arrival did not panic")
		}
	}()
	g.Arrive(ctx, 3, nil, nil)
}

func TestGateReopenWhileOpenPanics(t *testing.T) {
	g := &Gate{}
	ctx := gateCtx(t)
	g.Expect(ctx, 0, 2, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("re-opening open gate did not panic")
		}
	}()
	g.Expect(ctx, 1, 2, nil, nil)
}

// Property: for any interleaving where each of N iterations receives
// exactly `need` arrivals (possibly one iteration early), the gate fires
// exactly once per iteration, in order.
func TestGateIterationProperty(t *testing.T) {
	f := func(early []bool, needRaw, itersRaw uint8) bool {
		need := int(needRaw)%4 + 1
		iters := int(itersRaw)%5 + 1
		rt := newTestRuntime(1)
		ctx := &Ctx{pe: rt.PE(0)}
		g := &Gate{}
		var fired []int

		// earlyFor reports whether arrival j of iteration i is sent one
		// iteration ahead of schedule (neighbors can run at most one
		// iteration ahead under Jacobi's dependency structure).
		earlyFor := func(i, j int) bool {
			k := i*need + j
			return k < len(early) && early[k] && i > 0
		}

		var expect func(i int)
		expect = func(i int) {
			if i == iters {
				return
			}
			g.Expect(ctx, i, need, callTask, closure(func(*Ctx) {
				fired = append(fired, i)
				expect(i + 1)
			}))
			// Deliver this iteration's remaining (non-early) arrivals,
			// plus next iteration's early ones.
			for j := 0; j < need; j++ {
				if !earlyFor(i, j) {
					g.Arrive(ctx, i, nil, nil)
				}
			}
			if i+1 < iters {
				for j := 0; j < need; j++ {
					if earlyFor(i+1, j) {
						g.Arrive(ctx, i+1, nil, nil)
					}
				}
			}
		}
		expect(0)
		if len(fired) != iters {
			return false
		}
		for i, r := range fired {
			if r != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
