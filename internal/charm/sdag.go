package charm

import "unsafe"

// Gate implements the SDAG "when" construct with reference numbers
// (§II-A): a chare element waits for a fixed number of message arrivals
// carrying the current reference number; arrivals tagged with future
// reference numbers are buffered until the element advances. This is
// how Jacobi3D keeps neighbors exchanging halos from the same iteration
// without any global synchronization.
//
// The zero Gate is closed at reference number 0, ready to use; a chare
// keeps its gate inline in its state.
type Gate struct {
	ref     int
	need    int
	got     int
	open    bool
	done    TaskFn
	doneArg unsafe.Pointer
	// buffered holds future arrivals in arrival order. Neighbors run at
	// most one reference number ahead, so it stays a few entries long
	// and its backing array is reused from one reference to the next.
	buffered []arrival
}

// arrival is one buffered future arrival and its action.
type arrival struct {
	ref int
	fn  TaskFn
	arg unsafe.Pointer
}

// Pending returns the number of buffered future arrivals.
func (g *Gate) Pending() int { return len(g.buffered) }

// Expect opens the gate for reference number ref, requiring need
// arrivals; done(ctx, arg) runs (on the Ctx of the final arrival, or
// immediately on ctx if buffered arrivals already satisfy the count)
// once all arrivals are in. Arrivals buffered earlier for ref are
// replayed immediately.
func (g *Gate) Expect(ctx *Ctx, ref, need int, done TaskFn, arg unsafe.Pointer) {
	if g.open {
		panic("charm: gate re-opened while open")
	}
	g.ref = ref
	g.need = need
	g.got = 0
	g.done, g.doneArg = done, arg
	g.open = true
	// Replay ref's arrivals in arrival order and drop them (any beyond
	// the count are dropped too, as the gate closes), keeping the other
	// references' arrivals in order.
	kept := 0
	for i := 0; i < len(g.buffered); i++ {
		a := g.buffered[i]
		if a.ref != ref {
			g.buffered[kept] = a
			kept++
			continue
		}
		if g.open {
			g.consume(ctx, a.fn, a.arg)
		}
	}
	clear(g.buffered[kept:])
	g.buffered = g.buffered[:kept]
}

// Arrive delivers one arrival tagged ref; its action fn(ctx, arg), if
// fn is non-nil, runs when the arrival is consumed (now if the gate is
// open at ref, or when the gate reaches ref). Arrivals for past
// reference numbers panic: neighbors can run at most one iteration
// ahead, so a stale arrival is a protocol bug.
func (g *Gate) Arrive(ctx *Ctx, ref int, fn TaskFn, arg unsafe.Pointer) {
	if g.open && ref == g.ref {
		g.consume(ctx, fn, arg)
		return
	}
	if ref < g.ref {
		panic("charm: arrival for a past reference number")
	}
	g.buffered = append(g.buffered, arrival{ref: ref, fn: fn, arg: arg})
}

func (g *Gate) consume(ctx *Ctx, fn TaskFn, arg unsafe.Pointer) {
	if fn != nil {
		fn(ctx, arg)
	}
	g.got++
	if g.got == g.need {
		g.open = false
		done, doneArg := g.done, g.doneArg
		g.done, g.doneArg = nil, nil
		if done != nil {
			done(ctx, doneArg)
		}
	}
}
