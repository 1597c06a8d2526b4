package gpu

import (
	"slices"
	"testing"

	"gat/internal/sim"
)

// refKernel is one kernel of the dispatch-order reference: it reaches
// the device at at on a stream of priority prio and occupies the
// compute engine for service.
type refKernel struct {
	at, service sim.Time
	prio        int
}

// refDispatch returns the order in which a serial server whose queue is
// sorted by (priority, submission) starts kernels, which arrive in
// slice order at nondecreasing times. An arrival at the instant the
// running kernel finishes queues before the next start; an idle server
// starts an arrival at once.
func refDispatch(ks []refKernel) []int {
	var order, queue []int
	busy, free, next := false, sim.Time(0), 0
	for len(order) < len(ks) {
		now := free
		if next < len(ks) && (!busy || ks[next].at <= free) {
			now = ks[next].at
			queue = append(queue, next)
			next++
		} else {
			busy = false
		}
		if busy || len(queue) == 0 {
			continue
		}
		best := 0
		for i, j := range queue {
			if ks[j].prio < ks[queue[best]].prio {
				best = i
			}
		}
		order = append(order, queue[best])
		busy, free = true, now+ks[queue[best]].service
		queue = slices.Delete(queue, best, best+1)
	}
	return order
}

// TestDeviceDispatchOrderInterleaved: kernels on streams of both
// priorities reach the device while it works through earlier ones,
// some at the instant a kernel finishes; the compute engine always
// starts the oldest waiting kernel of the highest waiting priority, as
// the (priority, submission) reference does. Each kernel has a stream
// of its own, so only the device orders them.
func TestDeviceDispatchOrderInterleaved(t *testing.T) {
	e, d := newTestDevice()
	rng := sim.NewRNG(29)
	ks := make([]refKernel, 300)
	var at sim.Time
	for i := range ks {
		at += 5 * sim.Time(rng.Intn(6))
		// Services on the arrivals' 5 ns grid (testConfig's 2 ns
		// dispatch plus 3 + 5k), so some kernels arrive at the instant
		// another finishes.
		ks[i] = refKernel{at: at, service: d.cfg.KernelDispatch + 3 + 5*sim.Time(rng.Intn(5)), prio: rng.Intn(2)}
	}
	var order []int
	for i, k := range ks {
		s := d.NewStream("k", k.prio)
		e.At(k.at, func() {
			s.Kernel("k", k.service-d.cfg.KernelDispatch).OnFire(e, func() { order = append(order, i) })
		})
	}
	e.Run()
	want := refDispatch(ks)
	if slices.IsSorted(want) {
		t.Fatal("no kernel overtook an earlier one; the case needs a queue with both priorities")
	}
	if !slices.Equal(order, want) {
		t.Fatalf("dispatch order %v,\nwant %v", order, want)
	}
}

// TestStreamPriorityOutsideTheTwoPanics: NewStream and AcquireStream
// panic on a priority other than PriorityHigh and PriorityNormal.
func TestStreamPriorityOutsideTheTwoPanics(t *testing.T) {
	_, d := newTestDevice()
	for _, mk := range []func(int) *Stream{
		func(p int) *Stream { return d.NewStream("s", p) },
		func(p int) *Stream { return d.AcquireStream("s", p) },
	} {
		for _, prio := range []int{-1, 2} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("a stream of priority %d did not panic", prio)
					}
				}()
				mk(prio)
			}()
		}
	}
}
