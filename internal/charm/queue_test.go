package charm

import (
	"slices"
	"testing"

	"gat/internal/sim"
)

// refTask is one task of the dispatch-order reference: it arrives at
// at with priority prio and occupies the PE for cost.
type refTask struct {
	at, cost sim.Time
	prio     int
}

// refDispatch returns the order in which a serial server whose queue is
// sorted by (priority, submission) starts tasks, which arrive in slice
// order at nondecreasing times. An arrival at the instant the running
// task finishes queues before the next start; an idle server starts an
// arrival at once.
func refDispatch(tasks []refTask) []int {
	var order, queue []int
	busy, free, next := false, sim.Time(0), 0
	for len(order) < len(tasks) {
		now := free
		if next < len(tasks) && (!busy || tasks[next].at <= free) {
			now = tasks[next].at
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
			if tasks[j].prio < tasks[queue[best]].prio {
				best = i
			}
		}
		order = append(order, queue[best])
		busy, free = true, now+tasks[queue[best]].cost
		queue = slices.Delete(queue, best, best+1)
	}
	return order
}

// TestPEDispatchOrderInterleaved: tasks of both priorities arrive while
// the PE works through earlier ones, some at the instant a task
// finishes; every start takes the oldest waiting task of the highest
// waiting priority, as the (priority, submission) reference does.
func TestPEDispatchOrderInterleaved(t *testing.T) {
	rt := newTestRuntime(1)
	pe, eng := rt.PE(0), rt.Engine()
	rng := sim.NewRNG(29)
	tasks := make([]refTask, 300)
	var at sim.Time
	for i := range tasks {
		at += 5 * sim.Time(rng.Intn(6))
		tasks[i] = refTask{at: at, cost: 5 + 5*sim.Time(rng.Intn(5)), prio: rng.Intn(2)}
	}
	var order []int
	for i, tk := range tasks {
		eng.At(tk.at, func() {
			pe.Enqueue(tk.prio, tk.cost, "t", nil, callTask, closure(func(*Ctx) { order = append(order, i) }))
		})
	}
	eng.Run()
	want := refDispatch(tasks)
	if slices.IsSorted(want) {
		t.Fatal("no task overtook an earlier one; the case needs a queue with both priorities")
	}
	if !slices.Equal(order, want) {
		t.Fatalf("dispatch order %v,\nwant %v", order, want)
	}
}

// TestPEPriorityOutsideTheTwoPanics: a task priority other than
// PrioHigh and PrioNormal panics.
func TestPEPriorityOutsideTheTwoPanics(t *testing.T) {
	for _, prio := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Enqueue at priority %d did not panic", prio)
				}
			}()
			newTestRuntime(1).PE(0).Enqueue(prio, 1, "t", nil, callTask, closure(func(*Ctx) {}))
		}()
	}
}
