package sim

import (
	"fmt"
	"testing"
)

// driver is a way to execute a workload's events.
type driver int

const (
	driveRun      driver = iota // Engine.Run
	driveStep                   // Engine.Step until idle
	driveHeapOnly               // Engine.Run with the lane off: every event through the heap
)

// runMixedWorkload drives every scheduling primitive — procs with zero
// and positive sleeps, signal waits with fan-out, chained signals,
// FireAt, queue pushes/pops, yields, nested zero-delay chains, and
// duplicate-timestamp timed events — and returns the labels in
// execution order.
func runMixedWorkload(d driver) []string {
	e := NewEngine()
	e.noLane = d == driveHeapOnly
	var log []string
	rec := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }

	sig := NewSignal()
	q := NewQueue[int]()

	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Time(i % 3)) // zero-delay for i=0,3
			rec("p%d-awake@%v", i, p.Now())
			p.Wait(sig)
			rec("p%d-sig@%v", i, p.Now())
			v := q.Pop(p)
			rec("p%d-pop%d@%v", i, v, p.Now())
			p.Yield()
			rec("p%d-done@%v", i, p.Now())
		})
	}

	// Two timed events at the same instant; the first spawns a nested
	// zero-delay chain that must interleave after the second.
	e.Schedule(2, func() {
		rec("t2-a")
		e.Schedule(0, func() {
			rec("t2-a0")
			e.Schedule(0, func() { rec("t2-a00") })
		})
	})
	e.Schedule(2, func() { rec("t2-b") })

	chained := NewSignal()
	sig.Chain(e, chained)
	chained.OnFire(e, func() { rec("chained@%v", e.Now()) })
	e.At(5, func() { rec("t5"); sig.Fire(e) })

	e.Schedule(7, func() {
		for v := 0; v < 4; v++ {
			q.Push(e, v)
		}
		rec("t7-pushed")
	})

	late := NewSignal()
	e.FireAt(9, late)
	late.OnFire(e, func() { rec("t9-fired") })

	if d == driveStep {
		for e.Step() {
		}
	} else {
		e.Run()
	}
	return log
}

// TestLaneHeapOrderingEquivalence asserts the engine's central
// invariants: the zero-delay FIFO lane is purely an optimization, and
// Step resumes procs as Run does. Running the same mixed workload with
// the lane disabled (every event through the heap, the pre-lane
// engine), through Run and through a Step loop must execute every event
// in the identical order.
func TestLaneHeapOrderingEquivalence(t *testing.T) {
	ref := runMixedWorkload(driveHeapOnly)
	for _, d := range []struct {
		name  string
		drive driver
	}{{"run", driveRun}, {"step", driveStep}} {
		got := runMixedWorkload(d.drive)
		if len(got) != len(ref) {
			t.Fatalf("event counts differ: %s=%d heap-only=%d\n%s: %v\nheap: %v",
				d.name, len(got), len(ref), d.name, got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("order diverges at event %d: %s=%q heap-only=%q\n%s: %v\nheap: %v",
					i, d.name, got[i], ref[i], d.name, got, ref)
			}
		}
	}
}

// TestLaneHeapSeqInterleave pins the one case where the lane must defer
// to the heap: a timed event already queued at the current instant has
// a smaller sequence number than a zero-delay event scheduled while
// handling that instant, so it fires first.
func TestLaneHeapSeqInterleave(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, func() {
		order = append(order, "A")
		e.Schedule(0, func() { order = append(order, "C") })
	})
	e.Schedule(10, func() { order = append(order, "B") })
	e.Run()
	want := []string{"A", "B", "C"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestLaneRing exercises the ring buffer directly through growth and
// wrap-around: interleaved pushes and pops force head past zero before
// a grow re-linearizes the entries.
func TestLaneRing(t *testing.T) {
	var l eventLane
	var got []int
	mk := func(i int) event {
		return event{fn: fnToPtr(func() { got = append(got, i) })}
	}
	next := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			l.push(mk(next))
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			if l.n == 0 {
				t.Fatal("pop on empty lane")
			}
			ptrToFn(l.pop().fn)()
		}
	}
	push(10)
	pop(7)   // head advances to 7
	push(70) // forces a grow with wrapped contents
	pop(l.n)
	for i, v := range got {
		if v != i {
			t.Fatalf("lane order broken at %d: got %v", i, got[:i+1])
		}
	}
	if len(got) != 80 {
		t.Fatalf("ran %d events, want 80", len(got))
	}
	// Vacated slots must not retain closures.
	for i := range l.buf {
		if l.buf[i].fn != nil {
			t.Fatalf("slot %d still holds a payload after drain", i)
		}
	}
}

// TestStopMidLaneBatch stops the engine inside a zero-delay batch by
// stepping it once; the remaining lane events must stay queued, keep the
// engine non-idle, and run on the next Run call.
func TestStopMidLaneBatch(t *testing.T) {
	e := NewEngine()
	var ran []int
	e.Schedule(0, func() { ran = append(ran, 1) })
	e.Schedule(0, func() { ran = append(ran, 2) })
	e.Step()
	if len(ran) != 1 {
		t.Fatalf("ran %v after one Step, want [1]", ran)
	}
	if e.Idle() {
		t.Fatal("engine reports idle with a lane event pending")
	}
	e.Run()
	if len(ran) != 2 || ran[1] != 2 {
		t.Fatalf("ran %v after resume, want [1 2]", ran)
	}
}

// TestRunUntilLeavesLaneBeyondLimit: zero-delay events queued at a time
// past the limit of a later RunUntil call must not run early.
func TestRunUntilLeavesLaneBeyondLimit(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(20, func() { e.Schedule(0, func() { ran++ }) })
	e.Step() // runs the t=20 event, leaving its zero-delay child queued
	if e.RunUntil(10); ran != 0 {
		t.Fatalf("lane event at t=20 ran under RunUntil(10)")
	}
	if e.Run(); ran != 1 {
		t.Fatalf("lane event did not run on final Run; ran=%d", ran)
	}
}
