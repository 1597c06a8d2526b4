package sim

import (
	"testing"
	"unsafe"
)

// injectRec is the arg record used by the injection tests; the order
// slice pointer lets the static callback log without a closure.
type injectRec struct {
	id  int
	log *[]int
}

func injectFire(_ *Engine, arg unsafe.Pointer) {
	r := (*injectRec)(arg)
	*r.log = append(*r.log, r.id)
}

// TestInjectAtOrder checks the PDES injection contract: events injected
// in sorted order interleave with natively scheduled events in exact
// (time, seq) order, including injection at the current instant (which
// takes the zero-delay lane).
func TestInjectAtOrder(t *testing.T) {
	e := NewEngine()
	var log []int
	recs := make([]injectRec, 6)
	for i := range recs {
		recs[i] = injectRec{id: i, log: &log}
	}
	e.At(10, func() { log = append(log, 100) })
	e.InjectAt(5, injectFire, unsafe.Pointer(&recs[0]))
	e.InjectAt(10, injectFire, unsafe.Pointer(&recs[1])) // after the native event at 10: larger seq
	e.InjectAt(0, injectFire, unsafe.Pointer(&recs[2]))  // current instant: zero-delay lane
	e.RunUntil(10)
	want := []int{2, 0, 100, 1}
	if len(log) != len(want) {
		t.Fatalf("executed %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("executed %v, want %v", log, want)
		}
	}
}

// TestInjectAtPast checks that injecting into the past panics like any
// other scheduling into the past — a PDES window-accounting bug must
// fail loudly, not silently reorder.
func TestInjectAtPast(t *testing.T) {
	e := NewEngine()
	e.At(50, func() {})
	e.RunUntil(50)
	defer func() {
		if recover() == nil {
			t.Fatal("InjectAt into the past did not panic")
		}
	}()
	var r injectRec
	e.InjectAt(10, injectFire, unsafe.Pointer(&r))
}

// TestNextEventTime checks the window-bound query against both event
// stores: the timed heap's root and the zero-delay lane (whose
// entries carry the current time).
func TestNextEventTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reports a pending event")
	}
	e.At(30, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 30 {
		t.Fatalf("NextEventTime = %v,%v, want 30,true", at, ok)
	}
	e.Schedule(0, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 0 {
		t.Fatalf("with a lane event NextEventTime = %v,%v, want 0,true", at, ok)
	}
	e.RunUntil(10)
	if at, ok := e.NextEventTime(); !ok || at != 30 {
		t.Fatalf("after partial run NextEventTime = %v,%v, want 30,true", at, ok)
	}
	e.RunUntil(30)
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("drained engine reports a pending event")
	}
}

// TestRunUntilWindows replays one timeline in a single run and in many
// bounded windows and checks the executed order is identical — the
// window-limited RunUntil contract the PDES layer leans on.
func TestRunUntilWindows(t *testing.T) {
	build := func(e *Engine, log *[]int) {
		id := 0
		for _, at := range []Time{3, 7, 7, 12, 12, 40, 41, 95} {
			at, id := at, id
			e.At(at, func() {
				*log = append(*log, id)
				if at < 50 {
					e.Schedule(5, func() { *log = append(*log, id+100) })
				}
			})
			id++
		}
	}
	var one []int
	e1 := NewEngine()
	build(e1, &one)
	e1.Run()

	var win []int
	e2 := NewEngine()
	build(e2, &win)
	for limit := Time(0); ; limit += 4 {
		e2.RunUntil(limit)
		if e2.Idle() {
			break
		}
	}
	if len(one) != len(win) {
		t.Fatalf("windowed run executed %d events, single run %d", len(win), len(one))
	}
	for i := range one {
		if one[i] != win[i] {
			t.Fatalf("order diverges at %d: windowed %v vs single %v", i, win, one)
		}
	}
}
