package gpu

import (
	"testing"
	"testing/quick"
	"unsafe"

	"gat/internal/sim"
)

// Property: operations on one stream complete in enqueue order, no
// matter how kernels and copies interleave.
func TestStreamFIFOProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) == 0 {
			return true
		}
		e, d := newTestDevice()
		s := d.NewStream("s", PriorityNormal)
		var completions []int
		for i, op := range ops {
			i := i
			var sig *sim.Signal
			switch op % 3 {
			case 0:
				sig = s.Kernel("k", sim.Time(op)+1)
			case 1:
				sig = s.Copy(D2H, int64(op)+1)
			default:
				sig = s.Copy(H2D, int64(op)+1)
			}
			sig.OnFire(e, func() { completions = append(completions, i) })
		}
		e.Run()
		if len(completions) != len(ops) {
			return false
		}
		for i, c := range completions {
			if c != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: host callbacks fire exactly at the completion time of the
// work preceding them, and never before.
func TestEventOrderingProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		e, d := newTestDevice()
		s := d.NewStream("s", PriorityNormal)
		var kernelDone, eventDone []sim.Time
		for _, dur := range durs {
			s.Kernel("k", sim.Time(dur)).OnFire(e, func() {
				kernelDone = append(kernelDone, e.Now())
			})
			s.OnComplete(func(e *sim.Engine, arg unsafe.Pointer) {
				done := (*[]sim.Time)(arg)
				*done = append(*done, e.Now())
			}, unsafe.Pointer(&eventDone))
		}
		e.Run()
		if len(kernelDone) != len(durs) || len(eventDone) != len(durs) {
			return false
		}
		for i := range durs {
			if eventDone[i] != kernelDone[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: graphs conserve kernel work — total device busy time for a
// graph equals the sum of node durations plus per-node dispatch.
func TestGraphWorkConservationProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		e, d := newTestDevice()
		s := d.NewStream("s", PriorityNormal)
		g := NewGraph()
		var prev *GraphNode
		var sum sim.Time
		for _, dur := range durs {
			dd := sim.Time(dur)
			sum += dd + 1 // + GraphNodeDispatch
			if prev == nil {
				prev = g.AddKernel("k", dd)
			} else {
				prev = g.AddKernel("k", dd, prev)
			}
		}
		s.Launch(g)
		e.Run()
		return d.BusyTime() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
