package gpu

import (
	"testing"
	"testing/quick"
	"unsafe"

	"gat/internal/sim"
)

// testConfig returns a cost model with round numbers for exact assertions.
func testConfig() Config {
	return Config{
		MemBandwidth:      1e9, // 1 byte/ns
		CopyBandwidth:     1e9,
		CopySetup:         0,
		KernelLaunchHost:  10,
		CopyLaunchHost:    5,
		KernelDispatch:    2,
		GraphLaunchHost:   8,
		GraphNodeDispatch: 1,
		SyncOverhead:      3,
	}
}

func newTestDevice() (*sim.Engine, *Device) {
	e := sim.NewEngine()
	return e, New(e, "gpu0", testConfig())
}

func TestKernelDuration(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	var doneAt sim.Time
	s.Kernel("k", 100).OnFire(e, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 102 { // dispatch 2 + duration 100
		t.Fatalf("kernel done at %v, want 102", doneAt)
	}
	if d.KernelsLaunched() != 1 {
		t.Fatalf("kernel count = %d", d.KernelsLaunched())
	}
}

func TestStreamOrdering(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	var first, second sim.Time
	s.Kernel("k1", 100).OnFire(e, func() { first = e.Now() })
	s.Kernel("k2", 50).OnFire(e, func() { second = e.Now() })
	e.Run()
	if first != 102 || second != 154 {
		t.Fatalf("first=%v second=%v, want 102/154 (in-order)", first, second)
	}
}

func TestCrossStreamSerialCompute(t *testing.T) {
	// Two kernels on different streams serialize on the compute engine
	// (processor-sharing equivalence for bandwidth-bound kernels).
	e, d := newTestDevice()
	s1 := d.NewStream("s1", PriorityNormal)
	s2 := d.NewStream("s2", PriorityNormal)
	var t1, t2 sim.Time
	s1.Kernel("a", 100).OnFire(e, func() { t1 = e.Now() })
	s2.Kernel("b", 100).OnFire(e, func() { t2 = e.Now() })
	e.Run()
	if t1 != 102 || t2 != 204 {
		t.Fatalf("t1=%v t2=%v, want 102/204", t1, t2)
	}
}

func TestPriorityBypass(t *testing.T) {
	// A high-priority kernel enqueued while a long kernel runs must jump
	// ahead of queued normal-priority work (no preemption of the running
	// kernel).
	e, d := newTestDevice()
	bulk := d.NewStream("bulk", PriorityNormal)
	hi := d.NewStream("hi", PriorityHigh)
	var hiAt, bulk2At sim.Time
	bulk.Kernel("long", 1000)
	bulk2 := d.NewStream("bulk2", PriorityNormal)
	bulk2.Kernel("queued", 100).OnFire(e, func() { bulk2At = e.Now() })
	e.Schedule(10, func() {
		hi.Kernel("pack", 10).OnFire(e, func() { hiAt = e.Now() })
	})
	e.Run()
	// long: 0..1002; pack runs next: 1002+2+10 = 1014; queued after.
	if hiAt != 1014 {
		t.Fatalf("high-priority kernel done at %v, want 1014", hiAt)
	}
	if bulk2At != 1116 {
		t.Fatalf("bypassed kernel done at %v, want 1116", bulk2At)
	}
}

func TestCopyEnginesIndependent(t *testing.T) {
	// D2H and H2D run concurrently on separate DMA engines, and both
	// overlap with compute.
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	cp := d.NewStream("cp", PriorityHigh)
	cp2 := d.NewStream("cp2", PriorityHigh)
	var kAt, d2hAt, h2dAt sim.Time
	s.Kernel("k", 100).OnFire(e, func() { kAt = e.Now() })
	cp.Copy(D2H, 200).OnFire(e, func() { d2hAt = e.Now() })
	cp2.Copy(H2D, 300).OnFire(e, func() { h2dAt = e.Now() })
	e.Run()
	if kAt != 102 || d2hAt != 200 || h2dAt != 300 {
		t.Fatalf("kAt=%v d2hAt=%v h2dAt=%v, want 102/200/300 (all overlapped)", kAt, d2hAt, h2dAt)
	}
	if d.CopiesIssued() != 2 {
		t.Fatalf("copies = %d, want 2", d.CopiesIssued())
	}
}

func TestSameDirectionCopiesSerialize(t *testing.T) {
	e, d := newTestDevice()
	a := d.NewStream("a", PriorityHigh)
	b := d.NewStream("b", PriorityHigh)
	var t1, t2 sim.Time
	a.Copy(D2H, 100).OnFire(e, func() { t1 = e.Now() })
	b.Copy(D2H, 100).OnFire(e, func() { t2 = e.Now() })
	e.Run()
	if t1 != 100 || t2 != 200 {
		t.Fatalf("t1=%v t2=%v, want 100/200", t1, t2)
	}
}

func TestOnCompleteCallback(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	var cbAt sim.Time = -1
	s.Kernel("k", 50)
	s.OnComplete(func(e *sim.Engine, arg unsafe.Pointer) { *(*sim.Time)(arg) = e.Now() }, unsafe.Pointer(&cbAt))
	e.Run()
	if cbAt != 52 {
		t.Fatalf("callback at %v, want 52", cbAt)
	}
}

// TestEventAndWaitEvent checks the cross-stream dependency of
// cudaStreamWaitEvent: a kernel's completion signal on one stream gates
// another through WaitSignal.
func TestEventAndWaitEvent(t *testing.T) {
	e, d := newTestDevice()
	prod := d.NewStream("prod", PriorityNormal)
	cons := d.NewStream("cons", PriorityNormal)
	cons.WaitSignal(prod.Kernel("p", 100))
	var consAt sim.Time
	cons.Kernel("c", 10).OnFire(e, func() { consAt = e.Now() })
	e.Run()
	if consAt != 114 { // 102 (p done) + 2 + 10
		t.Fatalf("consumer kernel done at %v, want 114", consAt)
	}
}

func TestWaitSignalGatesStream(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	arrival := sim.NewSignal()
	s.WaitSignal(arrival)
	var kAt sim.Time
	s.Kernel("unpack", 10).OnFire(e, func() { kAt = e.Now() })
	e.Schedule(500, func() { arrival.Fire(e) })
	e.Run()
	if kAt != 512 {
		t.Fatalf("gated kernel done at %v, want 512", kAt)
	}
}

func TestKernelBytesRoofline(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	var at sim.Time
	s.KernelBytes("k", 1000).OnFire(e, func() { at = e.Now() })
	e.Run()
	if at != 1002 { // 1000 bytes at 1 B/ns + dispatch 2
		t.Fatalf("roofline kernel done at %v, want 1002", at)
	}
}

// TestUtilizationAccounting checks the busy time behind a device's
// utilization: dispatch counts, idle time after the kernel does not.
func TestUtilizationAccounting(t *testing.T) {
	e, d := newTestDevice()
	s := d.NewStream("s", PriorityNormal)
	s.Kernel("k", 98) // busy 100 with dispatch
	e.Schedule(400, func() {})
	e.Run()
	if b := d.BusyTime(); b != 100 || e.Now() != 400 {
		t.Fatalf("busy %v at %v, want 100 at 400", b, e.Now())
	}
}

// Property: N kernels across arbitrary streams complete in total
// dispatch+duration sum (serial compute engine conserves work).
func TestComputeWorkConservationProperty(t *testing.T) {
	f := func(durs []uint8, nstreams uint8) bool {
		if len(durs) == 0 {
			return true
		}
		ns := int(nstreams)%4 + 1
		e, d := newTestDevice()
		streams := make([]*Stream, ns)
		for i := range streams {
			streams[i] = d.NewStream("s", PriorityNormal)
		}
		var last sim.Time
		var sum sim.Time
		for i, dur := range durs {
			dd := sim.Time(dur)
			sum += dd + 2 // + dispatch
			streams[i%ns].Kernel("k", dd).OnFire(e, func() { last = e.Now() })
		}
		e.Run()
		return last == sum && d.BusyTime() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
