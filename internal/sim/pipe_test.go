package sim

import (
	"testing"
	"testing/quick"
)

func TestPipeSingleTransfer(t *testing.T) {
	e := NewEngine()
	// 1 GB/s, 2ns overhead: 1000 bytes -> 1000ns + 2ns.
	p := NewPipe(e, "link", 1e9, 2)
	var doneAt Time = -1
	p.TransferAfter(FiredSignal(), 1000).OnFire(e, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 1002 {
		t.Fatalf("transfer done at %v, want 1002", doneAt)
	}
}

func TestPipeSerialization(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "link", 1e9, 0)
	var first, second Time
	p.TransferAfter(FiredSignal(), 100).OnFire(e, func() { first = e.Now() })
	p.TransferAfter(FiredSignal(), 100).OnFire(e, func() { second = e.Now() })
	e.Run()
	if first != 100 || second != 200 {
		t.Fatalf("first=%v second=%v, want 100/200", first, second)
	}
}

func TestPipeIdleGap(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "link", 1e9, 0)
	var doneAt Time
	e.Schedule(500, func() {
		p.TransferAfter(FiredSignal(), 100).OnFire(e, func() { doneAt = e.Now() })
	})
	e.Run()
	if doneAt != 600 {
		t.Fatalf("done at %v, want 600 (starts when requested, not at freeAt=0)", doneAt)
	}
}

func TestPipeTransferAfter(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "link", 1e9, 0)
	ready := NewSignal()
	var doneAt Time
	p.TransferAfter(ready, 100).OnFire(e, func() { doneAt = e.Now() })
	// The pipe must remain available to others while waiting for ready.
	var otherAt Time
	p.TransferAfter(FiredSignal(), 50).OnFire(e, func() { otherAt = e.Now() })
	e.Schedule(300, func() { ready.Fire(e) })
	e.Run()
	if otherAt != 50 {
		t.Fatalf("other transfer at %v, want 50", otherAt)
	}
	if doneAt != 400 {
		t.Fatalf("gated transfer done at %v, want 400", doneAt)
	}
}

func TestPipeUtilization(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "link", 1e9, 0)
	p.TransferAfter(FiredSignal(), 100)
	e.Schedule(400, func() {}) // extend horizon to 400
	e.Run()
	if u := p.Utilization(); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

// Property: N back-to-back transfers of equal size complete at exactly
// N * (overhead + size/bw); serialization never loses or overlaps time.
func TestPipeSerializationProperty(t *testing.T) {
	f := func(n uint8, size uint16) bool {
		count := int(n)%16 + 1
		bytes := int64(size) + 1
		e := NewEngine()
		p := NewPipe(e, "link", 1e9, 3)
		var last Time
		for i := 0; i < count; i++ {
			p.TransferAfter(FiredSignal(), bytes).OnFire(e, func() { last = e.Now() })
		}
		e.Run()
		per := 3 + DurationOf(bytes, 1e9)
		return last == Time(count)*per
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPipeReserveClampsPastEarliest pins the Reserve contract: an
// earliest in the past is clamped to Now() rather than backdating the
// occupancy window (or panicking) — multi-stage cut-through callers
// may compute stage starts from upstream windows that have already
// elapsed.
func TestPipeReserveClampsPastEarliest(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "link", 1e9, 0)
	e.Schedule(500, func() {
		start, end := p.Reserve(100, 200) // earliest 100 is 400ns in the past
		if start != 500 {
			t.Errorf("Reserve clamped start to %v, want Now()=500", start)
		}
		if end != 700 {
			t.Errorf("Reserve end = %v, want 700", end)
		}
	})
	e.Run()
	// A second reservation still queues behind the clamped window.
	e.Schedule(0, func() {
		if start, _ := p.Reserve(0, 100); start != 700 {
			t.Errorf("follow-up Reserve start = %v, want 700 (behind the clamped window)", start)
		}
	})
	e.Run()
}

func TestPipeZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPipe with zero bandwidth did not panic")
		}
	}()
	NewPipe(NewEngine(), "bad", 0, 0)
}
