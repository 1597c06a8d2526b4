package gpu

import (
	"testing"
	"testing/quick"

	"gat/internal/sim"
)

func TestAllocFreeAccounting(t *testing.T) {
	// A run never frees device memory, so the peak is the sum of every
	// allocation so far.
	_, d := newTestDevice()
	d.Alloc("a", 1<<20)
	if d.MemPeak() != 1<<20 {
		t.Fatalf("peak = %d, want 1 MiB", d.MemPeak())
	}
	d.Alloc("b", 2<<20)
	if d.MemPeak() != 3<<20 {
		t.Fatalf("peak = %d, want 3 MiB", d.MemPeak())
	}
}

func TestAllocOverCapacityPanics(t *testing.T) {
	e := sim.NewEngine()
	cfg := testConfig()
	cfg.MemCapacity = 1 << 20
	d := New(e, "small", cfg)
	d.Alloc("fits", 1<<19)
	defer func() {
		if recover() == nil {
			t.Error("over-capacity alloc did not panic")
		}
	}()
	d.Alloc("overflow", 1<<20)
}

func TestDefaultCapacityIsV100(t *testing.T) {
	_, d := newTestDevice()
	if d.MemCapacity() != MemCapacityV100 {
		t.Fatalf("capacity = %d, want 16 GiB", d.MemCapacity())
	}
}

// Property: any alloc sequence keeps the peak at the running sum of the
// allocations that fit, and within capacity.
func TestMemAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		e := sim.NewEngine()
		cfg := testConfig()
		cfg.MemCapacity = 1 << 20
		d := New(e, "m", cfg)
		var sum int64
		for _, op := range ops {
			bytes := int64(op) + 1
			if sum+bytes > d.MemCapacity() {
				continue
			}
			d.Alloc("p", bytes)
			sum += bytes
			if d.MemPeak() != sum || d.MemPeak() > d.MemCapacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphTotalKernelTime(t *testing.T) {
	g := NewGraph()
	a := g.AddKernel("a", 100)
	g.AddKernel("b", 50, a)
	if got := g.TotalKernelTime(); got != 150 {
		t.Fatalf("TotalKernelTime = %v, want 150", got)
	}
}
