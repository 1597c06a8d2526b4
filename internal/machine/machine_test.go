package machine

import (
	"testing"

	"gat/internal/sim"
)

func TestSummitShape(t *testing.T) {
	m := MustNew(Summit(4))
	if m.Procs() != 24 {
		t.Fatalf("procs = %d, want 24", m.Procs())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(5) != 0 || m.NodeOf(6) != 1 || m.NodeOf(23) != 3 {
		t.Fatal("NodeOf mapping wrong")
	}
	if m.GPUOf(7) == nil || m.GPUOf(7).Name() != "node1/gpu1" {
		t.Fatalf("GPUOf(7) = %v", m.GPUOf(7))
	}
}

func TestMachineFreshEngine(t *testing.T) {
	a, b := MustNew(Summit(1)), MustNew(Summit(1))
	if a.Eng == b.Eng {
		t.Fatal("machines must not share engines")
	}
	if a.Eng.Now() != 0 {
		t.Fatal("fresh machine should start at time zero")
	}
}

func TestMachineDevicesUsable(t *testing.T) {
	m := MustNew(Summit(1))
	s := m.GPUOf(0).NewStream("s", 1)
	var fired bool
	s.Kernel("k", 100*sim.Microsecond).OnFire(m.Eng, func() { fired = true })
	m.Eng.Run()
	if !fired {
		t.Fatal("kernel on machine GPU did not complete")
	}
}

func TestBadConfigErrors(t *testing.T) {
	if _, err := New(Config{Nodes: 0, GPUsPerNode: 6}); err == nil {
		t.Error("zero-node machine should return an error")
	}
	bad := Summit(2)
	bad.GPUsPerNode = 0
	if _, err := New(bad); err == nil {
		t.Error("zero-GPU machine should return an error")
	}
	if err := Summit(4).Validate(); err != nil {
		t.Errorf("Summit(4) should validate, got %v", err)
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew on a bad config did not panic")
		}
	}()
	MustNew(Config{Nodes: -1})
}
